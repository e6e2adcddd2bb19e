"""Loss functions.

The strategy learner is a multi-class classifier over the 42 channel
allocation strategies, so the primary loss is softmax cross-entropy.  It is
implemented fused: ``backward`` returns the famously simple
``(softmax(logits) - onehot) / batch`` gradient w.r.t. the logits, avoiding
a separately-differentiated softmax layer.
"""

from __future__ import annotations

import numpy as np

from .activations import softmax

__all__ = ["Loss", "SoftmaxCrossEntropy"]

_EPS = 1e-12


class Loss:
    """Base loss; subclasses provide mean value and logits gradient."""

    name = "base"

    def value(self, logits: np.ndarray, targets: np.ndarray) -> float:
        """Mean loss over the batch."""
        raise NotImplementedError

    def backward(self, logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Gradient of the mean loss w.r.t. the logits."""
        raise NotImplementedError


class SoftmaxCrossEntropy(Loss):
    """Fused softmax + categorical cross-entropy.

    ``targets`` may be one-hot rows or integer class labels.
    """

    name = "softmax_cross_entropy"

    @staticmethod
    def _labels(targets: np.ndarray, n_classes: int) -> np.ndarray:
        targets = np.asarray(targets)
        if targets.ndim == 2:
            if targets.shape[1] != n_classes:
                raise ValueError("one-hot width does not match logits")
            return targets.argmax(axis=1)
        return targets.astype(int)

    def value(self, logits: np.ndarray, targets: np.ndarray) -> float:
        probs = softmax(logits)
        labels = self._labels(targets, logits.shape[1])
        picked = probs[np.arange(len(labels)), labels]
        return float(-np.log(picked + _EPS).mean())

    def backward(self, logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        probs = softmax(logits)
        labels = self._labels(targets, logits.shape[1])
        grad = probs
        grad[np.arange(len(labels)), labels] -= 1.0
        return grad / len(labels)
