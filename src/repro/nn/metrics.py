"""Classification metrics: top-k accuracy.

The strategy learner's 42 classes contain many *near-equivalent* neighbours
(allocations within a few percent of each other's latency), so top-k
accuracy tells more than the single top-1 number the paper reports.  These
utilities are numpy-only and operate on logits.
"""

from __future__ import annotations

import numpy as np

__all__ = ["top_k_accuracy"]


def _labels_of(targets: np.ndarray) -> np.ndarray:
    targets = np.asarray(targets)
    if targets.ndim == 2:
        return targets.argmax(axis=1)
    return targets.astype(int)


def top_k_accuracy(logits: np.ndarray, targets: np.ndarray, k: int) -> float:
    """Fraction of rows whose true label is among the k highest logits."""
    logits = np.atleast_2d(np.asarray(logits, dtype=float))
    labels = _labels_of(targets)
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(logits) != len(labels):
        raise ValueError("logits and targets must align")
    if logits.size == 0:
        return 0.0
    k = min(k, logits.shape[1])
    top = np.argpartition(-logits, kth=k - 1, axis=1)[:, :k]
    return float((top == labels[:, None]).any(axis=1).mean())
