"""Multi-layer perceptron.

The SSDKeeper strategy learner is an MLP with a 9-feature input layer, one
64-neuron hidden layer, and a 42-class output (Section IV-D).  This class
generalises to any layer sizes; :func:`paper_network` builds the exact
paper architecture.

The final layer is linear (identity); classification probabilities come from
the fused softmax inside :class:`~repro.nn.losses.SoftmaxCrossEntropy`, so
``forward`` returns logits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .layers import Dense
from .losses import SoftmaxCrossEntropy

__all__ = ["MLP", "paper_network"]


class MLP:
    """Feed-forward network of :class:`~repro.nn.layers.Dense` layers."""

    def __init__(
        self,
        layer_sizes: Sequence[int],
        *,
        hidden_activation: str = "relu",
        seed: int | None = None,
    ) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        rng = np.random.default_rng(seed)
        self.layer_sizes = list(layer_sizes)
        self.hidden_activation = hidden_activation
        self.layers: list[Dense] = []
        for i in range(len(layer_sizes) - 1):
            last = i == len(layer_sizes) - 2
            self.layers.append(
                Dense(
                    layer_sizes[i],
                    layer_sizes[i + 1],
                    activation="identity" if last else hidden_activation,
                    rng=rng,
                )
            )
        self.loss = SoftmaxCrossEntropy()

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, *, train: bool = False) -> np.ndarray:
        """Logits for a batch (or a single feature vector)."""
        out = np.atleast_2d(np.asarray(x, dtype=float))
        for layer in self.layers:
            out = layer.forward(out, train=train)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Most-likely class per row."""
        return self.forward(x).argmax(axis=1)

    # ------------------------------------------------------------------
    def train_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        """Forward + backward on one minibatch; returns the batch loss.

        Parameter gradients are left in the layers for the optimizer.
        """
        logits = self.forward(x, train=True)
        value = self.loss.value(logits, y)
        grad = self.loss.backward(logits, y)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return value

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        """(loss, accuracy) on a labelled set (integer or one-hot labels)."""
        logits = self.forward(x)
        value = self.loss.value(logits, y)
        y = np.asarray(y)
        labels = y.argmax(axis=1) if y.ndim == 2 else y.astype(int)
        accuracy = float((logits.argmax(axis=1) == labels).mean())
        return value, accuracy

    # ------------------------------------------------------------------
    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.parameters()]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.gradients()]

    @property
    def n_parameters(self) -> int:
        return sum(layer.n_parameters for layer in self.layers)

    def storage_bytes(self) -> int:
        """The paper's Section IV-D storage estimate: 16 B per neuron
        (weight + bias), summed over all layers."""
        return 16 * sum(self.layer_sizes[1:])

    def forward_multiplies(self) -> int:
        """The paper's Section IV-D compute estimate: sum of N_i * N_{i+1}."""
        return sum(
            self.layer_sizes[i] * self.layer_sizes[i + 1]
            for i in range(len(self.layer_sizes) - 1)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        arch = "->".join(str(s) for s in self.layer_sizes)
        return f"MLP({arch}, {self.hidden_activation})"


def paper_network() -> MLP:
    """The exact Section IV-D architecture: 9 -> 64 -> 42, ReLU (seed 0)."""
    return MLP([9, 64, 42], hidden_activation="relu", seed=0)
