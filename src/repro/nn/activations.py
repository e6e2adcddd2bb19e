"""Activation functions.

Each activation is a stateless object with ``forward`` and ``backward``:
``backward(grad_out, cached_output)`` maps the gradient w.r.t. the
activation's output to the gradient w.r.t. its pre-activation input, using
only the cached *output* (every activation here has a derivative expressible
in its output, which keeps the layer cache small).

The paper explores **ReLU** and **logistic** hidden activations (Table III's
Adam-ReLU / Adam-logistic variants); identity is the output layer's
activation ahead of the softmax.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Activation", "ReLU", "Logistic", "Identity", "get_activation", "softmax"]


class Activation:
    """Base class; subclasses are stateless and reusable across layers."""

    name: str = "base"

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray, output: np.ndarray) -> np.ndarray:
        """d loss / d pre-activation, given d loss / d output and the output."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ReLU(Activation):
    """max(0, x) — the paper's fast hidden activation."""

    name = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def backward(self, grad_out: np.ndarray, output: np.ndarray) -> np.ndarray:
        return grad_out * (output > 0.0)


class Logistic(Activation):
    """1 / (1 + e^-x) — the paper's higher-accuracy, costlier activation."""

    name = "logistic"

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Numerically stable split on sign.
        out = np.empty_like(x, dtype=float)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def backward(self, grad_out: np.ndarray, output: np.ndarray) -> np.ndarray:
        return grad_out * output * (1.0 - output)


class Identity(Activation):
    """Pass-through; used for the output layer before softmax."""

    name = "identity"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray, output: np.ndarray) -> np.ndarray:
        return grad_out


_REGISTRY: dict[str, type[Activation]] = {
    cls.name: cls for cls in (ReLU, Logistic, Identity)
}


def get_activation(name: str | Activation) -> Activation:
    """Resolve an activation by name (or pass an instance through)."""
    if isinstance(name, Activation):
        return name
    try:
        return _REGISTRY[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift stabilisation."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)
