"""Dataset utilities: scaling, splitting, batching.

Mirrors the "Data preprocessing()" step of Algorithm 1 plus the 7:3
train/test split of Section V-B.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["StandardScaler", "train_test_split", "minibatches"]


class StandardScaler:
    """Per-feature zero-mean/unit-variance scaling (constant features pass
    through unscaled to avoid division blow-ups)."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "StandardScaler":
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError("expected a 2-D feature matrix")
        self.mean_ = x.mean(axis=0)
        std = x.std(axis=0)
        std[std == 0.0] = 1.0
        self.scale_ = std
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("fit() before transform()")
        return (np.asarray(x, dtype=float) - self.mean_) / self.scale_

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)

    def state(self) -> dict:
        """Serialisable parameters (for shipping to the FTL with the model)."""
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("scaler not fitted")
        return {"mean": self.mean_.tolist(), "scale": self.scale_.tolist()}

    @classmethod
    def from_state(cls, state: dict) -> "StandardScaler":
        scaler = cls()
        scaler.mean_ = np.asarray(state["mean"], dtype=float)
        scaler.scale_ = np.asarray(state["scale"], dtype=float)
        return scaler


def train_test_split(
    x: np.ndarray,
    y: np.ndarray,
    *,
    train_fraction: float = 0.7,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle and split; the paper's proportion is 7:3."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    x = np.asarray(x)
    y = np.asarray(y)
    if len(x) != len(y):
        raise ValueError("x and y must align")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(x))
    cut = int(round(len(x) * train_fraction))
    train_idx, test_idx = order[:cut], order[cut:]
    return x[train_idx], x[test_idx], y[train_idx], y[test_idx]


def minibatches(
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int,
    *,
    rng: np.random.Generator | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield shuffled minibatches covering the whole set once."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if len(x) != len(y):
        raise ValueError("x and y must align")
    order = (
        rng.permutation(len(x)) if rng is not None else np.arange(len(x))
    )
    for start in range(0, len(x), batch_size):
        idx = order[start : start + batch_size]
        yield x[idx], y[idx]
