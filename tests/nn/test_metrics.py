"""Classification metrics."""

import numpy as np
import pytest

from repro.nn import top_k_accuracy


class TestAccuracy:
    """Top-1 accuracy is ``top_k_accuracy`` with ``k=1``."""

    def test_exact_match(self):
        logits = np.eye(3)
        assert top_k_accuracy(logits, np.array([0, 1, 2]), 1) == 1.0
        assert top_k_accuracy(logits, np.array([0, 0, 0]), 1) == pytest.approx(1 / 3)

    def test_one_hot_targets(self):
        one_hot = np.eye(3)[[0, 2]]
        assert top_k_accuracy(one_hot, one_hot, 1) == 1.0

    def test_empty(self):
        assert top_k_accuracy(np.zeros((0, 3)), np.array([]), 1) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            top_k_accuracy(np.eye(3)[[0]], np.array([0, 1]), 1)


class TestTopK:
    def test_k1_equals_accuracy(self, rng):
        logits = rng.normal(size=(20, 5))
        labels = rng.integers(0, 5, size=20)
        assert top_k_accuracy(logits, labels, 1) == pytest.approx(
            float((logits.argmax(axis=1) == labels).mean())
        )

    def test_monotone_in_k(self, rng):
        logits = rng.normal(size=(50, 8))
        labels = rng.integers(0, 8, size=50)
        values = [top_k_accuracy(logits, labels, k) for k in (1, 2, 4, 8)]
        assert values == sorted(values)
        assert values[-1] == 1.0  # k = n_classes always hits

    def test_specific_case(self):
        logits = np.array([[0.1, 0.9, 0.5]])  # ranking: 1, 2, 0
        assert top_k_accuracy(logits, np.array([2]), 1) == 0.0
        assert top_k_accuracy(logits, np.array([2]), 2) == 1.0

    def test_k_larger_than_classes_clamped(self):
        logits = np.array([[1.0, 0.0]])
        assert top_k_accuracy(logits, np.array([1]), 10) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            top_k_accuracy(np.zeros((2, 3)), np.zeros(2), 0)
        with pytest.raises(ValueError):
            top_k_accuracy(np.zeros((2, 3)), np.zeros(3), 1)
