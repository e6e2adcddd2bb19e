"""Losses: values and gradients against numeric differentiation."""

import numpy as np
import pytest

from repro.nn import SoftmaxCrossEntropy


def numeric_grad(loss, logits, targets, eps=1e-6):
    grad = np.zeros_like(logits)
    for idx in np.ndindex(*logits.shape):
        plus = logits.copy()
        minus = logits.copy()
        plus[idx] += eps
        minus[idx] -= eps
        grad[idx] = (loss.value(plus, targets) - loss.value(minus, targets)) / (2 * eps)
    return grad


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_has_low_loss(self):
        loss = SoftmaxCrossEntropy()
        logits = np.array([[20.0, 0.0, 0.0]])
        assert loss.value(logits, np.array([0])) < 1e-6

    def test_uniform_prediction_is_log_k(self):
        loss = SoftmaxCrossEntropy()
        logits = np.zeros((2, 4))
        assert loss.value(logits, np.array([1, 3])) == pytest.approx(np.log(4))

    def test_accepts_one_hot_targets(self):
        loss = SoftmaxCrossEntropy()
        logits = np.array([[1.0, 2.0, 0.5], [0.0, 0.1, 3.0]])
        labels = np.array([1, 2])
        assert loss.value(logits, labels) == pytest.approx(
            loss.value(logits, np.eye(3)[labels])
        )

    def test_rejects_wrong_one_hot_width(self):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(ValueError):
            loss.value(np.zeros((1, 3)), np.zeros((1, 4)))

    def test_gradient_matches_numeric(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(5, 7))
        targets = rng.integers(0, 7, size=5)
        analytic = loss.backward(logits.copy(), targets)
        numeric = numeric_grad(loss, logits, targets)
        assert np.allclose(analytic, numeric, atol=1e-5)

    def test_gradient_rows_sum_to_zero(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(4, 6))
        grad = loss.backward(logits, rng.integers(0, 6, size=4))
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)
