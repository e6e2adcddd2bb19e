"""Finite-difference gradient checks for layers and the full network.

These are the tests that guarantee Equation 1's gradients — and therefore
the whole Figure-4 training reproduction — are computed correctly.
"""

import numpy as np
import pytest

from repro.nn import MLP, Dense


def network_numeric_grads(net, x, y, eps=1e-6):
    grads = []
    for param in net.parameters():
        grad = np.zeros_like(param)
        for idx in np.ndindex(*param.shape):
            original = param[idx]
            param[idx] = original + eps
            up = net.loss.value(net.forward(x), y)
            param[idx] = original - eps
            down = net.loss.value(net.forward(x), y)
            param[idx] = original
            grad[idx] = (up - down) / (2 * eps)
        grads.append(grad)
    return grads


class TestDenseBackward:
    @pytest.mark.parametrize("activation", ["identity", "logistic"])
    def test_input_gradient_matches_numeric(self, activation, rng):
        layer = Dense(4, 3, activation, rng=rng)
        x = rng.normal(size=(2, 4))
        upstream = rng.normal(size=(2, 3))

        layer.forward(x, train=True)
        analytic = layer.backward(upstream)

        numeric = np.zeros_like(x)
        eps = 1e-6
        for idx in np.ndindex(*x.shape):
            plus = x.copy()
            minus = x.copy()
            plus[idx] += eps
            minus[idx] -= eps
            diff = (layer.forward(plus) - layer.forward(minus)) / (2 * eps)
            numeric[idx] = (diff * upstream).sum()
        assert np.allclose(analytic, numeric, atol=1e-4)

    def test_backward_requires_forward(self, rng):
        layer = Dense(2, 2, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))

    def test_forward_rejects_wrong_width(self, rng):
        layer = Dense(3, 2, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(np.ones((1, 4)))


class TestFullNetworkGradients:
    @pytest.mark.parametrize("activation", ["relu", "logistic"])
    def test_all_parameter_gradients_match_numeric(self, activation, rng):
        net = MLP([5, 8, 4], hidden_activation=activation, seed=3)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 4, size=6)

        net.train_batch(x, y)
        analytic = net.gradients()
        numeric = network_numeric_grads(net, x, y)

        for a, n in zip(analytic, numeric):
            assert np.allclose(a, n, atol=1e-4), (
                f"max abs err {np.abs(a - n).max()}"
            )

    def test_two_hidden_layer_gradients(self, rng):
        net = MLP([4, 6, 5, 3], hidden_activation="logistic", seed=7)
        x = rng.normal(size=(3, 4))
        y = rng.integers(0, 3, size=3)
        net.train_batch(x, y)
        for a, n in zip(net.gradients(), network_numeric_grads(net, x, y)):
            assert np.allclose(a, n, atol=1e-4)

    def test_gradient_descent_step_reduces_loss(self, rng):
        net = MLP([3, 16, 2], hidden_activation="logistic", seed=0)
        x = rng.normal(size=(20, 3))
        y = (x[:, 0] > 0).astype(int)
        before = net.loss.value(net.forward(x), y)
        for _ in range(20):
            net.train_batch(x, y)
            for p, g in zip(net.parameters(), net.gradients()):
                p -= 0.5 * g
        after = net.loss.value(net.forward(x), y)
        assert after < before
