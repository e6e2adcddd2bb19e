"""Optimizers: exact update rules and convergence behaviour."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, SGDMomentum, get_optimizer, optimizers


def quadratic_descent(optimizer, start=5.0, steps=300):
    """Minimise f(w) = w^2 with the given optimizer; return |final w|."""
    w = np.array([start])
    for _ in range(steps):
        optimizer.step([w], [2 * w])
    return abs(float(w[0]))


class TestSGD:
    def test_exact_equation_one_update(self):
        """w := w - alpha * dC/dw, verbatim."""
        opt = SGD(learning_rate=0.1)
        w = np.array([1.0, 2.0])
        g = np.array([10.0, -20.0])
        opt.step([w], [g])
        assert np.allclose(w, [0.0, 4.0])

    def test_paper_default_learning_rate(self):
        assert SGD().learning_rate == 0.2

    def test_converges_on_quadratic(self):
        assert quadratic_descent(SGD(0.1)) < 1e-6


class TestSGDMomentum:
    def test_accumulates_velocity(self):
        opt = SGDMomentum(learning_rate=1.0)
        w = np.array([0.0])
        g = np.array([1.0])
        opt.step([w], [g])   # v = -1, w = -1
        opt.step([w], [g])   # v = -1.9, w = -2.9
        assert w[0] == pytest.approx(-2.9)

    def test_paper_momentum_value(self):
        assert optimizers._MOMENTUM == 0.9

    def test_faster_than_plain_sgd_on_ravine(self):
        # Ill-conditioned quadratic: momentum accelerates the slow axis.
        def run(opt, steps=120):
            w = np.array([5.0, 5.0])
            scales = np.array([1.0, 0.02])
            for _ in range(steps):
                opt.step([w], [2 * scales * w])
            return np.linalg.norm(w)

        assert run(SGDMomentum(0.1)) < run(SGD(0.1))


class TestAdam:
    def test_first_step_size_is_learning_rate(self):
        # Bias correction makes the first step ~lr regardless of gradient scale.
        for scale in (1e-3, 1.0, 1e3):
            opt = Adam(learning_rate=0.02)
            w = np.array([1.0])
            opt.step([w], [np.array([scale])])
            assert w[0] == pytest.approx(1.0 - 0.02, rel=1e-4)

    def test_paper_default_learning_rate(self):
        assert Adam().learning_rate == 0.02

    def test_converges_on_quadratic(self):
        assert quadratic_descent(Adam(0.1), steps=600) < 1e-3


class TestCommon:
    @pytest.mark.parametrize("cls", [SGD, SGDMomentum, Adam])
    def test_rejects_nonpositive_learning_rate(self, cls):
        with pytest.raises(ValueError):
            cls(learning_rate=0.0)

    def test_shape_mismatch_rejected(self):
        opt = SGD(0.1)
        with pytest.raises(ValueError):
            opt.step([np.zeros(3)], [np.zeros(4)])
        with pytest.raises(ValueError):
            opt.step([np.zeros(3)], [])

    def test_registry(self):
        assert isinstance(get_optimizer("sgd"), SGD)
        assert isinstance(get_optimizer("sgd-momentum"), SGDMomentum)
        assert isinstance(get_optimizer("adam", learning_rate=0.5), Adam)
        with pytest.raises(ValueError):
            get_optimizer("lion")

    def test_registry_passthrough(self):
        opt = Adam()
        assert get_optimizer(opt) is opt
