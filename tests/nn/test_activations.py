"""Activations: values, output-based derivatives, softmax properties."""

from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
import numpy as np
import pytest

from repro.nn import Identity, Logistic, ReLU, get_activation, softmax

FINITE = st.floats(-20, 20, allow_nan=False)


def numeric_derivative(act, x, eps=1e-6):
    return (act.forward(x + eps) - act.forward(x - eps)) / (2 * eps)


class TestValues:
    def test_relu(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert np.array_equal(ReLU().forward(x), [0.0, 0.0, 3.0])

    def test_logistic_midpoint_and_saturation(self):
        act = Logistic()
        assert act.forward(np.array([0.0]))[0] == pytest.approx(0.5)
        assert act.forward(np.array([50.0]))[0] == pytest.approx(1.0)
        assert act.forward(np.array([-50.0]))[0] == pytest.approx(0.0)

    def test_logistic_extreme_inputs_are_finite(self):
        out = Logistic().forward(np.array([-1e9, 1e9]))
        assert np.all(np.isfinite(out))

    def test_identity(self):
        x = np.array([-1.0, 0.0, 1.0])
        assert np.array_equal(Identity().forward(x), x)


class TestDerivatives:
    @pytest.mark.parametrize("act_cls", [Logistic, Identity])
    def test_matches_numeric(self, act_cls):
        act = act_cls()
        x = np.linspace(-3, 3, 31)
        out = act.forward(x)
        analytic = act.backward(np.ones_like(x), out)
        numeric = numeric_derivative(act, x)
        assert np.allclose(analytic, numeric, atol=1e-5)

    def test_relu_matches_numeric_away_from_kink(self):
        act = ReLU()
        x = np.array([-2.0, -0.5, 0.5, 2.0])
        out = act.forward(x)
        analytic = act.backward(np.ones_like(x), out)
        numeric = numeric_derivative(act, x)
        assert np.allclose(analytic, numeric, atol=1e-5)

    def test_backward_scales_with_upstream_gradient(self):
        act = Logistic()
        x = np.array([0.3])
        out = act.forward(x)
        g1 = act.backward(np.array([1.0]), out)
        g3 = act.backward(np.array([3.0]), out)
        assert g3 == pytest.approx(3 * g1)


class TestRegistry:
    @pytest.mark.parametrize("name,cls", [("relu", ReLU), ("logistic", Logistic),
                                          ("identity", Identity)])
    def test_lookup(self, name, cls):
        assert isinstance(get_activation(name), cls)

    def test_instance_passthrough(self):
        act = ReLU()
        assert get_activation(act) is act

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            get_activation("swish")


class TestSoftmax:
    @given(arrays(float, (4, 6), elements=FINITE))
    def test_rows_are_distributions(self, logits):
        probs = softmax(logits)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0)

    @given(arrays(float, (3, 5), elements=FINITE), st.floats(-5, 5))
    def test_shift_invariance(self, logits, shift):
        assert np.allclose(softmax(logits), softmax(logits + shift), atol=1e-9)

    def test_handles_huge_logits(self):
        probs = softmax(np.array([[1e4, 0.0]]))
        assert probs[0, 0] == pytest.approx(1.0)
        assert np.isfinite(probs).all()

    def test_argmax_preserved(self):
        logits = np.array([[1.0, 5.0, 2.0]])
        assert softmax(logits).argmax() == 1
