"""MLP structure, the paper's 9-64-42 architecture, and cost model."""

import numpy as np
import pytest

from repro.nn import MLP, paper_network


class TestPaperNetwork:
    def test_architecture(self):
        net = paper_network()
        assert net.layer_sizes == [9, 64, 42]
        assert len(net.layers) == 2

    def test_storage_estimate_matches_section_iv_d(self):
        """16 bytes per neuron over hidden + output layers."""
        net = paper_network()
        assert net.storage_bytes() == 16 * (64 + 42) == 1696

    def test_multiply_estimate_matches_section_iv_d(self):
        """sum(N_i * N_{i+1}) forward multiplies."""
        net = paper_network()
        assert net.forward_multiplies() == 9 * 64 + 64 * 42 == 3264

    def test_parameter_count(self):
        net = paper_network()
        assert net.n_parameters == (9 * 64 + 64) + (64 * 42 + 42)


class TestForward:
    def test_logits_shape(self, rng):
        net = MLP([4, 8, 3], seed=0)
        out = net.forward(rng.normal(size=(5, 4)))
        assert out.shape == (5, 3)

    def test_single_vector_promoted_to_batch(self, rng):
        net = MLP([4, 8, 3], seed=0)
        assert net.forward(rng.normal(size=4)).shape == (1, 3)

    def test_predict_is_argmax(self, rng):
        net = MLP([4, 8, 3], seed=0)
        x = rng.normal(size=(6, 4))
        assert np.array_equal(net.predict(x), net.forward(x).argmax(axis=1))

    def test_deterministic_given_seed(self):
        a = MLP([3, 5, 2], seed=11)
        b = MLP([3, 5, 2], seed=11)
        x = np.ones((1, 3))
        assert np.allclose(a.forward(x), b.forward(x))

    def test_rejects_too_few_sizes(self):
        with pytest.raises(ValueError):
            MLP([5])


class TestEvaluate:
    def test_accuracy_on_separable_data(self, rng):
        net = MLP([2, 16, 2], hidden_activation="logistic", seed=0)
        x = rng.normal(size=(200, 2))
        y = (x[:, 0] > 0).astype(int)
        from repro.nn import Trainer

        Trainer(net, "adam", learning_rate=0.05, seed=0).fit(x, y, iterations=40)
        loss, acc = net.evaluate(x, y)
        assert acc > 0.95
        assert loss < 0.3

    def test_evaluate_accepts_one_hot(self, rng):
        net = MLP([3, 4, 2], seed=0)
        x = rng.normal(size=(10, 3))
        y = rng.integers(0, 2, size=10)
        loss_int, acc_int = net.evaluate(x, y)
        loss_oh, acc_oh = net.evaluate(x, np.eye(2)[y])
        assert loss_int == pytest.approx(loss_oh)
        assert acc_int == acc_oh
