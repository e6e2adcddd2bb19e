"""Training loop and history recording."""

import numpy as np
import pytest

from repro.nn import MLP, History, Trainer


@pytest.fixture
def toy_problem(rng):
    x = rng.normal(size=(120, 3))
    y = ((x[:, 0] + x[:, 1]) > 0).astype(int)
    return x, y


class TestTrainer:
    def test_loss_decreases(self, toy_problem):
        x, y = toy_problem
        net = MLP([3, 12, 2], seed=0)
        history = Trainer(net, "adam", learning_rate=0.05, seed=0).fit(
            x, y, iterations=30
        )
        assert history.iterations == 30
        assert history.loss[-1] < history.loss[0]

    def test_records_test_metrics_when_given(self, toy_problem, rng):
        x, y = toy_problem
        net = MLP([3, 12, 2], seed=0)
        history = Trainer(net, "adam", seed=0).fit(
            x[:80], y[:80], iterations=10, x_test=x[80:], y_test=y[80:]
        )
        assert len(history.test_accuracy) == 10
        assert len(history.test_loss) == 10
        assert 0.0 <= history.final_accuracy <= 1.0

    def test_no_test_metrics_without_test_set(self, toy_problem):
        x, y = toy_problem
        net = MLP([3, 8, 2], seed=0)
        history = Trainer(net, "sgd", seed=0).fit(x, y, iterations=5)
        assert history.test_accuracy == []
        with pytest.raises(RuntimeError):
            _ = history.final_accuracy

    def test_training_time_recorded(self, toy_problem):
        x, y = toy_problem
        net = MLP([3, 8, 2], seed=0)
        history = Trainer(net, "sgd", seed=0).fit(x, y, iterations=3)
        assert history.training_time_ms > 0

    def test_rejects_bad_batch_size(self, toy_problem):
        net = MLP([3, 8, 2], seed=0)
        with pytest.raises(ValueError):
            Trainer(net, "sgd", batch_size=0)

    def test_optimizer_kwargs_forwarded(self, toy_problem):
        x, y = toy_problem
        net = MLP([3, 8, 2], seed=0)
        trainer = Trainer(net, "sgd-momentum", learning_rate=0.01)
        assert trainer.optimizer.learning_rate == 0.01

    def test_weight_decay_shrinks_parameters(self, toy_problem):
        import numpy as np

        x, y = toy_problem
        plain = MLP([3, 8, 2], seed=4)
        decayed = MLP([3, 8, 2], seed=4)
        Trainer(plain, "sgd", learning_rate=1e-9, seed=0).fit(x, y, iterations=5)
        Trainer(decayed, "sgd", learning_rate=1e-9, seed=0,
                weight_decay=0.05).fit(x, y, iterations=5)
        norm = lambda net: sum(float(np.abs(p).sum()) for p in net.parameters())
        assert norm(decayed) < norm(plain)

    def test_weight_decay_validation(self):
        net = MLP([3, 8, 2], seed=0)
        import pytest as _pytest

        with _pytest.raises(ValueError):
            Trainer(net, "sgd", weight_decay=1.0)
        with _pytest.raises(ValueError):
            Trainer(net, "sgd", weight_decay=-0.1)


class TestFunctionalWrapper:
    def test_empty_history_raises_on_final_loss(self):
        with pytest.raises(RuntimeError):
            _ = History().final_loss


class TestConvergenceQuality:
    def test_reaches_high_accuracy_on_separable_data(self, toy_problem):
        x, y = toy_problem
        net = MLP([3, 16, 2], hidden_activation="logistic", seed=0)
        Trainer(net, "adam", learning_rate=0.05, seed=0).fit(x, y, iterations=60)
        _, acc = net.evaluate(x, y)
        assert acc > 0.9

    def test_seeded_training_is_deterministic(self, toy_problem):
        x, y = toy_problem

        def run():
            net = MLP([3, 8, 2], seed=5)
            return Trainer(net, "adam", seed=5).fit(x, y, iterations=5).loss

        assert run() == run()
