"""Strategy learner: training, prediction, persistence."""

import numpy as np
import pytest

from repro.core import Dataset, FeatureVector, StrategyLearner, StrategySpace


@pytest.fixture
def space():
    return StrategySpace(8, 4)


@pytest.fixture
def toy_dataset(space, rng):
    """Synthetic learnable dataset: label depends on level and write mass."""
    n = 240
    rows = []
    labels = []
    for _ in range(n):
        level = int(rng.integers(0, 20))
        chars = tuple(int(rng.integers(0, 2)) for _ in range(4))
        props = rng.dirichlet(np.ones(4))
        fv = FeatureVector(level, chars, tuple(props))
        rows.append(fv.to_array())
        write_mass = fv.total_write_proportion()
        labels.append(0 if write_mass > 0.5 else (1 if level > 10 else 2))
    return Dataset(features=np.vstack(rows), labels=np.array(labels), n_classes=42)


class TestTraining:
    def test_learns_structured_labels(self, space, toy_dataset):
        learner = StrategyLearner(space, activation="logistic", seed=0)
        history = learner.train(toy_dataset, optimizer="adam", iterations=120, seed=0)
        assert history.final_accuracy > 0.8
        assert history.loss[-1] < history.loss[0]

    def test_history_lengths(self, space, toy_dataset):
        learner = StrategyLearner(space, seed=0)
        history = learner.train(toy_dataset, iterations=10, seed=0)
        assert history.iterations == 10
        assert len(history.test_accuracy) == 10

    def test_rejects_class_count_mismatch(self, space, toy_dataset):
        learner = StrategyLearner(StrategySpace(8, 2), seed=0)  # 8 classes
        with pytest.raises(ValueError):
            learner.train(toy_dataset)

    def test_report_row(self, space, toy_dataset):
        learner = StrategyLearner(space, seed=0)
        learner.train(toy_dataset, optimizer="sgd", iterations=5, seed=0)
        report = learner.report()
        assert report.optimizer == "sgd"
        assert report.final_loss > 0
        assert 0.0 <= report.test_accuracy <= 1.0

    def test_report_requires_training(self, space):
        with pytest.raises(RuntimeError):
            StrategyLearner(space).report()


class TestPrediction:
    def test_predict_returns_space_strategy(self, space, toy_dataset):
        learner = StrategyLearner(space, seed=0)
        learner.train(toy_dataset, iterations=30, seed=0)
        fv = FeatureVector(5, (0, 0, 1, 1), (0.4, 0.3, 0.2, 0.1))
        strategy = learner.predict(fv)
        assert strategy in list(space)
        assert learner.predict_index(fv) == space.index_of(strategy)

    def test_predict_before_training_rejected(self, space):
        fv = FeatureVector(5, (0, 0, 1, 1), (0.4, 0.3, 0.2, 0.1))
        with pytest.raises(RuntimeError):
            StrategyLearner(space).predict(fv)

    def test_accuracy_method(self, space, toy_dataset):
        learner = StrategyLearner(space, seed=0)
        learner.train(toy_dataset, iterations=100, seed=0)
        assert learner.accuracy(toy_dataset) > 0.8


class TestPersistence:
    def test_save_load_roundtrip(self, space, toy_dataset, tmp_path):
        learner = StrategyLearner(space, activation="relu", seed=0)
        learner.train(toy_dataset, iterations=20, seed=0)
        path = tmp_path / "learner.json"
        learner.save(path)
        clone = StrategyLearner.load(path)
        fv = FeatureVector(9, (1, 0, 1, 0), (0.3, 0.3, 0.2, 0.2))
        assert clone.predict_index(fv) == learner.predict_index(fv)
        assert clone.space.n_channels == 8
        assert clone.space.n_tenants == 4

    def test_untrained_save_rejected(self, space, tmp_path):
        with pytest.raises(RuntimeError):
            StrategyLearner(space).save(tmp_path / "x.json")

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "nope"}')
        with pytest.raises(ValueError):
            StrategyLearner.load(path)
