"""Scaler, split, minibatches."""

import numpy as np
import pytest

from repro.nn import StandardScaler, minibatches, train_test_split


class TestStandardScaler:
    def test_zero_mean_unit_variance(self, rng):
        x = rng.normal(loc=5, scale=3, size=(200, 4))
        z = StandardScaler().fit_transform(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_passes_through(self):
        x = np.array([[1.0, 5.0], [1.0, 7.0]])
        z = StandardScaler().fit_transform(x)
        assert np.allclose(z[:, 0], 0.0)
        assert np.isfinite(z).all()

    def test_transform_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.ones((2, 2)))

    def test_fit_rejects_1d(self):
        with pytest.raises(ValueError):
            StandardScaler().fit(np.ones(5))

    def test_state_roundtrip(self, rng):
        x = rng.normal(size=(50, 3))
        scaler = StandardScaler().fit(x)
        clone = StandardScaler.from_state(scaler.state())
        assert np.allclose(clone.transform(x), scaler.transform(x))


class TestTrainTestSplit:
    def test_paper_proportion(self, rng):
        x = rng.normal(size=(100, 2))
        y = rng.integers(0, 2, size=100)
        x_tr, x_te, y_tr, y_te = train_test_split(x, y, train_fraction=0.7, seed=0)
        assert len(x_tr) == 70
        assert len(x_te) == 30
        assert len(y_tr) == 70 and len(y_te) == 30

    def test_partition_is_exact(self, rng):
        x = np.arange(50).reshape(50, 1).astype(float)
        y = np.arange(50)
        x_tr, x_te, _, _ = train_test_split(x, y, seed=1)
        combined = sorted(np.concatenate([x_tr, x_te]).ravel().tolist())
        assert combined == list(range(50))

    def test_rows_stay_aligned(self, rng):
        x = np.arange(40).reshape(40, 1).astype(float)
        y = np.arange(40)
        x_tr, x_te, y_tr, y_te = train_test_split(x, y, seed=2)
        assert np.array_equal(x_tr.ravel().astype(int), y_tr)
        assert np.array_equal(x_te.ravel().astype(int), y_te)

    def test_seeded_determinism(self, rng):
        x = rng.normal(size=(30, 2))
        y = rng.integers(0, 2, size=30)
        a = train_test_split(x, y, seed=9)
        b = train_test_split(x, y, seed=9)
        assert all(np.array_equal(p, q) for p, q in zip(a, b))

    def test_validation(self):
        with pytest.raises(ValueError):
            train_test_split(np.ones((3, 1)), np.ones(4))
        with pytest.raises(ValueError):
            train_test_split(np.ones((3, 1)), np.ones(3), train_fraction=1.0)


class TestMinibatches:
    def test_covers_every_row_once(self, rng):
        x = np.arange(23).reshape(23, 1).astype(float)
        y = np.arange(23)
        seen = []
        for xb, yb in minibatches(x, y, 5, rng=rng):
            assert len(xb) == len(yb) <= 5
            seen.extend(yb.tolist())
        assert sorted(seen) == list(range(23))

    def test_without_rng_is_sequential(self):
        x = np.arange(6).reshape(6, 1).astype(float)
        y = np.arange(6)
        first_batch = next(iter(minibatches(x, y, 3)))
        assert np.array_equal(first_batch[1], [0, 1, 2])

    def test_validation(self):
        with pytest.raises(ValueError):
            list(minibatches(np.ones((2, 1)), np.ones(2), 0))
        with pytest.raises(ValueError):
            list(minibatches(np.ones((2, 1)), np.ones(3), 1))
