"""Label generation: tie-break, determinism, dataset mechanics."""

import numpy as np
import pytest

from repro.core import (
    Dataset,
    LabelerConfig,
    StrategySpace,
    generate_dataset,
    label_sample,
    random_specs,
)
from repro.core.features import N_INTENSITY_LEVELS
from repro.core.labeler import _SHARE_GRID, _snap_to_grid, pick_label
from repro.ssd import SSDConfig


@pytest.fixture
def fast_cfg():
    """A configuration small enough for test-speed sweeps."""
    return LabelerConfig(
        ssd=SSDConfig.small(),
        n_tenants=4,
        window_requests_max=400,
        window_s=0.02,
        replications=1,
    )


class TestObjective:
    def test_mean_sum_weights_classes_equally(self, fast_cfg, rng):
        from repro.core.labeler import objective_us
        from repro.ssd import LatencyAccumulator, OpType
        from repro.ssd.metrics import build_result

        acc = LatencyAccumulator()
        for _ in range(9):
            acc.add(0, OpType.READ, 10.0)
        acc.add(0, OpType.WRITE, 1000.0)
        result = build_result(acc, makespan_us=1.0, requests=10, subrequests=10)
        # mean-sum: 10 + 1000, not the count-weighted 9*10 + 1000
        assert objective_us(result, "mean-sum") == 1010.0

    def test_unknown_objective_rejected(self):
        from repro.core.labeler import objective_us
        from repro.ssd import LatencyAccumulator
        from repro.ssd.metrics import build_result

        result = build_result(
            LatencyAccumulator(), makespan_us=0.0, requests=0, subrequests=0
        )
        with pytest.raises(ValueError):
            objective_us(result, "geometric")


class TestPickLabel:
    def test_plain_argmin_when_epsilon_zero(self):
        assert pick_label([5.0, 1.0, 3.0], 0.0) == 1

    def test_indifference_band_prefers_earliest(self):
        # 1.02 is within 5% of 1.0 -> index 0 wins.
        assert pick_label([1.02, 1.0, 3.0], 0.05) == 0

    def test_band_excludes_clear_losers(self):
        assert pick_label([2.0, 1.0, 1.2], 0.05) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pick_label([], 0.05)


class TestSnapToGrid:
    def test_sums_to_one_on_grid(self):
        shares = np.array([0.333, 0.333, 0.334])
        snapped = _snap_to_grid(shares, 0.05)
        assert snapped.sum() == pytest.approx(1.0)
        units = snapped / 0.05
        assert np.allclose(units, np.round(units))

    def test_minimum_share_is_one_grid_unit(self):
        snapped = _snap_to_grid(np.array([0.97, 0.01, 0.01, 0.01]), 0.05)
        assert snapped.min() >= 0.05 - 1e-12
        assert snapped.sum() == pytest.approx(1.0)

    def test_rejects_too_coarse_grid(self):
        with pytest.raises(ValueError):
            _snap_to_grid(np.ones(5) / 5, 0.25)


class TestRandomSpecs:
    def test_share_grid_respected(self, fast_cfg, rng):
        specs, total = random_specs(fast_cfg, rng)
        shares = np.array([s.rate_rps for s in specs])
        shares = shares / shares.sum()
        units = shares / _SHARE_GRID
        assert np.allclose(units, np.round(units), atol=1e-6)

    def test_pure_ratios(self, fast_cfg, rng):
        for _ in range(5):
            specs, _ = random_specs(fast_cfg, rng)
            assert all(s.write_ratio in (0.0, 1.0) for s in specs)

    def test_pinned_intensity_level(self, fast_cfg, rng):
        for level in (0, 10, 19):
            _, total = random_specs(fast_cfg, rng, intensity_level=level)
            expected = max(int(fast_cfg.intensity_quantum * (level + 0.5)), 16)
            assert total == expected

    def test_rejects_bad_level(self, fast_cfg, rng):
        with pytest.raises(ValueError):
            random_specs(fast_cfg, rng, intensity_level=N_INTENSITY_LEVELS)


class TestLabelSample:
    def test_returns_consistent_sample(self, fast_cfg, rng):
        space = StrategySpace()
        sample = label_sample(fast_cfg, rng, space)
        assert 0 <= sample.label < len(space)
        assert len(sample.total_latencies_us) == len(space)
        best_us = sample.total_latencies_us[sample.label]
        assert best_us <= min(sample.total_latencies_us) * (
            1 + fast_cfg.tie_epsilon + 1e-9
        )

    def test_label_deterministic_for_same_specs(self, fast_cfg):
        """Two identically-seeded draws must produce the same label (the
        trace seeds derive from the specs, not the caller's rng)."""
        space = StrategySpace()
        a = label_sample(fast_cfg, np.random.default_rng(3), space)
        b = label_sample(fast_cfg, np.random.default_rng(3), space)
        assert a.label == b.label
        assert a.features == b.features

    def test_event_engine_accepted(self, fast_cfg, rng):
        cfg = LabelerConfig(
            ssd=fast_cfg.ssd,
            n_tenants=4,
            window_requests_max=200,
            window_s=0.02,
            replications=1,
            engine="event",
        )
        sample = label_sample(cfg, rng, StrategySpace())
        assert 0 <= sample.label < 42


class TestDataset:
    def test_generate_and_roundtrip(self, fast_cfg, rng, tmp_path):
        ds = generate_dataset(5, fast_cfg, seed=1)
        assert len(ds) == 5
        assert ds.features.shape == (5, 9)
        assert ds.n_classes == 42
        path = tmp_path / "ds.npz"
        ds.save(path)
        loaded = Dataset.load(path)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.n_classes == 42

    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((2, 9)), labels=np.zeros(3), n_classes=42)
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((2, 9)), labels=np.array([0, 99]), n_classes=42)
        with pytest.raises(ValueError):
            generate_dataset(0, LabelerConfig())


class TestLabelerConfig:
    def test_defaults_are_paper_shaped(self):
        cfg = LabelerConfig()
        assert cfg.n_tenants == 4
        assert cfg.intensity_quantum == pytest.approx(
            cfg.window_requests_max / N_INTENSITY_LEVELS
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_tenants=1),
            dict(window_requests_max=5),
            dict(window_s=0.0),
            dict(engine="magic"),
            dict(replications=0),
            dict(tie_epsilon=-0.1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LabelerConfig(**kwargs)

    def test_footprint_fits_device(self):
        cfg = LabelerConfig()
        assert cfg.footprint_pages * cfg.n_tenants <= cfg.ssd.logical_pages
