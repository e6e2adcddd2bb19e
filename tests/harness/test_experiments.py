"""Experiment entry points at smoke scale (cached in tmp)."""

import dataclasses

import pytest

from repro.harness import (
    MIX_COMPOSITIONS,
    OPTIMIZER_VARIANTS,
    ArtifactCache,
    Scale,
    build_dataset,
    build_mixes,
    tab2_workloads,
    train_all,
    trained_learner,
)
from repro.nn import optimizers


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


@pytest.fixture(scope="module")
def micro():
    """A scale even smaller than smoke, for unit-test latency."""
    return dataclasses.replace(
        Scale.smoke(),
        dataset_samples=8,
        train_iterations=6,
        mix_requests=400,
        fig6_samples=4,
    )


class TestVariants:
    def test_paper_hyperparameters(self):
        assert OPTIMIZER_VARIANTS["SGD"]["learning_rate"] == 0.2
        # momentum is no variant knob: the optimizer holds the paper's 0.9
        assert optimizers._MOMENTUM == 0.9
        assert OPTIMIZER_VARIANTS["Adam-logistic"]["learning_rate"] == 0.02
        assert OPTIMIZER_VARIANTS["Adam-logistic"]["activation"] == "logistic"

    def test_table_iv_compositions(self):
        assert MIX_COMPOSITIONS["Mix1"] == ["mds_0", "mds_1", "rsrch_0", "prxy_0"]
        assert MIX_COMPOSITIONS["Mix2"] == ["prxy_0", "src_1", "rsrch_0", "mds_1"]
        assert all(len(v) == 4 for v in MIX_COMPOSITIONS.values())


class TestDatasetAndTraining:
    def test_build_dataset_cached(self, micro, cache):
        ds1 = build_dataset(micro, cache=cache)
        ds2 = build_dataset(micro, cache=cache)
        assert len(ds1) == 8
        assert (ds1.features == ds2.features).all()

    def test_train_all_produces_four_variants(self, micro, cache):
        res = train_all(micro, cache=cache)
        assert set(res["variants"]) == set(OPTIMIZER_VARIANTS)
        for row in res["variants"].values():
            assert len(row["loss_curve"]) == micro.train_iterations
            assert 0.0 <= row["final_accuracy"] <= 1.0
            assert row["training_time_ms"] > 0

    def test_trained_learner_roundtrips_through_cache(self, micro, cache):
        a = trained_learner(micro, cache=cache)
        b = trained_learner(micro, cache=cache)  # loaded from disk
        from repro.core import FeatureVector

        fv = FeatureVector(5, (0, 1, 0, 1), (0.25, 0.25, 0.25, 0.25))
        assert a.predict_index(fv) == b.predict_index(fv)

    def test_cached_learner_or_none(self, micro, cache):
        from repro.harness import cached_learner_or_none

        # Empty cache: None, and crucially no hour-long build is triggered.
        assert cached_learner_or_none(micro, cache=cache) is None
        built = trained_learner(micro, cache=cache)
        probed = cached_learner_or_none(micro, cache=cache)
        assert probed is not None
        from repro.core import FeatureVector

        fv = FeatureVector(5, (0, 1, 0, 1), (0.25, 0.25, 0.25, 0.25))
        assert probed.predict_index(fv) == built.predict_index(fv)


class TestMixes:
    def test_build_mixes_shapes(self, micro):
        mixes = build_mixes(micro)
        assert set(mixes) == set(MIX_COMPOSITIONS)
        for mixed in mixes.values():
            assert len(mixed.requests) == micro.mix_requests
            assert mixed.n_tenants == 4

    def test_mix_intensities_follow_table_v_levels(self, micro):
        """Each mix replays at the rate of its published Table-V level, so
        Mix1 (level 3) is far lighter than the level-16..18 mixes."""
        from repro.harness.experiments import MIX_LEVEL_TARGETS

        mixes = build_mixes(micro)
        rates = {
            name: micro.mix_requests / max(m.duration_us(), 1.0)
            for name, m in mixes.items()
        }
        assert min(rates, key=rates.get) == "Mix1"
        assert rates["Mix2"] > 3 * rates["Mix1"]
        assert MIX_LEVEL_TARGETS == {"Mix1": 3, "Mix2": 18, "Mix3": 16, "Mix4": 17}


class TestTab2:
    def test_measured_ratios_match_paper(self):
        rows = tab2_workloads(sample_requests=3000)
        for name, row in rows.items():
            assert row["measured_write_ratio"] == pytest.approx(
                row["paper_write_ratio"], abs=0.03
            )
