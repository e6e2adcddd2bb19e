"""Feature vectors and the features collector."""

from hypothesis import given
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.core import N_INTENSITY_LEVELS, FeaturesCollector, FeatureVector, features_of_mix
from repro.ssd import IORequest, OpType
from repro.workloads import WorkloadSpec, generate, mix


def req(wid, op, t=0.0):
    return IORequest(arrival_us=t, workload_id=wid, op=op, lpn=0)


class TestFeatureVector:
    def test_paper_example_shape(self):
        """The paper's example: [5] [1,0,1,0] [0.1,0.2,0.3,0.4]."""
        fv = FeatureVector(
            intensity_level=5,
            characteristics=(1, 0, 1, 0),
            proportions=(0.1, 0.2, 0.3, 0.4),
        )
        assert len(fv.to_array()) == 9
        assert fv.n_tenants == 4
        assert str(fv) == "[5] [1,0,1,0] [0.10,0.20,0.30,0.40]"

    def test_to_array_layout(self):
        fv = FeatureVector(3, (0, 1), (0.25, 0.75))
        assert np.allclose(fv.to_array(), [3.0, 0.0, 1.0, 0.25, 0.75])

    def test_write_dominated_mask(self):
        fv = FeatureVector(0, (0, 1, 0, 1), (0.25, 0.25, 0.25, 0.25))
        assert fv.write_dominated() == [True, False, True, False]

    def test_total_write_proportion(self):
        """Figure 6's Y axis: shares of the write-dominated tenants."""
        fv = FeatureVector(0, (0, 1, 0, 1), (0.4, 0.1, 0.2, 0.3))
        assert fv.total_write_proportion() == pytest.approx(0.6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(intensity_level=-1, characteristics=(0,), proportions=(1.0,)),
            dict(intensity_level=20, characteristics=(0,), proportions=(1.0,)),
            dict(intensity_level=0, characteristics=(2,), proportions=(1.0,)),
            dict(intensity_level=0, characteristics=(0, 1), proportions=(1.0,)),
            dict(intensity_level=0, characteristics=(0, 1), proportions=(0.9, 0.3)),
            dict(intensity_level=0, characteristics=(0, 1), proportions=(-0.1, 1.1)),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FeatureVector(**kwargs)


class TestFeaturesCollector:
    def test_characteristics_from_majorities(self):
        col = FeaturesCollector(2, intensity_quantum=10)
        for _ in range(3):
            col.observe(req(0, OpType.WRITE))
        col.observe(req(0, OpType.READ))
        for _ in range(4):
            col.observe(req(1, OpType.READ))
        fv = col.collect()
        assert fv.characteristics == (0, 1)
        assert fv.proportions == (0.5, 0.5)

    def test_intensity_levels_quantise_counts(self):
        col = FeaturesCollector(1, intensity_quantum=10)
        for _ in range(25):
            col.observe(req(0, OpType.READ))
        assert col.collect().intensity_level == 2

    def test_intensity_saturates_at_top_level(self):
        col = FeaturesCollector(1, intensity_quantum=1)
        for _ in range(100):
            col.observe(req(0, OpType.READ))
        assert col.collect().intensity_level == N_INTENSITY_LEVELS - 1

    def test_idle_tenant_defaults_to_read(self):
        col = FeaturesCollector(2, intensity_quantum=10)
        col.observe(req(0, OpType.WRITE))
        fv = col.collect()
        assert fv.characteristics == (0, 1)
        assert fv.proportions == (1.0, 0.0)

    def test_empty_window_rejected(self):
        with pytest.raises(RuntimeError):
            FeaturesCollector(1, intensity_quantum=10).collect()

    def test_reset(self):
        col = FeaturesCollector(1, intensity_quantum=10)
        col.observe(req(0, OpType.READ))
        col.reset()
        assert col.total_observed == 0

    def test_out_of_range_workload_rejected(self):
        col = FeaturesCollector(2, intensity_quantum=10)
        with pytest.raises(ValueError):
            col.observe(req(5, OpType.READ))

    def test_validation(self):
        with pytest.raises(ValueError):
            FeaturesCollector(0, intensity_quantum=10)
        with pytest.raises(ValueError):
            FeaturesCollector(1, intensity_quantum=0)

    @given(
        counts=st.lists(st.integers(0, 30), min_size=2, max_size=4),
    )
    def test_proportions_always_sum_to_one(self, counts):
        if sum(counts) == 0:
            return
        col = FeaturesCollector(len(counts), intensity_quantum=10)
        for wid, n in enumerate(counts):
            for _ in range(n):
                col.observe(req(wid, OpType.READ))
        fv = col.collect()
        assert sum(fv.proportions) == pytest.approx(1.0)


class TestFeaturesOfMix:
    def test_matches_manual_collection(self):
        writer = WorkloadSpec(name="w", write_ratio=1.0, rate_rps=1000,
                              footprint_pages=1024)
        reader = WorkloadSpec(name="r", write_ratio=0.0, rate_rps=1000,
                              footprint_pages=1024)
        mixed = mix(
            [
                generate(writer, 50, workload_id=0, seed=1),
                generate(reader, 50, workload_id=1, seed=2),
            ],
            [writer, reader],
        )
        fv = features_of_mix(mixed, intensity_quantum=10)
        assert fv.characteristics == (0, 1)
        assert fv.intensity_level == 10  # 100 requests / quantum 10
        assert fv.proportions[0] == pytest.approx(0.5)
