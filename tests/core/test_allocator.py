"""Channel allocator: inference and the Section IV-D overhead model."""

import numpy as np
import pytest

from repro.core import ChannelAllocator, Dataset, FeatureVector, StrategyLearner, StrategySpace


@pytest.fixture
def trained_learner(rng):
    space = StrategySpace(8, 4)
    rows = []
    labels = []
    for _ in range(120):
        fv = FeatureVector(
            int(rng.integers(0, 20)),
            tuple(int(rng.integers(0, 2)) for _ in range(4)),
            tuple(rng.dirichlet(np.ones(4))),
        )
        rows.append(fv.to_array())
        labels.append(0 if fv.intensity_level < 10 else 1)
    ds = Dataset(features=np.vstack(rows), labels=np.array(labels), n_classes=42)
    learner = StrategyLearner(space, seed=0)
    learner.train(ds, iterations=40, seed=0)
    return learner


class TestAllocation:
    def test_allocate_returns_strategy_and_logs(self, trained_learner):
        allocator = ChannelAllocator(trained_learner)
        fv = FeatureVector(5, (0, 1, 0, 1), (0.25, 0.25, 0.25, 0.25))
        strategy = allocator.allocate(fv)
        assert strategy in list(trained_learner.space)
        assert allocator.decisions == [(fv, strategy)]

    def test_channel_sets_cover_all_tenants(self, trained_learner):
        allocator = ChannelAllocator(trained_learner)
        fv = FeatureVector(15, (0, 0, 1, 1), (0.4, 0.2, 0.2, 0.2))
        sets = allocator.channel_sets(fv)
        assert set(sets) == {0, 1, 2, 3}
        for chans in sets.values():
            assert chans

    def test_rejects_tenant_count_mismatch(self, trained_learner):
        allocator = ChannelAllocator(trained_learner)
        with pytest.raises(ValueError):
            allocator.allocate(FeatureVector(5, (0, 1), (0.5, 0.5)))


class TestOverheadModel:
    def test_paper_numbers_for_9_64_42(self, trained_learner):
        """Section IV-D: 16 B/neuron storage; sum(N_i*N_{i+1}) multiplies."""
        report = ChannelAllocator(trained_learner).overhead_report()
        assert report.layer_sizes == (9, 64, 42)
        assert report.storage_bytes == 1696
        assert report.multiplies_per_inference == 3264

    def test_overhead_is_negligible_for_an_ssd_controller(self, trained_learner):
        """The paper's conclusion: the allocator fits trivially in an FTL."""
        report = ChannelAllocator(trained_learner).overhead_report()
        assert report.storage_bytes < 64 * 1024       # << controller SRAM
        assert report.multiplies_per_inference < 10_000

    def test_str(self, trained_learner):
        text = str(ChannelAllocator(trained_learner).overhead_report())
        assert "1696 B" in text
