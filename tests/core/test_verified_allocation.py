"""Verified allocation: top-k replay rescues bad argmax picks."""

import numpy as np
import pytest

from repro.core import (
    ChannelAllocator,
    Dataset,
    FeatureVector,
    SSDKeeper,
    StrategyLearner,
    StrategySpace,
    WindowReplay,
    verified_allocate,
)
from repro.ssd import SSDConfig
from repro.workloads import WorkloadSpec, synthesize_mix


def biased_allocator(bad_label: str, good_label: str) -> ChannelAllocator:
    """A learner whose argmax is always ``bad_label``; ``good_label`` is the
    runner-up, so verification can rescue the decision from its top-2."""
    space = StrategySpace(8, 4)
    rng = np.random.default_rng(0)
    rows = []
    labels = []
    bad = space.index_of(space.by_label(bad_label))
    good = space.index_of(space.by_label(good_label))
    for i in range(160):
        fv = FeatureVector(
            int(rng.integers(0, 20)),
            tuple(int(rng.integers(0, 2)) for _ in range(4)),
            tuple(rng.dirichlet(np.ones(4))),
        )
        rows.append(fv.to_array())
        labels.append(bad if i % 5 else good)  # bad dominates, good is 2nd
    ds = Dataset(features=np.vstack(rows), labels=np.array(labels), n_classes=42)
    learner = StrategyLearner(space, seed=0)
    learner.train(ds, iterations=60, seed=0)
    return ChannelAllocator(learner)


def read_heavy_window(cfg, total=900):
    """A mix whose reads are crushed by confining writes wrongly: heavy
    writers + heavy readers, where the bad strategy starves one side."""
    specs = [
        WorkloadSpec(name=f"t{i}", write_ratio=1.0 if i < 2 else 0.0,
                     rate_rps=12_000, footprint_pages=4096)
        for i in range(4)
    ]
    return synthesize_mix(specs, total_requests=total, seed=9).requests


class TestTopK:
    def test_top_k_order_and_size(self):
        allocator = biased_allocator("1:7", "Shared")
        fv = FeatureVector(10, (0, 0, 1, 1), (0.5, 0.2, 0.2, 0.1))
        top = allocator.top_k(fv, 3)
        assert len(top) == 3
        assert top[0].label == "1:7"  # the biased argmax
        labels = [s.label for s in top]
        assert "Shared" in labels     # runner-up present

    def test_top_k_validation(self):
        allocator = biased_allocator("1:7", "Shared")
        fv = FeatureVector(10, (0, 0, 1, 1), (0.5, 0.2, 0.2, 0.1))
        with pytest.raises(ValueError):
            allocator.top_k(fv, 0)

    def test_top_k_clamped_to_space(self):
        allocator = biased_allocator("1:7", "Shared")
        fv = FeatureVector(10, (0, 0, 1, 1), (0.5, 0.2, 0.2, 0.1))
        assert len(allocator.top_k(fv, 999)) == 42


class TestVerifiedAllocate:
    def test_rescues_catastrophic_argmax(self):
        """The biased model says 1:7 (1 channel for two heavy writers —
        catastrophic); replaying the window must reject it."""
        config = SSDConfig.small()
        allocator = biased_allocator("1:7", "Shared")
        window = read_heavy_window(config)
        fv = FeatureVector(15, (0, 0, 1, 1), (0.25, 0.25, 0.25, 0.25))
        assert allocator.allocate(fv).label == "1:7"  # unverified pick
        verified = verified_allocate(
            allocator, fv, WindowReplay(window, fv, config), top_k=3
        )
        assert verified.label != "1:7"

    def test_empty_window_falls_back_to_argmax(self):
        config = SSDConfig.small()
        allocator = biased_allocator("1:7", "Shared")
        fv = FeatureVector(15, (0, 0, 1, 1), (0.25, 0.25, 0.25, 0.25))
        assert verified_allocate(allocator, fv, WindowReplay([], fv, config)).label == "1:7"

    def test_decision_logged(self):
        config = SSDConfig.small()
        allocator = biased_allocator("1:7", "Shared")
        window = read_heavy_window(config, total=300)
        fv = FeatureVector(15, (0, 0, 1, 1), (0.25, 0.25, 0.25, 0.25))
        n_before = len(allocator.decisions)
        verified_allocate(allocator, fv, WindowReplay(window, fv, config), top_k=2)
        assert len(allocator.decisions) == n_before + 1


class TestKeeperIntegration:
    def test_keeper_with_verification_avoids_bad_switch(self):
        config = SSDConfig.small()
        allocator = biased_allocator("1:7", "Shared")
        keeper = SSDKeeper(
            allocator,
            config,
            collect_window_us=25_000.0,
            intensity_quantum=50.0,
            verify_top_k=3,
        )
        run = keeper.run(list(read_heavy_window(config, total=1200)))
        assert run.strategy is not None
        assert run.strategy.label != "1:7"

    def test_keeper_validation(self):
        config = SSDConfig.small()
        allocator = biased_allocator("1:7", "Shared")
        with pytest.raises(ValueError):
            SSDKeeper(
                allocator, config,
                collect_window_us=1000.0, intensity_quantum=1.0,
                verify_top_k=-1,
            )
