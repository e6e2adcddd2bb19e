"""SSDKeeper: the Algorithm-2 online workflow."""

import numpy as np
import pytest

from repro.core import (
    ChannelAllocator,
    Dataset,
    FeatureVector,
    PagePolicy,
    SSDKeeper,
    StrategyLearner,
    StrategySpace,
)
from repro.ssd import SSDConfig
from repro.ssd.metrics import SimulationResult
from repro.workloads import WorkloadSpec, synthesize_mix


def make_allocator(label: int = 8, seed: int = 0) -> ChannelAllocator:
    """An allocator trained to (almost) always answer strategy ``label``."""
    rng = np.random.default_rng(seed)
    space = StrategySpace(8, 4)
    rows = []
    for _ in range(80):
        fv = FeatureVector(
            int(rng.integers(0, 20)),
            tuple(int(rng.integers(0, 2)) for _ in range(4)),
            tuple(rng.dirichlet(np.ones(4))),
        )
        rows.append(fv.to_array())
    ds = Dataset(
        features=np.vstack(rows),
        labels=np.full(80, label),
        n_classes=len(space),
    )
    learner = StrategyLearner(space, seed=0)
    learner.train(ds, iterations=30, seed=0)
    return ChannelAllocator(learner)


def four_tenant_mix(total=600, seed=0):
    specs = [
        WorkloadSpec(name=f"t{i}", write_ratio=1.0 if i % 2 == 0 else 0.0,
                     rate_rps=5000.0, footprint_pages=4096)
        for i in range(4)
    ]
    return synthesize_mix(specs, total_requests=total, seed=seed)


@pytest.fixture
def config():
    return SSDConfig.small()


class TestKeeperRun:
    def test_switches_at_window_end(self, config):
        keeper = SSDKeeper(
            make_allocator(label=8),  # 5:1:1:1
            config,
            collect_window_us=20_000.0,
            intensity_quantum=50.0,
        )
        run = keeper.run(four_tenant_mix().requests)
        assert run.strategy is not None
        assert run.strategy.label == "5:1:1:1"
        assert [t for t, _, _ in run.decisions] == [20_000.0]
        assert run.features is not None
        assert run.result.requests == 600

    def test_features_reflect_collection_window_only(self, config):
        keeper = SSDKeeper(
            make_allocator(),
            config,
            collect_window_us=10_000.0,
            intensity_quantum=10.0,
        )
        mixed = four_tenant_mix()
        run = keeper.run(mixed.requests)
        in_window = sum(1 for r in mixed.requests if r.arrival_us < 10_000.0)
        observed = int(run.features.intensity_level)  # level = count/quantum capped
        assert observed == min(in_window // 10, 19)

    def test_no_switch_when_window_has_no_requests(self, config):
        keeper = SSDKeeper(
            make_allocator(),
            config,
            collect_window_us=0.001,  # closes before the first arrival
            intensity_quantum=10.0,
        )
        run = keeper.run(four_tenant_mix().requests)
        assert run.strategy is None
        assert run.features is None
        assert run.result.requests == 600

    def test_hybrid_modes_applied_after_switch(self, config):
        keeper = SSDKeeper(
            make_allocator(label=0),  # Shared
            config,
            collect_window_us=15_000.0,
            intensity_quantum=50.0,
            page_policy=PagePolicy.HYBRID,
        )
        run = keeper.run(four_tenant_mix().requests)
        assert run.strategy is not None
        # one Algorithm-2 cycle: the switch lands when the window closes
        assert [t for t, _, _ in run.decisions] == [15_000.0]

    def test_record_latencies_flows_through(self, config):
        keeper = SSDKeeper(
            make_allocator(),
            config,
            collect_window_us=10_000.0,
            intensity_quantum=10.0,
            record_latencies=True,
        )
        run = keeper.run(four_tenant_mix(total=100).requests)
        assert run.result.read.samples is not None or run.result.write.samples is not None


    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_window_past_the_trace_is_a_shared_baseline(self, seed):
        """A one-shot keeper whose window ends after the last arrival (and
        before the device drains) simulates the trace on Shared, exactly
        as ``baseline_run`` does."""
        from repro.harness.driftlab import heuristic_allocator
        from repro.workloads.adversarial import build_scenario

        requests = build_scenario(
            "migrating_hotspot", seed=seed, phases=4, phase_us=25_000.0
        ).requests
        keeper = SSDKeeper(
            heuristic_allocator(), SSDConfig.small(),
            collect_window_us=max(r.arrival_us for r in requests) + 1.0,
            intensity_quantum=50.0, record_latencies=True,
        )
        run = keeper.run(requests)
        assert run.strategy is not None
        assert run.result.makespan_us > keeper.collect_window_us
        base = keeper.baseline_run(requests, keeper.allocator.space.shared, run.features)
        for name in SimulationResult.__dataclass_fields__:
            if name != "events":
                assert repr(getattr(run.result, name)) == repr(getattr(base, name)), name


class TestBaselineRun:
    def test_fixed_strategy_run(self, config):
        allocator = make_allocator()
        keeper = SSDKeeper(
            allocator,
            config,
            collect_window_us=10_000.0,
            intensity_quantum=10.0,
        )
        mixed = four_tenant_mix(total=300)
        fv = FeatureVector(5, (0, 1, 0, 1), (0.25, 0.25, 0.25, 0.25))
        result = keeper.baseline_run(mixed.requests, allocator.space.shared, fv)
        assert result.requests == 300


class TestValidation:
    def test_rejects_bad_window(self, config):
        with pytest.raises(ValueError):
            SSDKeeper(
                make_allocator(), config, collect_window_us=0.0, intensity_quantum=1.0
            )

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ValueError):
            SSDKeeper(
                make_allocator(),
                SSDConfig.small().replace(channels=4),
                collect_window_us=1.0,
                intensity_quantum=1.0,
            )
