"""Fault injection end to end: determinism, retirement safety, degradation.

The three acceptance properties of the fault subsystem:

* a fixed fault seed makes two runs byte-identical;
* blocks retired by program/erase failures never re-enter allocation or GC,
  and the capacity books stay balanced;
* the keeper degrades gracefully — an unhealthy model or a failing channel
  produces exactly one logged ``keeper_fallback`` to a valid strategy
  instead of a crash or a garbage allocation.
"""

import numpy as np
import pytest

from repro.analysis import Sanitizer
from repro.core import (
    ChannelAllocator,
    Dataset,
    FeatureVector,
    SSDKeeper,
    StrategyLearner,
    StrategySpace,
)
from repro.core.strategies import StrategyKind
from repro.obs import Observability
from repro.ssd import FaultConfig, SSDConfig, SSDSimulator
from repro.workloads import WorkloadSpec, synthesize_mix


def mixed_requests(
    total=800, seed=3, write_ratio_even=0.9, write_ratio_odd=0.1, footprint=2048
):
    specs = [
        WorkloadSpec(
            name=f"t{i}",
            write_ratio=write_ratio_even if i % 2 == 0 else write_ratio_odd,
            rate_rps=5000.0,
            footprint_pages=footprint,
        )
        for i in range(4)
    ]
    return synthesize_mix(specs, total_requests=total, seed=seed).requests


def shared_sets(config):
    return {wid: list(range(config.channels)) for wid in range(4)}


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
        features=np.vstack(rows), labels=np.full(80, label), n_classes=len(space)
    )
    learner = StrategyLearner(space, seed=0)
    learner.train(ds, iterations=30, seed=0)
    return ChannelAllocator(learner)


FAULTS = FaultConfig(
    seed=99,
    read_ber=0.05,
    program_fail_rate=0.003,
    erase_fail_rate=0.2,
    wear_coupling=0.1,
    max_read_retries=2,
)


class TestDeterminism:
    def _run(self, config):
        sim = SSDSimulator(
            config, shared_sets(config), record_latencies=True, faults=FAULTS
        )
        return sim.run(mixed_requests())

    def test_same_seed_byte_identical_summary(self, small_config):
        a = self._run(small_config)
        b = self._run(small_config)
        assert a.summary() == b.summary()
        assert "faults[" in a.summary()
        assert a.extras["faults"] == b.extras["faults"]
        assert a.read.samples == b.read.samples

    def test_different_seed_diverges(self, small_config):
        a = self._run(small_config)
        sim = SSDSimulator(
            small_config,
            shared_sets(small_config),
            record_latencies=True,
            faults=FaultConfig(
                seed=100,
                read_ber=FAULTS.read_ber,
                program_fail_rate=FAULTS.program_fail_rate,
                erase_fail_rate=FAULTS.erase_fail_rate,
                wear_coupling=FAULTS.wear_coupling,
                max_read_retries=FAULTS.max_read_retries,
            ),
        )
        b = sim.run(mixed_requests())
        assert a.extras["faults"] != b.extras["faults"]

    def test_zero_rate_config_matches_disabled(self, small_config):
        """An attached but all-zero fault model must not perturb timing."""
        with_off = SSDSimulator(
            small_config, shared_sets(small_config), faults=FaultConfig()
        ).run(mixed_requests())
        without = SSDSimulator(small_config, shared_sets(small_config)).run(
            mixed_requests()
        )
        assert with_off.total_latency_us == without.total_latency_us
        assert with_off.makespan_us == without.makespan_us
        assert with_off.failed_reads == 0


class TestRetirementUnderLoad:
    @pytest.fixture()
    def stressed(self):
        """A GC-heavy run under aggressive failure rates.

        Small planes with plenty of spare blocks: retirement concentrates in
        whichever plane loses a block first (it hits the GC threshold first,
        so the erase failures land there too), and the spares are what let
        the device absorb that spiral instead of running out of space.
        """
        config = SSDConfig(
            channels=8,
            chips_per_channel=2,
            dies_per_chip=1,
            planes_per_die=2,
            blocks_per_plane=16,
            pages_per_block=8,
        )
        sim = SSDSimulator(
            config,
            shared_sets(config),
            faults=FaultConfig(
                seed=7,
                read_ber=0.02,
                program_fail_rate=0.002,
                erase_fail_rate=0.08,
                wear_coupling=0.05,
            ),
        )
        result = sim.run(
            mixed_requests(total=3600, write_ratio_odd=0.6, footprint=300)
        )
        return sim, result

    def test_faults_actually_fired(self, stressed):
        sim, result = stressed
        assert sim.faults.retired_blocks > 0
        assert sim.faults.program_failures > 0
        assert sim.faults.erase_failures > 0  # GC-path retirement exercised
        assert sim.controller.gc.collections > 0
        assert result.extras["faults"]["retired_blocks"] == sim.faults.retired_blocks

    def test_bad_blocks_never_free_sealed_or_active(self, stressed):
        sim, _ = stressed
        for plane in sim.controller.state.planes:
            Sanitizer().check_plane(plane)  # includes bad ∉ sealed/free/active

    def test_capacity_books_balance(self, stressed):
        sim, _ = stressed
        state = sim.controller.state
        ppb = state.config.pages_per_block
        assert state.retired_blocks() == sim.faults.retired_blocks
        assert sim.faults.lost_pages == sim.faults.retired_blocks * ppb
        assert (
            sum(p.retired_pages for p in state.planes) == sim.faults.lost_pages
        )
        assert (
            state.usable_pages()
            == state.config.total_pages - sim.faults.lost_pages
        )

    def test_gc_victims_exclude_retired_blocks(self, stressed):
        sim, _ = stressed
        gc = sim.controller.gc
        for plane in sim.controller.state.planes:
            victim = gc.pick_victim(plane)
            if victim is not None:
                assert victim not in plane.bad_blocks

    def test_data_survives_retirement(self, stressed):
        """Every LPN the trace wrote still resolves through the mapping."""
        sim, result = stressed
        assert sim.controller.mapped_pages() > 0
        assert result.requests == 3600


class TestFailedReads:
    def test_unrecoverable_reads_surface_not_crash(self, small_config):
        sim = SSDSimulator(
            small_config,
            shared_sets(small_config),
            record_latencies=True,
            faults=FaultConfig(seed=11, read_ber=0.9, max_read_retries=1),
        )
        result = sim.run(mixed_requests(write_ratio_even=0.1))
        assert result.failed_reads > 0
        assert result.failed_reads <= sim.faults.unrecoverable_reads
        # Failed requests are counted but excluded from latency stats.
        assert result.requests == 800
        assert result.read.count + result.write.count + result.failed_reads == 800
        assert "failed reads" in result.summary()


class TestKeeperDegradation:
    WINDOW_US = 20_000.0

    def _keeper(self, allocator, config, **kwargs):
        return SSDKeeper(
            allocator,
            config,
            collect_window_us=self.WINDOW_US,
            intensity_quantum=50.0,
            **kwargs,
        )

    def test_nan_prediction_triggers_exactly_one_fallback(self, small_config):
        allocator = make_allocator()
        # Botched deployment: first-layer weights are NaN.
        allocator.learner.network.layers[0].weight[:] = np.nan
        obs = Observability()
        keeper = self._keeper(allocator, small_config, obs=obs)
        run = keeper.run(mixed_requests())
        assert run.strategy is not None
        assert run.fallback_reason is not None
        assert "unhealthy prediction" in run.fallback_reason
        assert run.strategy.kind is StrategyKind.SHARED
        assert obs.registry.counter("keeper.fallbacks").value == 1
        assert len([e for e in obs.trace.events() if e.name == "keeper_fallback"]) == 1
        assert obs.decisions[-1].fallback_reason == run.fallback_reason

    def test_healthy_model_does_not_fall_back(self, small_config):
        obs = Observability()
        keeper = self._keeper(make_allocator(), small_config, obs=obs)
        run = keeper.run(mixed_requests())
        assert run.strategy is not None
        assert run.fallback_reason is None
        assert obs.registry.counter("keeper.fallbacks").value == 0
        assert not [e for e in obs.trace.events() if e.name == "keeper_fallback"]

    def test_failing_channel_triggers_fallback(self, small_config):
        obs = Observability()
        keeper = self._keeper(
            make_allocator(),
            small_config,
            obs=obs,
            faults=FaultConfig(seed=13, read_ber=0.9, max_read_retries=2),
        )
        run = keeper.run(mixed_requests(write_ratio_even=0.2))
        assert run.strategy is not None
        assert run.fallback_reason is not None
        assert "error rate" in run.fallback_reason
        assert run.strategy.kind is StrategyKind.SHARED
        assert len([e for e in obs.trace.events() if e.name == "keeper_fallback"]) == 1

    def test_periodic_fallback_uses_last_known_good(self, small_config):
        """After one healthy window, degraded windows redeploy its strategy."""
        allocator = make_allocator(label=8)
        obs = Observability()
        keeper = self._keeper(allocator, small_config, obs=obs)
        original = allocator.prediction_health
        calls = {"n": 0}

        def health(features):
            calls["n"] += 1
            if calls["n"] > 1:  # healthy first window, degraded after
                return "non-finite network output"
            return original(features)

        allocator.prediction_health = health
        run = keeper.run_periodic(mixed_requests(total=1600))
        assert run.switches >= 2
        first = run.decisions[0][2]
        assert first.kind is not StrategyKind.SHARED  # the model really chose
        for _, _, strategy in run.decisions[1:]:
            assert strategy.label == first.label  # last known good, not Shared
        fallbacks = [d for d in obs.decisions if d.fallback_reason]
        assert len(fallbacks) == len(run.decisions) - 1
