"""The keeper's window loop: one boundary for the paper's Algorithm 2,
every window for adaptive runs (the extension)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import (
    ChannelAllocator,
    Dataset,
    FeatureVector,
    PeriodicRun,
    SSDKeeper,
    StrategyLearner,
    StrategySpace,
)
from repro.core import features as features_mod, labeler
from repro.core.keeper import _PeriodicLoop, _WindowState
from repro.core.strategies import Strategy, StrategyKind
from repro.harness.driftlab import heuristic_allocator, lab_configs
from repro.ssd import FastLatencyModel, PageAllocMode, SSDConfig
from repro.ssd.request import IORequest, OpType
from repro.workloads import WorkloadSpec, build_scenario, synthesize_mix


def make_allocator(seed=0):
    """Learner trained so write-heavy windows pick 7:1 and read-heavy 1:7."""
    rng = np.random.default_rng(seed)
    space = StrategySpace(8, 4)
    rows, labels = [], []
    for _ in range(160):
        fv = FeatureVector(
            int(rng.integers(0, 20)),
            tuple(int(rng.integers(0, 2)) for _ in range(4)),
            tuple(rng.dirichlet(np.ones(4))),
        )
        rows.append(fv.to_array())
        labels.append(
            space.index_of(space.by_label("7:1"))
            if fv.total_write_proportion() > 0.5
            else space.index_of(space.by_label("1:7"))
        )
    ds = Dataset(features=np.vstack(rows), labels=np.array(labels), n_classes=42)
    learner = StrategyLearner(space, seed=0)
    learner.train(ds, iterations=80, seed=0)
    return ChannelAllocator(learner)


def phased_trace(cfg, per_phase=700):
    """Read-heavy first 50 ms, write-heavy afterwards."""
    read_specs = [
        WorkloadSpec(name=f"r{i}", write_ratio=0.0 if i else 1.0,
                     rate_rps=10_000 if i else 2_000, footprint_pages=4096)
        for i in range(4)
    ]
    write_specs = [
        WorkloadSpec(name=f"w{i}", write_ratio=1.0 if i else 0.0,
                     rate_rps=10_000 if i else 2_000, footprint_pages=4096)
        for i in range(4)
    ]
    phase1 = synthesize_mix(read_specs, total_requests=per_phase, seed=1)
    phase2 = synthesize_mix(write_specs, total_requests=per_phase, seed=2)
    offset = 60_000.0
    for r in phase2.requests:
        r.arrival_us += offset
    return phase1.requests + phase2.requests


class TestPeriodicAdaptation:
    @pytest.fixture(scope="class")
    def run(self):
        cfg = SSDConfig.small()
        keeper = SSDKeeper(
            make_allocator(),
            cfg,
            collect_window_us=25_000.0,
            intensity_quantum=50.0,
        )
        return keeper.run_adaptive(phased_trace(cfg))

    def test_multiple_decisions(self, run):
        assert len(run.decisions) >= 2

    def test_adapts_to_the_phase_change(self, run):
        strategies = {strategy.label for _, _, strategy in run.decisions}
        assert "1:7" in strategies and "7:1" in strategies
        # Read-heavy phase first: the first decision is the read-favouring one.
        assert run.decisions[0][2].label == "1:7"
        assert run.decisions[-1][2].label == "7:1"

    def test_all_requests_complete(self, run):
        assert run.result.requests == 1400

    def test_decision_times_are_window_aligned(self, run):
        for t, _, _ in run.decisions:
            assert t % 25_000.0 == pytest.approx(0.0, abs=1e-6)

    def test_empty_trace_rejected(self):
        cfg = SSDConfig.small()
        keeper = SSDKeeper(
            make_allocator(), cfg, collect_window_us=1000.0, intensity_quantum=1.0
        )
        with pytest.raises(ValueError, match="non-empty trace"):
            keeper.run_adaptive([])

    def test_empty_trace_rejected_one_shot(self):
        cfg = SSDConfig.small()
        keeper = SSDKeeper(
            make_allocator(), cfg, collect_window_us=1000.0, intensity_quantum=1.0
        )
        with pytest.raises(ValueError, match="non-empty trace"):
            keeper.run([])


class TestPeriodicRunEdgeCases:
    """:class:`PeriodicRun` on degenerate runs and the loop's edges."""

    def test_zero_decisions(self):
        run = PeriodicRun(result=None, decisions=[])
        assert run.strategy is None and run.features is None
        assert run.retrains == 0
        assert run.promotions == 0
        assert run.rollbacks == 0

    def test_all_same_strategy(self):
        space = StrategySpace(8, 4)
        shared = space.by_label("Shared")
        decisions = [(float(i) * 1000.0, None, shared) for i in range(5)]
        run = PeriodicRun(result=None, decisions=decisions)
        assert len(run.decisions) == 5
        assert run.strategy.label == "Shared"

    def test_strategy_and_features_are_the_last_decisions(self):
        space = StrategySpace(8, 4)
        first = FeatureVector(1, (0, 0, 1, 1), (0.25, 0.25, 0.25, 0.25))
        last = FeatureVector(2, (1, 1, 0, 0), (0.4, 0.3, 0.2, 0.1))
        run = PeriodicRun(result=None, decisions=[
            (1000.0, first, space.by_label("Shared")),
            (2000.0, last, space.by_label("7:1")),
        ])
        assert run.strategy.label == "7:1" and run.features == last

    def test_fallback_only_run_stays_on_shared(self):
        """A keeper whose network is corrupted degrades every window."""
        cfg = SSDConfig.small()
        allocator = make_allocator()
        for param in allocator.learner.network.parameters():
            param.fill(np.nan)
        keeper = SSDKeeper(
            allocator, cfg, collect_window_us=25_000.0, intensity_quantum=50.0
        )
        run = keeper.run_adaptive(phased_trace(cfg))
        assert len(run.decisions) >= 2
        assert {strategy.label for _, _, strategy in run.decisions} == {"Shared"}

    def test_realised_latency_is_populated_without_obs(self):
        """Per-window realised deltas no longer require observability."""
        cfg = SSDConfig.small()
        keeper = SSDKeeper(
            make_allocator(), cfg, collect_window_us=25_000.0,
            intensity_quantum=50.0,
        )
        run = keeper.run_adaptive(phased_trace(cfg))
        assert len(run.realised_us) == len(run.decisions)
        measured = [v for v in run.realised_us if v is not None]
        assert measured and all(v > 0 for v in measured)

    def test_tail_window_attribution_with_obs(self):
        """The final decision's realised latency is attributed after the
        simulation drains (the last window used to dangle).

        The last request arrives 10us before the final adaptation tick at
        100ms, so it completes only after that tick — exactly the dangling
        case.
        """
        from repro.obs import Observability

        cfg = SSDConfig.small()
        obs = Observability()
        keeper = SSDKeeper(
            make_allocator(), cfg, collect_window_us=25_000.0,
            intensity_quantum=50.0, obs=obs,
        )
        requests = phased_trace(cfg)
        requests.append(IORequest(99_990.0, 0, OpType.READ, lpn=0))
        run = keeper.run_adaptive(requests)
        assert run.decisions[-1][0] == 100_000.0
        assert requests[-1].complete_us > 100_000.0
        assert obs.decisions
        last = obs.decisions[-1]
        assert last.realised_mean_us is not None
        assert last.realised_mean_us > 0
        assert run.realised_us[-1] == pytest.approx(last.realised_mean_us)


class TestWindowTransitions:
    """The periodic loop's transitions, one at a time (no simulation).

    Degradation arms after three consecutive windows whose residual
    exceeds 0.5 and disarms after three healthy ones."""

    def test_degradation_needs_drift_then_consecutive_unhealthy_windows(self):
        undrifted = _WindowState()
        for _ in range(5):
            assert not undrifted.update_degradation(1.0)
        assert not undrifted.degraded
        state = _WindowState(drifted=True)
        armed = [state.update_degradation(r)
                 for r in (1.0, 1.0, 0.0, 1.0, 1.0, None)]
        assert armed == [False] * 6 and not state.degraded
        assert state.update_degradation(1.0)
        assert state.degraded

    def test_degradation_disarms_after_consecutive_healthy_windows(self):
        state = _WindowState(drifted=True, degraded=True)
        for residual in (0.0, 0.0, 1.0, 0.0, 0.0):
            state.update_degradation(residual)
        assert state.degraded
        state.update_degradation(0.0)
        assert not state.degraded and not state.drifted

    def test_promoted_retrain_disarms_and_resets_the_detector(self):
        resets = []
        loop = _PeriodicLoop(
            keeper=SimpleNamespace(obs=None, allocator=None),
            sim=SimpleNamespace(loop=SimpleNamespace(now=5.0)),
            collector=None, window_requests=[],
            detector=SimpleNamespace(reset=lambda: resets.append(True)),
            governor=SimpleNamespace(
                attempt=lambda *a, **k: SimpleNamespace(promoted=True)
            ),
            buffer=None,
            state=_WindowState(drifted=True, degraded=True, unhealthy=4),
        )
        loop.retrain(7)
        state = loop.state
        assert (state.degraded, state.drifted, state.unhealthy) == (False, False, 0)
        assert resets == [True] and loop.run.retrains == 1

    INCUMBENT = Strategy(StrategyKind.SHARED)
    CHALLENGER = Strategy(StrategyKind.ISOLATED)

    def suppresses(self, challenger_us, *, windows=2, fallback=None):
        # the last switch was window 0; gap 2 covers windows 1 and 2
        state = _WindowState(deployed=self.INCUMBENT, last_switch=0, windows=windows)
        costs = {self.INCUMBENT: 100.0, self.CHALLENGER: challenger_us}
        return state.suppresses(self.CHALLENGER, fallback, costs.__getitem__)

    def test_limiter_suppresses_a_small_win_inside_the_gap(self):
        assert self.suppresses(95.0)
        assert not self.suppresses(95.0, windows=3)  # gap elapsed

    def test_limiter_deploys_a_win_reaching_the_margin(self):
        assert not self.suppresses(90.0)

    def test_limiter_never_suppresses_a_fallback(self):
        assert not self.suppresses(200.0, fallback="unhealthy prediction: nan")


def test_one_replay_per_keeper_window(monkeypatch):
    """Every step of a keeper window scores strategies on one fast model,
    no (window, strategy) pair is simulated twice, and the label sweep
    still runs the fast model once per strategy, drawn lazily."""
    models, runs = [], []
    init, run = FastLatencyModel.__init__, FastLatencyModel.run

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        models.append(self)  # kept alive, so ids stay unique

    def counted_run(self, channel_sets, page_modes=None):
        modes = page_modes or {}
        runs.append((id(self), repr(sorted(
            (wid, sorted(set(chs)), modes.get(wid, PageAllocMode.STATIC))
            for wid, chs in channel_sets.items()
        ))))
        return run(self, channel_sets, page_modes)

    monkeypatch.setattr(FastLatencyModel, "__init__", counted_init)
    monkeypatch.setattr(FastLatencyModel, "run", counted_run)
    keeper = SSDKeeper(
        heuristic_allocator(), SSDConfig.small(),
        collect_window_us=10_000.0, intensity_quantum=50.0, verify_top_k=3,
    )
    drift, retrain = lab_configs()
    requests = build_scenario(
        "migrating_hotspot", seed=3, phases=4, phase_us=25_000.0
    ).requests
    result = keeper.run_adaptive(requests, drift=drift, retrain=retrain)
    assert result.retrains >= 1
    assert len(models) == len(result.decisions)  # windows with traffic
    assert len(runs) == len(set(runs))

    class CountingSpace(StrategySpace):
        def __iter__(self):
            for i, strategy in enumerate(super().__iter__()):
                assert len(runs) == i
                yield strategy

    cfg = labeler.LabelerConfig(window_requests_max=600)
    rng = np.random.default_rng(4)
    specs, total = labeler.random_specs(cfg, rng)
    mix = synthesize_mix(
        specs, total_requests=total, seed=int(rng.integers(0, 2**31 - 1))
    )
    fv = features_mod.features_of_mix(mix, intensity_quantum=cfg.intensity_quantum)
    runs.clear()
    space = CountingSpace(cfg.ssd.channels, cfg.n_tenants)
    assert len(labeler.sweep_strategies(mix, fv, space, cfg)) == len(runs) == len(space)
