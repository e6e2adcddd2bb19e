"""Replay buffer + guarded retraining (promote-or-rollback semantics)."""

import numpy as np
import pytest

from repro.core import (
    FeaturesCollector,
    ReplayBuffer,
    ReplayWindow,
    RetrainConfig,
    RetrainEvent,
    RetrainGovernor,
    WindowReplay,
)
from repro.harness.driftlab import heuristic_allocator
from repro.ssd import SSDConfig
from repro.ssd.fastmodel import FastLatencyModel
from repro.workloads import WorkloadSpec, synthesize_mix


def make_window(index, write_heavy, *, requests_per_window=60):
    """One replay window: a small seeded mix plus its observed features."""
    ratio = 0.9 if write_heavy else 0.1
    specs = [
        WorkloadSpec(name=f"t{i}", write_ratio=ratio, rate_rps=3000.0,
                     footprint_pages=2048)
        for i in range(4)
    ]
    mixed = synthesize_mix(specs, total_requests=requests_per_window,
                          seed=1000 + index)
    collector = FeaturesCollector(4, intensity_quantum=50.0)
    for req in mixed.requests:
        collector.observe(req)
    features = collector.collect()
    return ReplayWindow(
        time_us=float(index) * 10_000.0,
        features=features,
        deployed="Shared",
        realised_mean_us=150.0,
        replay=WindowReplay(mixed.requests, features, SSDConfig.small()),
    )


def fill_buffer(n, *, write_heavy=True, capacity=32):
    buffer = ReplayBuffer(capacity)
    for i in range(n):
        buffer.add(make_window(i, write_heavy))
    return buffer


class TestReplayBuffer:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReplayBuffer(1)

    def test_fifo_eviction(self):
        buffer = ReplayBuffer(3)
        for i in range(5):
            buffer.add(make_window(i, True, requests_per_window=5))
        assert len(buffer) == 3
        assert [w.time_us for w in buffer.windows] == [
            20_000.0, 30_000.0, 40_000.0
        ]

    def test_split_sends_newest_to_holdback(self):
        buffer = fill_buffer(6)
        train, holdback = buffer.split(2)
        assert len(train) == 4 and len(holdback) == 2
        assert holdback[-1].time_us == max(w.time_us for w in buffer.windows)

    def test_split_clamps_holdback(self):
        buffer = fill_buffer(2)
        train, holdback = buffer.split(10)
        assert len(train) == 1 and len(holdback) == 1

    def test_split_empty_buffer(self):
        buffer = ReplayBuffer(4)
        train, holdback = buffer.split(2)
        assert train == [] and holdback == []


class TestRetrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"capacity": 1},
        {"holdback": 0},
        {"min_train_windows": 0},
        {"iterations": 0},
        {"interval_windows": 0},
        {"min_gap_windows": -1},
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetrainConfig(**kwargs)

    def test_event_round_trip(self):
        event = RetrainEvent(
            time_us=1.0, window_index=3, train_windows=5, holdback_windows=2,
            candidate_cost_us=10.0, incumbent_cost_us=12.0,
            outcome="promoted", reason="better",
        )
        assert event.promoted
        assert event.to_dict()["outcome"] == "promoted"
        rolled = RetrainEvent(
            time_us=1.0, window_index=3, train_windows=5, holdback_windows=2,
            candidate_cost_us=None, incumbent_cost_us=None,
            outcome="rolled-back", reason="unhealthy",
        )
        assert not rolled.promoted


class TestGovernorDue:
    def make(self, **kwargs):
        return RetrainGovernor(RetrainConfig(**kwargs))

    def test_drift_triggers(self):
        governor = self.make()
        assert governor.due(0, True)
        assert not governor.due(0, False)

    def test_interval_triggers_without_drift(self):
        governor = self.make(interval_windows=3, min_gap_windows=0)
        fired = [w for w in range(9) if governor.due(w, False)]
        assert fired == [2, 5, 8]

    def test_min_gap_suppresses(self):
        governor = self.make(min_gap_windows=3)
        governor._last_attempt_window = 4
        assert not governor.due(5, True)
        assert not governor.due(6, True)
        assert governor.due(7, True)


class TestGovernorAttempt:
    def attempt(self, buffer, allocator, **kwargs):
        kwargs.setdefault("min_train_windows", 3)
        kwargs.setdefault("holdback", 2)
        kwargs.setdefault("iterations", 10)
        governor = RetrainGovernor(RetrainConfig(**kwargs))
        return governor.attempt(
            allocator, buffer, time_us=99_000.0, window_index=9
        )

    def test_too_little_data_returns_none(self):
        allocator = heuristic_allocator()
        assert self.attempt(fill_buffer(2), allocator) is None

    def test_short_data_does_not_burn_the_gap(self):
        governor = RetrainGovernor(
            RetrainConfig(min_train_windows=3, holdback=2, min_gap_windows=5),
        )
        allocator = heuristic_allocator()
        assert governor.attempt(
            allocator, fill_buffer(2), time_us=0.0, window_index=0
        ) is None
        assert governor.due(1, True)  # a failed-for-data attempt is free

    def test_promotion_swaps_the_live_model(self):
        allocator = heuristic_allocator()
        incumbent = allocator.learner
        event = self.attempt(fill_buffer(8), allocator)
        assert event is not None and event.promoted
        assert allocator.learner is not incumbent

    def test_poisoned_candidate_is_rolled_back_untouched(self):
        allocator = heuristic_allocator()
        incumbent = allocator.learner
        probe = make_window(99, True).features
        before = allocator.learner.predict_index(probe)
        event = self.attempt(fill_buffer(8), allocator, poison=True)
        assert event is not None
        assert event.outcome == "rolled-back"
        assert "unhealthy" in event.reason
        assert event.candidate_cost_us is None
        assert allocator.learner is incumbent  # live model untouched
        assert allocator.learner.predict_index(probe) == before
        assert np.all(np.isfinite(allocator.learner.network.parameters()[0]))

    def test_rollback_on_worse_holdback_cost(self):
        """A candidate taught each training window's costliest strategy
        loses on the held-back windows and is rolled back."""
        buffer = fill_buffer(8)
        allocator = heuristic_allocator()
        incumbent = allocator.learner
        train_windows, _ = buffer.split(2)
        costs_us = [train_windows[0].replay.cost_us(s) for s in allocator.space]
        for window in train_windows:
            window.label = int(np.argmax(costs_us))
        event = self.attempt(buffer, allocator)
        assert not event.promoted
        assert event.candidate_cost_us > event.incumbent_cost_us
        assert event.reason.startswith("held-back cost")
        assert allocator.learner is incumbent  # live model untouched

    def test_attempt_is_deterministic(self):
        outcomes = []
        for _ in range(2):
            allocator = heuristic_allocator()
            event = self.attempt(fill_buffer(8), allocator)
            assert event is not None
            outcomes.append(event.to_dict())
        assert outcomes[0] == outcomes[1]

    def test_bounded_labels_pin_the_fast_model_work(self, monkeypatch):
        """One attempt's fast-model runs and group passes are pinned.  The
        full 42-strategy label sweep took 254 runs and 164 group passes on
        this attempt; bounded labels must stay below both."""
        counts = {"runs": 0, "passes": 0}
        run, group_ends = FastLatencyModel.run, FastLatencyModel._group_ends

        def counted_run(self, *args, **kwargs):
            counts["runs"] += 1
            return run(self, *args, **kwargs)

        def counted_group_ends(self, group):
            counts["passes"] += 1
            return group_ends(self, group)

        buffer, allocator = fill_buffer(8), heuristic_allocator()
        monkeypatch.setattr(FastLatencyModel, "run", counted_run)
        monkeypatch.setattr(FastLatencyModel, "_group_ends", counted_group_ends)
        assert self.attempt(buffer, allocator) is not None
        assert counts == {"runs": 67, "passes": 110}
        assert counts["runs"] < 254 and counts["passes"] < 164

    def test_labels_are_memoised(self):
        buffer = fill_buffer(8)
        allocator = heuristic_allocator()
        self.attempt(buffer, allocator)
        labelled = [w for w in buffer.windows if w.label is not None]
        assert labelled  # training windows got labelled by the sweep
        for window in labelled:
            assert 0 <= window.label < len(allocator.space)


class TestLearnerClone:
    def test_clone_is_independent(self):
        allocator = heuristic_allocator()
        clone = allocator.learner.clone()
        probe = make_window(7, False).features
        assert clone.predict_index(probe) == allocator.learner.predict_index(probe)
        for param in clone.network.parameters():
            param.fill(0.0)
        # mutating the clone leaves the original intact
        assert any(
            np.any(p != 0.0) for p in allocator.learner.network.parameters()
        )

    def test_untrained_learner_refuses_to_clone(self):
        from repro.core import StrategyLearner, StrategySpace

        with pytest.raises(RuntimeError):
            StrategyLearner(StrategySpace(8, 4)).clone()

    def test_adopt_rejects_shape_mismatch(self):
        from repro.core import ChannelAllocator, StrategyLearner, StrategySpace

        allocator = heuristic_allocator()
        other = StrategyLearner(StrategySpace(4, 2))
        other._trained = True
        with pytest.raises(ValueError):
            allocator.adopt(other)
