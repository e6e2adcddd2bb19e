"""Observability threaded through the whole stack (acceptance tests).

One instrumented run must produce a consistent structured trace
(acquire/release discipline), publishable metrics, per-channel
utilization rows from its telemetry windows, and all three exports (JSONL, Chrome trace,
metrics JSON); the keeper must log its switch at exactly the simulated
time the reallocation took effect; and the disabled path must leave
simulation results bit-identical.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    ChannelAllocator,
    Dataset,
    FeatureVector,
    SSDKeeper,
    StrategyLearner,
    StrategySpace,
)
from repro.obs import Observability, SloSpec, TraceRecorder, match_pairs
from repro.ssd import SSDConfig, SSDSimulator
from repro.workloads import WorkloadSpec, synthesize_mix

from ..ssd.test_des_identity import result_doc


def mixed_trace(total=600, seed=0):
    specs = [
        WorkloadSpec(
            name=f"t{i}",
            write_ratio=1.0 if i % 2 == 0 else 0.0,
            rate_rps=5000.0,
            footprint_pages=4096,
        )
        for i in range(4)
    ]
    return synthesize_mix(specs, total_requests=total, seed=seed).requests


def shared_sets(config):
    return {w: tuple(range(config.channels)) for w in range(4)}


def trained_allocator(label=8, seed=0):
    rng = np.random.default_rng(seed)
    space = StrategySpace(8, 4)
    rows = [
        FeatureVector(
            int(rng.integers(0, 20)),
            tuple(int(rng.integers(0, 2)) for _ in range(4)),
            tuple(rng.dirichlet(np.ones(4))),
        ).to_array()
        for _ in range(80)
    ]
    ds = Dataset(
        features=np.vstack(rows), labels=np.full(80, label), n_classes=len(space)
    )
    learner = StrategyLearner(space, seed=0)
    learner.train(ds, iterations=30, seed=0)
    return ChannelAllocator(learner)


@pytest.fixture(scope="module")
def instrumented_run():
    """One fully-instrumented simulation shared by the trace assertions."""
    config = SSDConfig.small()
    obs = Observability(trace=TraceRecorder(capacity=200_000), telemetry=500.0)
    sim = SSDSimulator(
        config, shared_sets(config), record_latencies=True, obs=obs
    )
    result = sim.run(mixed_trace())
    return config, obs, result


class TestTraceDiscipline:
    def test_channel_acquire_release_pairs_match(self, instrumented_run):
        _, obs, _ = instrumented_run
        events = obs.trace.events()
        acquires = [e for e in events if e.name == "channel_acquire"]
        releases = [e for e in events if e.name == "channel_release"]
        assert acquires, "tracing recorded no channel activity"
        assert len(acquires) == len(releases)
        pairs = match_pairs(events, "channel_acquire", "channel_release")
        assert len(pairs) == len(acquires)
        for start, end in pairs:
            assert start.track == end.track
            # release happens exactly when the booked service time elapses
            assert end.ts_us == pytest.approx(start.ts_us + start.dur_us)

    def test_die_acquire_release_pairs_match(self, instrumented_run):
        _, obs, _ = instrumented_run
        events = obs.trace.events()
        pairs = match_pairs(events, "die_acquire", "die_release")
        assert len(pairs) == len(
            [e for e in events if e.name == "die_acquire"]
        )

    def test_every_request_submitted_and_dispatched(self, instrumented_run):
        _, obs, result = instrumented_run
        submits = [e for e in obs.trace.events() if e.name == "request_submit"]
        dispatches = [e for e in obs.trace.events() if e.name == "subrequest_dispatch"]
        assert len(submits) == result.requests
        assert len(dispatches) == result.subrequests

    def test_trace_not_truncated(self, instrumented_run):
        _, obs, _ = instrumented_run
        assert obs.trace.evicted == 0
        assert obs.trace.offered == len(obs.trace.events())


class TestMetricsPublication:
    def test_simulator_counters_match_result(self, instrumented_run):
        _, obs, result = instrumented_run
        snap = obs.registry.snapshot()
        assert snap["counters"]["sim.requests"] == result.requests
        assert snap["counters"]["sim.subrequests"] == result.subrequests
        assert snap["gauges"]["sim.makespan_us"] == result.makespan_us

    def test_latency_histogram_counts_every_read(self, instrumented_run):
        _, obs, result = instrumented_run
        hist = obs.registry.get("sim.read_latency_us")
        assert hist.count == result.read.count
        # bucket-estimated percentiles bracket the exact sample percentiles
        assert hist.max == pytest.approx(result.read.max_us)
        assert hist.mean == pytest.approx(result.read.mean_us)

    def test_utilization_profile_recorded(self, instrumented_run):
        config, obs, result = instrumented_run
        util = obs.export()["utilization"]
        assert len(util["times_us"]) >= 2
        assert all(len(r) == config.channels for r in util["channel_busy"])
        # some channel saw traffic in some window
        assert max(max(r) for r in util["channel_busy"]) > 0.0
        # the tail row ends at the last real event, not at a tick past it
        assert util["times_us"][-1] == result.makespan_us


class TestExports:
    def test_one_run_exports_all_three_artifacts(
        self, instrumented_run, tmp_path
    ):
        _, obs, _ = instrumented_run
        jsonl = tmp_path / "trace.jsonl"
        chrome = tmp_path / "trace.chrome.json"
        metrics = tmp_path / "metrics.json"

        assert obs.trace.write_jsonl(jsonl) == len(obs.trace.events())
        assert obs.write_chrome_trace(chrome) > 0
        metrics.write_text(json.dumps(obs.export()))

        lines = [json.loads(l) for l in jsonl.read_text().splitlines()]
        assert {e["name"] for e in lines} >= {
            "request_submit",
            "subrequest_dispatch",
            "channel_acquire",
            "channel_release",
        }
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"], "chrome trace is empty"
        exported = json.loads(metrics.read_text())
        assert exported["utilization"]["channel_busy"]
        assert "sim.read_latency_us" in exported["histograms"]


class TestDisabledPath:
    def test_obs_none_gives_identical_results(self):
        config = SSDConfig.small()
        trace = mixed_trace(total=300, seed=1)
        plain = SSDSimulator(config, shared_sets(config)).run(list(trace))
        slo = SloSpec.from_dict({
            "window_us": 250.0,
            "tenants": {"0": {"write_p95_us": 200.0}},
        })
        obs = Observability(
            trace=TraceRecorder(capacity=200_000), attribution=True,
            telemetry=250.0, slo=slo,
        )
        traced = SSDSimulator(config, shared_sets(config), obs=obs).run(
            list(trace)
        )
        assert obs.telemetry.windows and obs.export()["utilization"]["times_us"]
        assert plain.total_latency_us == traced.total_latency_us
        assert plain.requests == traced.requests
        assert plain.read.count == traced.read.count
        # the sampler's ticks are weak: the last tick never outlives the run
        assert traced.makespan_us == plain.makespan_us
        # every simulated field is equal; attribution and the SLO watchdog
        # only add their own summaries
        assert traced.breakdown is not None and traced.alerts is not None
        bare_fields = replace(traced, breakdown=None, alerts=None)
        assert result_doc(bare_fields) == result_doc(plain)

    def test_metrics_only_mode_records_no_events(self):
        config = SSDConfig.small()
        obs = Observability(trace=False)
        SSDSimulator(config, shared_sets(config), obs=obs).run(
            mixed_trace(total=100, seed=2)
        )
        assert len(obs.trace.events()) == 0
        assert obs.registry.snapshot()["counters"]["sim.requests"] == 100


class TestKeeperDecisionLogging:
    @pytest.fixture(scope="class")
    def keeper_run(self):
        obs = Observability(trace=TraceRecorder(capacity=200_000))
        keeper = SSDKeeper(
            trained_allocator(label=8),
            SSDConfig.small(),
            collect_window_us=20_000.0,
            intensity_quantum=50.0,
            obs=obs,
        )
        run = keeper.run(mixed_trace())
        return obs, run

    def test_switch_event_timestamp_matches_run(self, keeper_run):
        obs, run = keeper_run
        assert run.strategy is not None
        switches = [e for e in obs.trace.events() if e.name == "keeper_switch"]
        assert len(switches) == 1
        assert switches[0].ts_us == run.switched_at_us
        assert switches[0].args["strategy"] == run.strategy.label

    def test_decision_record_carries_features_and_latencies(self, keeper_run):
        obs, run = keeper_run
        assert len(obs.decisions) == 1
        decision = obs.decisions[0]
        assert decision.strategy == run.strategy.label
        assert decision.time_us == run.switched_at_us
        assert decision.window_requests > 0
        assert decision.predicted_mean_us > 0
        assert decision.realised_mean_us == pytest.approx(
            run.result.mean_total_us
        )
        doc = decision.to_dict()
        assert len(doc["features"]) == 9

    def test_switch_counter_published(self, keeper_run):
        obs, _ = keeper_run
        assert obs.registry.snapshot()["counters"]["keeper.switches"] == 1


class TestTrainingInstrumentation:
    def test_trainer_publishes_epoch_series(self):
        from repro.nn.network import MLP
        from repro.nn.training import Trainer

        rng = np.random.default_rng(0)
        x = rng.normal(size=(48, 4))
        y = (x.sum(axis=1) > 0).astype(int)
        obs = Observability(trace=False)
        net = MLP([4, 8, 2], seed=0)
        history = Trainer(net, "adam", batch_size=16, seed=0, obs=obs).fit(
            x, y, iterations=5, x_test=x, y_test=y,
        )
        snap = obs.registry.snapshot()
        assert snap["counters"]["train.epochs"] == history.iterations
        assert snap["series"]["train.loss"]["values"] == history.loss
        assert (
            snap["series"]["train.test_accuracy"]["values"]
            == history.test_accuracy
        )
        assert len(snap["series"]["train.lr"]["values"]) == history.iterations
        assert snap["gauges"]["train.time_ms"] == history.training_time_ms
