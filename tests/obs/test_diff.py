"""Differential forensics: report schema, comparators, run diff."""

import copy
import json

import pytest

from repro.harness.bench import SCENARIOS, SCHEMA_VERSION, diff_bench_docs
from repro.obs.critpath import CRITPATH_SCHEMA_VERSION
from repro.obs.diff import (
    DIFF_SCHEMA_VERSION,
    DiffError,
    build_diff_report,
    diff_critpath_docs,
    diff_run,
    diff_traces,
    load_diff,
    phase_waterfall,
    write_diff,
)


# ----------------------------------------------------------------------
# Artifact factories
# ----------------------------------------------------------------------
def make_bench_doc(read_us=100.0, wall_s=0.5, rps=1000.0, *, quick=True,
                   phases=None, scenario="mix2_shared"):
    entry = {
        "kind": "simulator",
        "requests": 600,
        "metrics": {
            "wall_s": wall_s,
            "requests_per_s": rps,
            "sim_mean_read_us": read_us,
        },
    }
    if phases is not None:
        entry["attribution"] = {"phase_totals_us": dict(phases)}
    return {
        "schema_version": SCHEMA_VERSION,
        "created": "2026-01-01T00:00:00Z",
        "quick": quick,
        "repeat": 1,
        "python": "3.11.0",
        "platform": "test-host",
        "scenarios": {scenario: entry},
    }


def make_critpath(resources, *, makespan_us=100.0, host=0.0, internal=0.0,
                  residual=0.0):
    ranked = sorted(resources, key=lambda n: -sum(resources[n].values()))
    return {
        "schema_version": CRITPATH_SCHEMA_VERSION,
        "makespan_us": makespan_us,
        "critical_requests": 1,
        "host_gap_us": host,
        "internal_tail_us": internal,
        "residual_us": residual,
        "resources": {name: dict(row) for name, row in resources.items()},
        "phase_totals_us": {},
        "ranked": [
            {"resource": name, "total_us": sum(resources[name].values())}
            for name in ranked
        ],
        "steps": [],
    }


def ev(ts_us, name, track="", dur_us=None, args=None):
    return {"ts_us": ts_us, "name": name, "track": track, "cat": "sim",
            "dur_us": dur_us, "args": args or {}}


# ----------------------------------------------------------------------
# Report document plumbing
# ----------------------------------------------------------------------
class TestReportSchema:
    def section(self, *, identical=True, divergences=0, regressions=0):
        return {"identical": identical, "divergences": divergences,
                "regressions": regressions}

    def test_build_and_load_round_trip(self):
        report = build_diff_report("trace", "a", "b", {"trace": self.section()})
        loaded = load_diff(report)
        assert loaded["schema_version"] == DIFF_SCHEMA_VERSION
        assert loaded["identical"] is True

    def test_rollups_aggregate_over_sections(self):
        report = build_diff_report("run", "a", "b", {
            "metrics": self.section(identical=False, divergences=2,
                                    regressions=1),
            "trace": self.section(identical=True),
        })
        assert report["identical"] is False
        assert report["divergences"] == 2
        assert report["regressions"] == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown diff kind"):
            build_diff_report("nonsense", "a", "b", {"x": self.section()})

    def test_empty_sections_rejected(self):
        with pytest.raises(ValueError, match="at least one section"):
            build_diff_report("run", "a", "b", {})

    def test_loader_rejects_wrong_version(self):
        report = build_diff_report("trace", "a", "b", {"trace": self.section()})
        report["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            load_diff(report)

    def test_loader_rejects_truncated_document(self):
        report = build_diff_report("trace", "a", "b", {"trace": self.section()})
        del report["divergences"]
        with pytest.raises(ValueError, match="missing fields"):
            load_diff(report)

    def test_loader_rejects_empty_section_map(self):
        report = build_diff_report("trace", "a", "b", {"trace": self.section()})
        report["sections"] = {}
        with pytest.raises(ValueError, match="no sections"):
            load_diff(report)

    def test_write_diff_is_byte_deterministic(self, tmp_path):
        report = build_diff_report("run", "a", "b", {
            "metrics": self.section(identical=False, divergences=1),
        })
        p1 = write_diff(report, tmp_path / "one.json")
        p2 = write_diff(report, tmp_path / "two.json")
        assert p1.read_bytes() == p2.read_bytes()
        assert load_diff(json.loads(p1.read_text()))["divergences"] == 1


# ----------------------------------------------------------------------
# Bench diff (metric classification + waterfall)
# ----------------------------------------------------------------------
class TestBenchDiff:
    def test_identical_documents_diff_empty(self):
        section = diff_bench_docs(make_bench_doc(), make_bench_doc())
        assert section["identical"] is True
        assert section["divergences"] == 0
        cells = section["scenarios"]["mix2_shared"]["metrics"]
        assert all(c["classification"] == "neutral" for c in cells.values())

    def test_simulated_latency_growth_is_a_regression(self):
        section = diff_bench_docs(
            make_bench_doc(read_us=100.0), make_bench_doc(read_us=120.0)
        )
        cell = section["scenarios"]["mix2_shared"]["metrics"]["sim_mean_read_us"]
        assert cell["classification"] == "regressed"
        assert cell["delta"] == pytest.approx(20.0)
        assert cell["delta_pct"] == pytest.approx(20.0)
        assert section["regressions"] == 1
        assert section["identical"] is False

    def test_simulated_latency_drop_is_an_improvement(self):
        section = diff_bench_docs(
            make_bench_doc(read_us=100.0), make_bench_doc(read_us=80.0)
        )
        cell = section["scenarios"]["mix2_shared"]["metrics"]["sim_mean_read_us"]
        assert cell["classification"] == "improved"
        assert section["regressions"] == 0
        assert section["improvements"] == 1

    def test_throughput_is_higher_better(self):
        section = diff_bench_docs(
            make_bench_doc(rps=1000.0), make_bench_doc(rps=500.0),
            wall_tolerance_pct=10.0,
        )
        cell = section["scenarios"]["mix2_shared"]["metrics"]["requests_per_s"]
        assert cell["classification"] == "regressed"

    def test_wall_clock_within_tolerance_is_neutral(self):
        section = diff_bench_docs(
            make_bench_doc(wall_s=0.50), make_bench_doc(wall_s=0.54),
            wall_tolerance_pct=10.0,
        )
        cell = section["scenarios"]["mix2_shared"]["metrics"]["wall_s"]
        assert cell["classification"] == "neutral"

    def test_wall_clock_under_noise_floor_is_neutral(self):
        # 3x slower, but both sides sat under the bench noise floor
        section = diff_bench_docs(
            make_bench_doc(wall_s=0.003, rps=1000.0),
            make_bench_doc(wall_s=0.009, rps=1000.0),
            wall_tolerance_pct=0.0,
        )
        cell = section["scenarios"]["mix2_shared"]["metrics"]["wall_s"]
        assert cell["classification"] == "neutral"

    def test_quick_full_mismatch_rejected(self):
        with pytest.raises(ValueError, match="quick"):
            diff_bench_docs(make_bench_doc(quick=True),
                            make_bench_doc(quick=False))

    def test_waterfall_present_when_both_sides_attributed(self):
        section = diff_bench_docs(
            make_bench_doc(phases={"bus_us": 100.0, "gc_stall_us": 50.0}),
            make_bench_doc(phases={"bus_us": 160.0, "gc_stall_us": 70.0}),
        )
        rows = section["scenarios"]["mix2_shared"]["waterfall"]
        assert rows[0]["phase"] == "bus_us"  # heaviest shift first
        assert rows[0]["delta_us"] == pytest.approx(60.0)
        assert rows[0]["share"] == pytest.approx(0.75)
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)

    def test_waterfall_absent_without_attribution(self):
        section = diff_bench_docs(make_bench_doc(), make_bench_doc())
        assert "waterfall" not in section["scenarios"]["mix2_shared"]

    def test_disjoint_scenarios_listed_not_compared(self):
        section = diff_bench_docs(
            make_bench_doc(scenario="gc_heavy"),
            make_bench_doc(scenario="faulted"),
        )
        assert section["only_in_a"] == ["gc_heavy"]
        assert section["only_in_b"] == ["faulted"]
        assert section["scenarios"] == {}


class TestPhaseWaterfall:
    def test_missing_phases_count_as_zero(self):
        rows = phase_waterfall({"bus_us": 10.0}, {"die_us": 4.0})
        by_phase = {r["phase"]: r for r in rows}
        assert by_phase["bus_us"]["delta_us"] == pytest.approx(-10.0)
        assert by_phase["die_us"]["delta_us"] == pytest.approx(4.0)

    def test_ties_rank_by_phase_name(self):
        rows = phase_waterfall({"b_us": 0.0, "a_us": 0.0},
                               {"b_us": 5.0, "a_us": 5.0})
        assert [r["phase"] for r in rows] == ["a_us", "b_us"]

    def test_no_shift_means_zero_shares(self):
        rows = phase_waterfall({"bus_us": 10.0}, {"bus_us": 10.0})
        assert rows[0]["share"] == 0.0


# ----------------------------------------------------------------------
# Trace diff
# ----------------------------------------------------------------------
class TestTraceDiff:
    def stream(self):
        return [
            ev(1.0, "arrive", "w0"),
            ev(2.0, "channel_acquire", "ch1"),
            ev(3.0, "die_busy", "die2", dur_us=5.0),
        ]

    def test_identical_streams(self):
        section = diff_traces(self.stream(), self.stream())
        assert section["identical"] is True
        assert section["first_divergence"] is None
        assert section["divergent_events"] == 0
        assert section["compared"] == 3

    def test_first_fork_is_localized_with_actor(self):
        b = self.stream()
        b[1] = ev(2.5, "channel_acquire", "ch1")
        section = diff_traces(self.stream(), b)
        first = section["first_divergence"]
        assert first["index"] == 1
        assert first["time_us_a"] == 2.0
        assert first["time_us_b"] == 2.5
        assert first["kind"] == "channel_acquire"
        assert first["channel"] == 1
        assert section["divergent_events"] == 1

    def test_kind_mismatch_names_both_sides(self):
        b = self.stream()
        b[2] = ev(3.0, "gc_start", "die2")
        first = diff_traces(self.stream(), b)["first_divergence"]
        assert first["kind"] == "die_busy->gc_start"
        assert first["die"] == 2

    def test_strict_prefix_diverges_at_missing_event(self):
        section = diff_traces(self.stream(), self.stream()[:2])
        first = section["first_divergence"]
        assert first["index"] == 2
        assert first["b"] is None
        assert first["time_us_b"] is None
        assert first["kind"] == "die_busy->None"
        assert section["divergent_events"] == 1
        assert section["identical"] is False

    def test_tenant_from_wid_arg_when_track_is_opaque(self):
        a = [ev(1.0, "arrive", "queue", args={"wid": 3})]
        b = [ev(1.5, "arrive", "queue", args={"wid": 3})]
        first = diff_traces(a, b)["first_divergence"]
        assert first["tenant"] == 3

    def test_downstream_counts_include_length_difference(self):
        a = self.stream()
        b = [ev(0.5, "other", "w1")] + self.stream()
        section = diff_traces(a, b)
        assert section["first_divergence"]["index"] == 0
        # every compared position mismatches plus the length overhang
        assert section["divergent_events"] == 4


# ----------------------------------------------------------------------
# Critical-path diff
# ----------------------------------------------------------------------
class TestCritpathDiff:
    def test_identical_reports_diff_empty(self):
        doc = make_critpath({"ch0": {"wait_us": 10.0, "service_us": 30.0}})
        section = diff_critpath_docs(doc, copy.deepcopy(doc))
        assert section["identical"] is True
        assert section["top_shift"] is None
        assert section["top_resource_shift"] is None

    def test_grown_channel_tops_the_shift_table(self):
        a = make_critpath(
            {"ch0": {"service_us": 30.0}, "die1": {"service_us": 20.0}},
            makespan_us=100.0,
        )
        b = make_critpath(
            {"ch0": {"service_us": 75.0}, "die1": {"service_us": 25.0}},
            makespan_us=150.0,
        )
        section = diff_critpath_docs(a, b)
        assert section["top_shift"] == "ch0"
        assert section["top_resource_shift"] == "ch0"
        assert section["shifts"][0]["delta_us"] == pytest.approx(45.0)
        assert section["makespan"]["classification"] == "regressed"
        assert section["regressions"] == 1
        assert section["bottleneck_a"] == "ch0"

    def test_host_pseudo_bucket_never_wins_top_resource_shift(self):
        a = make_critpath({"ch0": {"service_us": 30.0}}, host=10.0)
        b = make_critpath({"ch0": {"service_us": 40.0}}, host=90.0)
        section = diff_critpath_docs(a, b)
        assert section["top_shift"] == "host"
        assert section["top_resource_shift"] == "ch0"

    def test_improved_makespan_is_not_a_regression(self):
        a = make_critpath({"ch0": {"service_us": 50.0}}, makespan_us=100.0)
        b = make_critpath({"ch0": {"service_us": 25.0}}, makespan_us=75.0)
        section = diff_critpath_docs(a, b)
        assert section["regressions"] == 0
        assert section["makespan"]["classification"] == "improved"

    def test_invalid_report_rejected(self):
        doc = make_critpath({"ch0": {"service_us": 1.0}})
        bad = copy.deepcopy(doc)
        bad["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            diff_critpath_docs(doc, bad)


# ----------------------------------------------------------------------
# Run diff (exact re-simulation)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_scenario():
    kind, requests, cfg, sets, faults = SCENARIOS["mix2_shared"](200)
    assert kind == "simulator"
    return requests, cfg, sets, faults


@pytest.fixture(scope="module")
def self_report(small_scenario):
    requests, cfg, sets, faults = small_scenario
    return diff_run(requests, cfg, sets, faults=faults)


@pytest.fixture(scope="module")
def scaled_report(small_scenario):
    requests, cfg, sets, faults = small_scenario
    cfg_b = cfg.scale_knob("bus_bandwidth", 0.25)
    return diff_run(requests, cfg, sets, cfg_b, faults=faults,
                    label_a="base", label_b="slow-bus")


class TestRunDiff:
    def test_self_diff_is_provably_empty(self, self_report):
        assert self_report["identical"] is True
        assert self_report["divergences"] == 0
        assert self_report["regressions"] == 0
        trace = self_report["sections"]["trace"]
        assert trace["first_divergence"] is None
        assert trace["events_a"] == trace["events_b"] > 0
        assert self_report["sections"]["critpath"]["top_shift"] is None

    def test_self_diff_validates_and_serialises(self, self_report, tmp_path):
        path = write_diff(load_diff(self_report), tmp_path / "self.json")
        assert json.loads(path.read_text())["kind"] == "run"

    def test_scaled_knob_localizes_first_divergence(self, scaled_report):
        assert scaled_report["identical"] is False
        trace = scaled_report["sections"]["trace"]
        first = trace["first_divergence"]
        assert first is not None
        assert isinstance(first["index"], int)
        # a slower bus first shows up as a channel-side event
        assert first["channel"] is not None
        assert trace["divergent_events"] > 0

    def test_scaled_knob_regresses_latency_metrics(self, scaled_report):
        cells = scaled_report["sections"]["metrics"]["metrics"]
        assert cells["total_latency_us"]["classification"] == "regressed"
        assert scaled_report["regressions"] > 0

    def test_scaled_knob_shifts_critical_path(self, scaled_report):
        critpath = scaled_report["sections"]["critpath"]
        assert critpath["top_shift"] is not None
        assert critpath["makespan"]["classification"] == "regressed"

    def test_labels_carried_into_report(self, scaled_report):
        assert scaled_report["label_a"] == "base"
        assert scaled_report["label_b"] == "slow-bus"

    def test_report_is_byte_deterministic(self, small_scenario, scaled_report):
        requests, cfg, sets, faults = small_scenario
        cfg_b = cfg.scale_knob("bus_bandwidth", 0.25)
        again = diff_run(requests, cfg, sets, cfg_b, faults=faults,
                         label_a="base", label_b="slow-bus")
        assert (json.dumps(again, sort_keys=True)
                == json.dumps(scaled_report, sort_keys=True))

    def test_keep_events_carries_streams_out_of_band(self, small_scenario):
        requests, cfg, sets, faults = small_scenario
        report = diff_run(requests, cfg, sets, faults=faults, keep_events=True)
        events_a = report.pop("_events_a")
        events_b = report.pop("_events_b")
        assert events_a == events_b
        assert events_a and isinstance(events_a[0], dict)
        load_diff(report)  # valid once the carry-alongs are popped

    def test_truncated_ring_is_refused(self, small_scenario, monkeypatch):
        requests, cfg, sets, faults = small_scenario
        monkeypatch.setattr("repro.obs.diff._TRACE_CAPACITY", 64)
        with pytest.raises(DiffError, match="trace ring evicted"):
            diff_run(requests, cfg, sets, faults=faults)

    def test_stateful_injector_is_rejected(self, small_scenario):
        from repro.ssd.faults import FaultConfig, FaultInjector

        requests, cfg, sets, _ = small_scenario
        injector = FaultInjector(FaultConfig(seed=3))
        with pytest.raises(TypeError, match="FaultConfig"):
            diff_run(requests, cfg, sets, faults=injector)
