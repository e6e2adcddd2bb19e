"""Fleet observability plane: federation, rollups, report round-trip."""

import json

import pytest

from repro.obs.fleet import (
    FLEET_SCHEMA_VERSION,
    FleetRegistry,
    FleetSloRollup,
    build_fleet_report,
    device_health,
    load_fleet,
    merge_histograms,
    write_fleet_report,
)
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.slo import SloSpec, SloWatchdog
from repro.obs.trace import TraceRecorder

BOUNDS = [10.0, 100.0, 1000.0]


def hist(name, samples):
    h = Histogram(name, BOUNDS)
    for s in samples:
        h.observe(s)
    return h


class TestMergeHistograms:
    def test_merged_equals_single_registry_over_all_samples(self):
        a = hist("lat", [5.0, 50.0, 500.0])
        b = hist("lat", [7.0, 5000.0])
        merged = merge_histograms("lat", [a, b])
        combined = hist("lat", [5.0, 50.0, 500.0, 7.0, 5000.0])
        assert merged.counts == combined.counts
        assert merged.count == combined.count
        assert merged.total == combined.total
        assert merged.min == combined.min
        assert merged.max == combined.max

    def test_empty_histograms_contribute_nothing(self):
        a = hist("lat", [50.0])
        b = hist("lat", [])
        merged = merge_histograms("lat", [a, b])
        assert merged.count == 1
        assert merged.min == 50.0

    def test_refuses_mismatched_bounds(self):
        a = hist("lat", [1.0])
        b = Histogram("lat", [1.0, 2.0])
        with pytest.raises(ValueError):
            merge_histograms("lat", [a, b])

    def test_refuses_empty_input(self):
        with pytest.raises(ValueError):
            merge_histograms("lat", [])


class TestDeviceHealth:
    def test_clean_device_scores_one(self):
        registry = MetricsRegistry()
        registry.counter("sim.requests").value = 100
        assert device_health(registry) == 1.0

    def test_failed_reads_scale_down(self):
        registry = MetricsRegistry()
        registry.counter("sim.requests").value = 100
        registry.counter("sim.failed_reads").value = 10
        assert device_health(registry) == pytest.approx(0.9)

    def test_keeper_fallback_halves(self):
        registry = MetricsRegistry()
        registry.counter("sim.requests").value = 100
        registry.counter("keeper.fallbacks").value = 1
        assert device_health(registry) == pytest.approx(0.5)


class TestFleetRegistry:
    def make_devices(self):
        fr = FleetRegistry()
        for dev in range(2):
            reg = MetricsRegistry()
            reg.counter("sim.requests").value = 100 * (dev + 1)
            h = reg.histogram("sim.read_latency_us", BOUNDS)
            h.observe(5.0 * (dev + 1))
            h.observe(500.0)
            fr.attach(dev, reg)
        return fr

    def test_rejects_duplicate_attach(self):
        fr = FleetRegistry()
        fr.attach(0, MetricsRegistry())
        with pytest.raises(ValueError):
            fr.attach(0, MetricsRegistry())

    def test_counters_sum_across_devices(self):
        merged = self.make_devices().federate()
        assert merged.get("sim.requests").value == 300

    def test_histograms_merge_exactly(self):
        fr = self.make_devices()
        merged = fr.federate()
        manual = merge_histograms(
            "sim.read_latency_us",
            [fr.devices[d].get("sim.read_latency_us") for d in (0, 1)],
        )
        out = merged.get("sim.read_latency_us")
        assert out.counts == manual.counts
        assert out.count == manual.count
        assert out.total == manual.total

    def test_device_health_gauges_and_device_count(self):
        merged = self.make_devices().federate()
        snap = merged.snapshot()
        assert snap["gauges"]["fleet.device.0.health"] == 1.0
        assert snap["gauges"]["fleet.device.1.health"] == 1.0
        assert snap["counters"]["fleet.devices"] == 2

    def test_live_fleet_metrics_copied_last(self):
        fr = self.make_devices()
        fr.fleet.counter("fleet.migrations").value = 3
        merged = fr.federate()
        assert merged.get("fleet.migrations").value == 3


def window(seq, t_end, fractions_hist=None):
    """Minimal telemetry window carrying one violating latency histogram."""
    hist_section = {}
    if fractions_hist is not None:
        hist_section["sim.tenant.0.read_latency_us"] = fractions_hist
    return {
        "t_start_us": t_end - 500.0,
        "t_end_us": t_end,
        "seq": seq,
        "counters": {},
        "histograms": hist_section,
        "gauges": {},
        "resources": {},
    }


def violating_hist():
    # every sample above the 10us target bucket -> violation fraction 1.0
    return {"count": 4, "sum": 4000.0, "bounds": [10.0], "buckets": [0, 4]}


def spec():
    return SloSpec.from_dict({
        "window_us": 500.0,
        "tenants": {"0": {"read_p95_us": 10.0}},
    }, known_tenants={0})


class TestFleetSloRollup:
    def run_windows(self, n_windows, n_devices=2):
        s = spec()
        registry = MetricsRegistry()
        trace = TraceRecorder()
        rollup = FleetSloRollup(s, registry=registry, trace=trace)
        watchdogs = [SloWatchdog(s) for _ in range(n_devices)]
        for i in range(n_windows):
            for dev, wd in enumerate(watchdogs):
                w = window(i, (i + 1) * 500.0, violating_hist())
                feed = rollup.feed(dev, wd)
                feed.observe(w)
        return rollup, registry, trace

    def test_windows_counted(self):
        rollup, registry, _ = self.run_windows(3)
        assert rollup.windows_observed == 6  # 3 windows x 2 devices
        assert registry.get("fleet.slo.windows").value == 6

    def test_sustained_violation_pages_fleet_wide(self):
        rollup, registry, trace = self.run_windows(14)
        severities = [a.severity for a in rollup.alerts]
        assert "page" in severities
        page = next(a for a in rollup.alerts if a.severity == "page")
        assert page.objective == "tenant0.read_p95_us"
        assert page.device in (0, 1)
        assert page.fleet_fast_burn >= rollup.spec.fast.page_burn
        assert registry.get("fleet.slo.page_alerts").value >= 1
        assert trace.events("fleet_slo_alert")

    def test_alerts_are_edge_triggered(self):
        rollup, _, _ = self.run_windows(30)
        # severity only escalates once per objective without a downgrade
        assert len([a for a in rollup.alerts if a.severity == "page"]) == 1

    def test_no_violation_no_alerts(self):
        s = spec()
        rollup = FleetSloRollup(s)
        wd = SloWatchdog(s)
        clean = {"count": 4, "sum": 8.0, "bounds": [10.0], "buckets": [4, 0]}
        for i in range(20):
            rollup.feed(0, wd).observe(window(i, (i + 1) * 500.0, clean))
        assert rollup.alerts == []
        assert rollup.summary()["page_alerts"] == 0

    def test_device_watchdog_still_evaluates(self):
        s = spec()
        rollup = FleetSloRollup(s)
        wd = SloWatchdog(s)
        for i in range(14):
            rollup.feed(0, wd).observe(
                window(i, (i + 1) * 500.0, violating_hist())
            )
        assert wd.windows_evaluated == 14
        assert any(a.severity == "page" for a in wd.alerts)


class TestFleetReportRoundTrip:
    def minimal_report(self):
        from repro.ssd.fleet import FleetResult, MigrationRecord
        from repro.ssd.metrics import OpStats, SimulationResult

        result = SimulationResult(
            read=OpStats(), write=OpStats(), per_workload={},
            makespan_us=10.0, requests=2, subrequests=2,
        )
        fr = FleetResult(
            results=[result],
            placement_initial={0: 0},
            placement_final={0: 0},
            migrations=[MigrationRecord(
                tenant=0, src=0, dst=0, start_us=1.0,
                requests_replayed=2, first_dst_complete_us=3.5,
            )],
            completions=[{0: 2}],
            makespan_us=10.0,
            events=5,
        )
        return build_fleet_report(fr, seed=7)

    def test_round_trip(self, tmp_path):
        doc = self.minimal_report()
        path = tmp_path / "fleet_report.json"
        write_fleet_report(doc, path)
        loaded = load_fleet(json.loads(path.read_text()))
        assert loaded["schema_version"] == FLEET_SCHEMA_VERSION
        assert loaded["seed"] == 7
        assert loaded["migrations"][0]["span_us"] == pytest.approx(2.5)

    def test_reader_rejects_wrong_version(self):
        doc = self.minimal_report()
        doc["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            load_fleet(doc)

    def test_reader_rejects_truncated_document(self):
        doc = self.minimal_report()
        del doc["placement"]
        with pytest.raises(ValueError, match="missing fields"):
            load_fleet(doc)

    def test_reader_rejects_malformed_device_entry(self):
        doc = self.minimal_report()
        doc["devices"][0]["device"] = "zero"
        with pytest.raises(ValueError, match="device entry"):
            load_fleet(doc)

    def test_reader_rejects_non_finite_span(self):
        doc = self.minimal_report()
        doc["migrations"][0]["span_us"] = float("inf")
        with pytest.raises(ValueError, match="span"):
            load_fleet(doc)

    def test_write_is_deterministic(self, tmp_path):
        doc = self.minimal_report()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_fleet_report(doc, p1)
        write_fleet_report(self.minimal_report(), p2)
        assert p1.read_bytes() == p2.read_bytes()
