"""SloSpec validation and SloWatchdog burn-rate alerting."""

import json

import pytest

from repro.obs import MetricsRegistry, SloSpec, SloSpecError, SloWatchdog, TraceRecorder
from repro.obs.slo import BurnWindow


def spec_data(**overrides):
    data = {
        "schema_version": 1,
        "window_us": 100.0,
        "tenants": {"0": {"read_p95_us": 50.0}},
        "failed_read_budget": 0.02,
        "gc_stall_fraction": 0.5,
        "keeper_health_floor": 0.5,
        "burn": {
            "fast": {"windows": 2, "warn_burn": 2.0, "page_burn": 6.0},
            "slow": {"windows": 6, "warn_burn": 1.0, "page_burn": 3.0},
        },
    }
    data.update(overrides)
    return data


def window(seq, *, t_start_us=0.0, t_end_us=100.0, counters=None,
           histograms=None, resources=None):
    return {
        "kind": "window",
        "seq": seq,
        "t_start_us": t_start_us,
        "t_end_us": t_end_us,
        "events": 0,
        "counters": counters or {},
        "gauges": {},
        "histograms": histograms or {},
        "resources": resources or {},
    }


def latency_window(seq, *, fast_count, slow_count, bounds=(50.0, 100.0)):
    """A window with ``fast_count`` samples <= 50us, ``slow_count`` above."""
    return window(seq, histograms={
        "sim.tenant.0.read_latency_us": {
            "count": fast_count + slow_count,
            "sum": 0.0,
            "bounds": list(bounds),
            "buckets": [fast_count, slow_count, 0],
        }
    })


class TestSpecValidation:
    def test_round_trips_valid_spec(self):
        spec = SloSpec.from_dict(spec_data(), known_tenants={0, 1})
        assert spec.window_us == 100.0
        assert spec.tenants[0]["read_p95_us"] == 50.0
        assert spec.fast == BurnWindow(2, 2.0, 6.0)
        assert spec.to_dict()["window_us"] == 100.0

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(spec_data()))
        spec = SloSpec.load(path, known_tenants={0})
        assert spec.failed_read_budget == 0.02

    def test_unknown_tenant_rejected(self):
        with pytest.raises(SloSpecError) as exc:
            SloSpec.from_dict(spec_data(tenants={"7": {"read_p95_us": 1.0}}),
                              known_tenants={0, 1})
        assert exc.value.code == "unknown-tenant"

    def test_non_integer_tenant_rejected(self):
        with pytest.raises(SloSpecError) as exc:
            SloSpec.from_dict(spec_data(tenants={"abc": {}}))
        assert exc.value.code == "unknown-tenant"

    def test_non_positive_target_rejected(self):
        with pytest.raises(SloSpecError) as exc:
            SloSpec.from_dict(spec_data(tenants={"0": {"read_p99_us": 0.0}}))
        assert exc.value.code == "non-positive-target"

    def test_non_positive_window_rejected(self):
        with pytest.raises(SloSpecError) as exc:
            SloSpec.from_dict(spec_data(window_us=-1.0))
        assert exc.value.code == "non-positive-target"

    def test_out_of_range_budget_rejected(self):
        with pytest.raises(SloSpecError) as exc:
            SloSpec.from_dict(spec_data(failed_read_budget=1.5))
        assert exc.value.code == "non-positive-target"

    def test_overlapping_burn_windows_rejected(self):
        burn = {
            "fast": {"windows": 6, "warn_burn": 2.0, "page_burn": 6.0},
            "slow": {"windows": 6, "warn_burn": 1.0, "page_burn": 3.0},
        }
        with pytest.raises(SloSpecError) as exc:
            SloSpec.from_dict(spec_data(burn=burn))
        assert exc.value.code == "overlapping-burn-windows"

    def test_unknown_keys_rejected(self):
        with pytest.raises(SloSpecError) as exc:
            SloSpec.from_dict(spec_data(surprise=1))
        assert exc.value.code == "bad-spec"

    def test_unknown_target_key_rejected(self):
        with pytest.raises(SloSpecError) as exc:
            SloSpec.from_dict(spec_data(tenants={"0": {"p95": 1.0}}))
        assert exc.value.code == "bad-spec"

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SloSpecError) as exc:
            SloSpec.load(path)
        assert exc.value.code == "bad-spec"


class TestBurnRateAlerting:
    def make(self, **overrides):
        spec = SloSpec.from_dict(spec_data(**overrides))
        registry = MetricsRegistry()
        trace = TraceRecorder()
        watchdog = SloWatchdog(spec)
        watchdog.bind(registry=registry, trace=trace)
        return watchdog, registry, trace

    def test_clean_windows_raise_nothing(self):
        watchdog, registry, _ = self.make()
        for i in range(10):
            assert watchdog.observe(latency_window(i, fast_count=20, slow_count=0)) == []
        assert watchdog.alerts == []
        assert registry.get("slo.windows").value == 10
        assert registry.get("slo.page_alerts") is None

    def test_sustained_violation_escalates_to_page_once(self):
        watchdog, registry, trace = self.make()
        severities = []
        for i in range(6):
            for alert in watchdog.observe(latency_window(i, fast_count=0, slow_count=10)):
                severities.append(alert.severity)
        # every window violates 100% >> 5% allowed: burn is immediately
        # past both page thresholds, and the edge trigger fires once
        assert severities == ["page"]
        assert registry.get("slo.page_alerts").value == 1
        events = trace.events("slo_alert")
        assert len(events) == 1
        assert events[0].args["severity"] == "page"

    def test_warn_then_page_then_rearm_after_recovery(self):
        watchdog, _, _ = self.make()
        fired = []
        # warm the slow window with clean history first
        for i in range(6):
            watchdog.observe(latency_window(i, fast_count=20, slow_count=0))
        # moderate violation: 15% of samples over target = burn 3 (fast
        # window mean) — above warn (2) but below page (6)
        for i in range(6, 9):
            fired += watchdog.observe(latency_window(i, fast_count=17, slow_count=3))
        assert [a.severity for a in fired] == ["warn"]
        # total violation escalates the same objective to page
        for i in range(9, 12):
            fired += watchdog.observe(latency_window(i, fast_count=0, slow_count=20))
        assert [a.severity for a in fired] == ["warn", "page"]
        # full recovery drains the windows and re-arms the edge trigger
        for i in range(12, 24):
            fired += watchdog.observe(latency_window(i, fast_count=20, slow_count=0))
        assert [a.severity for a in fired] == ["warn", "page"]
        for i in range(24, 27):
            fired += watchdog.observe(latency_window(i, fast_count=0, slow_count=20))
        assert [a.severity for a in fired] == ["warn", "page", "page"]

    def test_failed_read_budget_objective(self):
        watchdog, _, _ = self.make(tenants={})
        fired = []
        for i in range(6):
            fired += watchdog.observe(window(i, counters={
                "sim.requests": 10, "sim.failed_reads": 5,
            }))
        assert any(a.objective == "failed_reads" and a.severity == "page"
                   for a in fired)

    def test_gc_stall_objective(self):
        watchdog, _, _ = self.make(tenants={}, gc_stall_fraction=0.1)
        fired = []
        for i in range(6):
            fired += watchdog.observe(window(
                i, t_start_us=i * 100.0, t_end_us=(i + 1) * 100.0,
                resources={"gc_busy_us": [95.0, 95.0]},
            ))
        assert any(a.objective == "gc_stall" for a in fired)

    def test_keeper_health_objective(self):
        watchdog, _, _ = self.make(tenants={})
        fired = []
        for i in range(6):
            fired += watchdog.observe(window(i, counters={"keeper.fallbacks": 1}))
        assert any(a.objective == "keeper_health" for a in fired)

    def test_summary_rollup(self):
        watchdog, _, _ = self.make()
        for i in range(6):
            watchdog.observe(latency_window(i, fast_count=0, slow_count=10))
        rollup = watchdog.summary()
        assert rollup["windows"] == 6
        assert rollup["page_alerts"] == 1
        assert rollup["alerts"][0]["objective"] == "tenant0.read_p95_us"

    def test_bucket_straddling_target_counts_as_violating(self):
        # conservative upper-bound rule: a bucket whose upper bound
        # exceeds the target is counted violating even though some of its
        # samples may be under it
        watchdog, _, _ = self.make(
            tenants={"0": {"read_p95_us": 75.0}}  # inside the 50..100 bucket
        )
        fired = []
        for i in range(6):
            fired += watchdog.observe(latency_window(i, fast_count=0, slow_count=10))
        assert any(a.severity == "page" for a in fired)
