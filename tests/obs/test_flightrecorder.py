"""FlightRecorder bundle layout, manifest contents, dedup."""

import json

from repro.obs import (
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    Observability,
    SloSpec,
)
from repro.obs.flightrecorder import _TRACE_TAIL

REQUIRED_MANIFEST_KEYS = {
    "schema_version", "trigger", "detail", "time_us", "context",
    "replay", "bundle_files",
}


def read_json(path):
    return json.loads(path.read_text())


class TestBareDump:
    def test_manifest_written_with_required_keys(self, tmp_path):
        rec = FlightRecorder(tmp_path, context={"scale": "smoke"},
                             replay_argv=["python", "-m", "repro", "stats"])
        bundle = rec.dump("slo-page", detail="tenant0.read_p95_us",
                         time_us=123.0)
        assert bundle == tmp_path / "bundle-00-slo-page"
        manifest = read_json(bundle / "manifest.json")
        assert REQUIRED_MANIFEST_KEYS <= set(manifest)
        assert manifest["schema_version"] == FLIGHT_SCHEMA_VERSION
        assert manifest["trigger"] == "slo-page"
        assert manifest["detail"] == "tenant0.read_p95_us"
        assert manifest["time_us"] == 123.0
        assert manifest["context"] == {"scale": "smoke"}

    def test_replay_command_is_shell_quoted_argv(self, tmp_path):
        rec = FlightRecorder(
            tmp_path,
            replay_argv=["python", "-m", "repro", "stats",
                         "--slo", "my spec.json"],
        )
        manifest = read_json(rec.dump("exception") / "manifest.json")
        assert manifest["replay"]["argv"][-1] == "my spec.json"
        assert manifest["replay"]["command"].endswith("--slo 'my spec.json'")

    def test_no_replay_argv_means_not_replayable(self, tmp_path):
        rec = FlightRecorder(tmp_path)
        manifest = read_json(rec.dump("exception") / "manifest.json")
        assert manifest["replay"] == {
            "argv": None, "command": None,
            "explain_argv": None, "explain_command": None,
        }

    def test_explain_command_recorded(self, tmp_path):
        rec = FlightRecorder(
            tmp_path,
            replay_argv=["python", "-m", "repro", "bench",
                         "--scenario", "gc_heavy"],
            explain_argv=["python", "-m", "repro", "explain",
                          "--scenario", "gc_heavy"],
        )
        manifest = read_json(rec.dump("slo-page") / "manifest.json")
        assert manifest["replay"]["explain_command"] == (
            "python -m repro explain --scenario gc_heavy"
        )

    def test_sections_omitted_without_sources(self, tmp_path):
        rec = FlightRecorder(tmp_path)
        bundle = rec.dump("unrecoverable-read")
        manifest = read_json(bundle / "manifest.json")
        assert manifest["bundle_files"] == ["manifest.json"]
        assert list(p.name for p in bundle.iterdir()) == ["manifest.json"]


class TestDedupAndSequencing:
    def test_dump_once_dedups_by_trigger(self, tmp_path):
        rec = FlightRecorder(tmp_path)
        first = rec.dump_once("slo-page", time_us=1.0)
        assert first is not None
        assert rec.dump_once("slo-page", time_us=2.0) is None
        other = rec.dump_once("unrecoverable-read", time_us=3.0)
        assert other is not None
        assert [b.name for b in rec.bundles] == [
            "bundle-00-slo-page", "bundle-01-unrecoverable-read",
        ]


class TestWithObservability:
    def test_full_bundle_sections(self, tmp_path):
        spec = SloSpec.from_dict({
            "window_us": 100.0,
            "tenants": {"0": {"read_p95_us": 50.0}},
        })
        rec = FlightRecorder(tmp_path)
        obs = Observability(trace=True, slo=spec, flight_recorder=rec)
        obs.registry.counter("sim.requests").inc(7)
        obs.trace.emit(1.0, "submit", "wid0")
        bundle = rec.dump("slo-page", time_us=5.0,
                          alert={"objective": "tenant0.read_p95_us"})
        manifest = read_json(bundle / "manifest.json")
        assert set(manifest["bundle_files"]) == {
            "manifest.json", "metrics.json", "trace.jsonl",
            "alerts.json", "telemetry_tail.json",
        }
        metrics = read_json(bundle / "metrics.json")
        assert metrics["counters"]["sim.requests"] == 7
        trace_lines = (bundle / "trace.jsonl").read_text().strip().splitlines()
        assert json.loads(trace_lines[0])["name"] == "submit"
        alerts = read_json(bundle / "alerts.json")
        assert alerts["triggering"]["objective"] == "tenant0.read_p95_us"
        assert alerts["history"] == []

    def test_trace_tail_truncates(self, tmp_path):
        rec = FlightRecorder(tmp_path)
        obs = Observability(trace=True, flight_recorder=rec)
        for i in range(_TRACE_TAIL + 7):
            obs.trace.emit(float(i), "submit", "wid0")
        bundle = rec.dump("exception")
        lines = (bundle / "trace.jsonl").read_text().strip().splitlines()
        assert len(lines) == _TRACE_TAIL
        assert json.loads(lines[0])["ts_us"] == 7.0


class TestCritpathSection:
    def test_bundle_carries_bottleneck_report(self, tmp_path):
        from repro.obs.attribution import RequestAttribution

        rec = FlightRecorder(tmp_path)
        obs = Observability(trace=False, attribution=True, flight_recorder=rec)
        obs.attribution.records.append(
            RequestAttribution(0, "read", 2, 60.0, die=3, arrival_us=0.0,
                               die_us=20.0, bus_us=40.0)
        )
        bundle = rec.dump("slo-page", time_us=60.0)
        manifest = read_json(bundle / "manifest.json")
        assert "critpath.json" in manifest["bundle_files"]
        critpath = read_json(bundle / "critpath.json")
        assert critpath["makespan_us"] == 60.0
        assert critpath["critical_requests"] == 1
        assert "die3" in critpath["resources"]

    def test_trigger_without_time_uses_last_completion(self, tmp_path):
        from repro.obs.attribution import RequestAttribution

        rec = FlightRecorder(tmp_path)
        obs = Observability(trace=False, attribution=True, flight_recorder=rec)
        obs.attribution.records.append(
            RequestAttribution(0, "write", 0, 200.0, die=0, arrival_us=10.0,
                               die_us=200.0)
        )
        critpath = read_json(rec.dump("exception") / "critpath.json")
        assert critpath["makespan_us"] == 210.0

    def test_no_records_no_critpath_section(self, tmp_path):
        rec = FlightRecorder(tmp_path)
        obs = Observability(trace=False, attribution=True, flight_recorder=rec)
        bundle = rec.dump("exception")
        manifest = read_json(bundle / "manifest.json")
        assert "critpath.json" not in manifest["bundle_files"]
        assert "attribution_tail.json" in manifest["bundle_files"]
