"""``repro diff`` CLI: modes, rendering, exit codes, artifacts."""

import copy
import json

import pytest

from repro.harness.bench import SCHEMA_VERSION
from repro.harness.cli import main as repro_main
from repro.obs.diff import DIFF_SCHEMA_VERSION, load_diff

from .test_cli_exit_codes import run_cli


def diff(argv):
    """``repro diff <argv>``, usage errors normalised to exit code 2."""
    return run_cli(["diff", *argv])


def make_bench_doc(read_us=100.0, wall_s=0.5, rps=1000.0, *, quick=True):
    return {
        "schema_version": SCHEMA_VERSION,
        "created": "2026-01-01T00:00:00Z",
        "quick": quick,
        "repeat": 1,
        "python": "3.11.0",
        "platform": "test-host",
        "scenarios": {
            "mix2_shared": {
                "kind": "simulator",
                "requests": 600,
                "metrics": {
                    "wall_s": wall_s,
                    "requests_per_s": rps,
                    "sim_mean_read_us": read_us,
                },
            }
        },
    }


def make_critpath(service_us=30.0, *, makespan_us=100.0):
    from repro.obs.critpath import CRITPATH_SCHEMA_VERSION

    return {
        "schema_version": CRITPATH_SCHEMA_VERSION,
        "makespan_us": makespan_us,
        "critical_requests": 1,
        "host_gap_us": 0.0,
        "internal_tail_us": 0.0,
        "residual_us": 0.0,
        "resources": {"ch0": {"service_us": service_us}},
        "phase_totals_us": {},
        "ranked": [{"resource": "ch0", "total_us": service_us}],
        "steps": [],
    }


def write_json(path, doc):
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


def write_trace(path, events):
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")
    return str(path)


EVENTS = [
    {"ts_us": 1.0, "name": "arrive", "track": "w0", "cat": "sim",
     "dur_us": None, "args": {}},
    {"ts_us": 2.0, "name": "channel_acquire", "track": "ch1", "cat": "sim",
     "dur_us": 1.5, "args": {}},
]


class TestBenchMode:
    def test_identical_documents_exit_zero(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", make_bench_doc())
        b = write_json(tmp_path / "b.json", make_bench_doc())
        assert diff(["bench", a, b]) == 0
        assert "identical" in capsys.readouterr().out

    def test_regression_exits_one_and_is_rendered(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", make_bench_doc(read_us=100.0))
        b = write_json(tmp_path / "b.json", make_bench_doc(read_us=150.0))
        assert diff(["bench", a, b]) == 1
        out = capsys.readouterr().out
        assert "sim_mean_read_us" in out
        assert "regressed" in out

    def test_improvement_alone_exits_zero(self, tmp_path):
        a = write_json(tmp_path / "a.json", make_bench_doc(read_us=100.0))
        b = write_json(tmp_path / "b.json", make_bench_doc(read_us=50.0))
        assert diff(["bench", a, b]) == 0

    def test_quick_full_mismatch_is_usage_error(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", make_bench_doc(quick=True))
        b = write_json(tmp_path / "b.json", make_bench_doc(quick=False))
        assert diff(["bench", a, b]) == 2
        assert "repro diff:" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", make_bench_doc())
        assert diff(["bench", a, str(tmp_path / "gone.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_json_output_is_a_valid_report(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", make_bench_doc())
        b = write_json(tmp_path / "b.json", make_bench_doc(read_us=150.0))
        diff(["bench", a, b, "--json"])
        report = load_diff(json.loads(capsys.readouterr().out))
        assert report["kind"] == "bench"
        assert report["schema_version"] == DIFF_SCHEMA_VERSION

    def test_out_writes_byte_identical_reports(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", make_bench_doc())
        b = write_json(tmp_path / "b.json", make_bench_doc(read_us=150.0))
        diff(["bench", a, b, "--out", str(tmp_path / "one.json")])
        diff(["bench", a, b, "--out", str(tmp_path / "two.json")])
        one = (tmp_path / "one.json").read_bytes()
        assert one == (tmp_path / "two.json").read_bytes()
        load_diff(json.loads(one))


class TestTraceMode:
    def test_identical_streams_exit_zero(self, tmp_path, capsys):
        a = write_trace(tmp_path / "a.jsonl", EVENTS)
        b = write_trace(tmp_path / "b.jsonl", EVENTS)
        assert diff(["trace", a, b]) == 0
        assert "streams identical" in capsys.readouterr().out

    def test_any_divergence_exits_one(self, tmp_path, capsys):
        moved = copy.deepcopy(EVENTS)
        moved[1]["ts_us"] = 2.5
        a = write_trace(tmp_path / "a.jsonl", EVENTS)
        b = write_trace(tmp_path / "b.jsonl", moved)
        assert diff(["trace", a, b]) == 1
        out = capsys.readouterr().out
        assert "first divergence at event #1" in out
        assert "channel 1" in out

    def test_malformed_trace_is_usage_error(self, tmp_path, capsys):
        a = write_trace(tmp_path / "a.jsonl", EVENTS)
        bad = tmp_path / "b.jsonl"
        bad.write_text("not json\n")
        assert diff(["trace", a, str(bad)]) == 2
        assert "not a JSONL trace" in capsys.readouterr().err


class TestCritpathMode:
    def test_identical_reports_exit_zero(self, tmp_path):
        a = write_json(tmp_path / "a.json", make_critpath())
        b = write_json(tmp_path / "b.json", make_critpath())
        assert diff(["critpath", a, b]) == 0

    def test_makespan_regression_exits_one(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", make_critpath(30.0, makespan_us=100.0))
        b = write_json(tmp_path / "b.json", make_critpath(80.0, makespan_us=150.0))
        assert diff(["critpath", a, b]) == 1
        assert "ch0 moved +50.0us" in capsys.readouterr().out

    def test_accepts_explain_documents(self, tmp_path, capsys):
        from repro.harness.explain import EXPLAIN_SCHEMA

        def explain_doc(service_us, makespan_us):
            from repro.harness.explain import EXPLAIN_SCHEMA_VERSION

            doc = {field: None for field in EXPLAIN_SCHEMA.required}
            doc.update({
                "schema_version": EXPLAIN_SCHEMA_VERSION,
                "scenario": "mix2_shared",
                "quick": True,
                "requests": 600,
                "makespan_us": makespan_us,
                "total_latency_us": 1000.0,
                "summary": "test",
                "critpath": make_critpath(service_us, makespan_us=makespan_us),
            })
            return doc

        a = write_json(tmp_path / "a.json", explain_doc(30.0, 100.0))
        b = write_json(tmp_path / "b.json", explain_doc(20.0, 90.0))
        assert diff(["critpath", a, b]) == 0
        assert "ch0 moved -10.0us" in capsys.readouterr().out


class TestRunMode:
    def test_self_diff_exits_zero_and_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "self.json"
        chrome = tmp_path / "self_trace.json"
        code = diff([
            "run", "--scenario", "mix2_shared", "--quick",
            "--out", str(out), "--chrome-trace", str(chrome),
        ])
        assert code == 0
        assert "streams identical" in capsys.readouterr().out
        report = load_diff(json.loads(out.read_text()))
        assert report["identical"] is True
        assert "_events_a" not in report
        records = json.loads(chrome.read_text())["traceEvents"]
        pids = {r["pid"] for r in records}
        # both sides present under their device pid namespaces
        assert any(11 <= pid <= 14 for pid in pids)
        assert any(21 <= pid <= 24 for pid in pids)

    def test_unknown_scenario_is_usage_error(self, capsys):
        assert diff(["run", "--scenario", "nope", "--quick"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_fastmodel_scenario_is_rejected(self, capsys):
        assert diff(["run", "--scenario", "fastmodel", "--quick"]) == 2
        assert "fastmodel backend" in capsys.readouterr().err

    def test_bad_scale_spec_is_usage_error(self, capsys):
        assert diff(["run", "--quick", "--scale", "bus_bandwidth"]) == 2
        assert "KNOB=FACTOR" in capsys.readouterr().err

    def test_unknown_knob_is_usage_error(self, capsys):
        assert diff(["run", "--quick", "--scale", "warp_drive=2"]) == 2
        assert "unknown knob" in capsys.readouterr().err


class TestUsage:
    def test_no_mode_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["diff"])
        assert excinfo.value.code == 2
        assert "a mode is required" in capsys.readouterr().err
