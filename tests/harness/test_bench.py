"""Benchmark harness: suite runs, schema, baseline comparison, CLI."""

import copy
import json

import pytest

from repro.harness.bench import (
    SCENARIOS,
    SCHEMA_VERSION,
    compare,
    run_bench,
    run_scenario,
    write_bench,
)

from .test_cli_exit_codes import run_cli


@pytest.fixture(scope="module")
def quick_doc():
    return run_bench(quick=True, scenarios=["mix2_shared", "fastmodel"])


def make_doc(wall_s=0.5, rps=1000.0, read_us=100.0, *, quick=True):
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


class TestRunScenario:
    def test_simulator_scenario_records_attribution(self, quick_doc):
        entry = quick_doc["scenarios"]["mix2_shared"]
        assert entry["kind"] == "simulator"
        assert entry["requests"] == 600
        m = entry["metrics"]
        assert m["wall_s"] > 0
        assert m["requests_per_s"] > 0
        assert m["sim_mean_read_us"] > 0
        attr = entry["attribution"]
        assert attr["requests"] == 600
        assert sum(attr["phase_fractions"].values()) == pytest.approx(1.0)

    def test_fastmodel_scenario_has_no_attribution(self, quick_doc):
        entry = quick_doc["scenarios"]["fastmodel"]
        assert entry["kind"] == "fastmodel"
        assert "attribution" not in entry

    def test_simulated_metrics_are_deterministic(self):
        a = run_scenario("mix2_shared", quick=True)
        b = run_scenario("mix2_shared", quick=True, repeat=2)
        for name in ("sim_mean_read_us", "sim_mean_write_us",
                     "sim_total_latency_us"):
            assert a["metrics"][name] == b["metrics"][name]

    def test_gc_heavy_scenario_stalls_on_gc(self):
        entry = run_scenario("gc_heavy", quick=True)
        assert entry["attribution"]["phase_totals_us"]["gc_stall_us"] > 0

    def test_faulted_scenario_pays_ecc_retries(self):
        entry = run_scenario("faulted", quick=True)
        assert entry["attribution"]["phase_totals_us"]["ecc_retry_us"] > 0


class TestRunBench:
    def test_document_is_schema_versioned(self, quick_doc):
        assert quick_doc["schema_version"] == SCHEMA_VERSION
        assert quick_doc["quick"] is True
        assert set(quick_doc["scenarios"]) == {"mix2_shared", "fastmodel"}

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            run_bench(quick=True, scenarios=["nope"])

    def test_scenario_registry(self):
        assert set(SCENARIOS) == {
            "mix2_shared", "mix4_split", "gc_heavy", "faulted", "fastmodel",
            "drift_hotspot", "phase_change", "noisy_neighbor",
        }


class TestWriteBench:
    def test_writes_timestamped_json(self, quick_doc, tmp_path):
        path = write_bench(quick_doc, tmp_path / "out")
        assert path.name.startswith("BENCH_")
        assert path.name.endswith(".json")
        back = json.loads(path.read_text())
        assert back["schema_version"] == SCHEMA_VERSION
        assert back["scenarios"]["mix2_shared"]["requests"] == 600


class TestCompare:
    def test_identical_docs_pass(self):
        doc = make_doc()
        assert compare(doc, doc, max_regression_pct=30.0) == []

    def test_wall_clock_regression_detected(self):
        base = make_doc(wall_s=0.5)
        cur = make_doc(wall_s=0.8)  # +60%
        regs = compare(cur, base, max_regression_pct=30.0)
        assert [r.metric for r in regs] == ["wall_s"]
        assert regs[0].change_pct == pytest.approx(60.0)
        assert "mix2_shared.wall_s" in regs[0].describe()

    def test_throughput_regression_is_direction_aware(self):
        base = make_doc(rps=1000.0)
        # throughput going UP is an improvement, not a regression
        assert compare(make_doc(rps=2000.0), base, max_regression_pct=30.0) == []
        regs = compare(make_doc(rps=500.0), base, max_regression_pct=30.0)
        assert [r.metric for r in regs] == ["requests_per_s"]

    def test_wall_clock_improvement_passes(self):
        base = make_doc(wall_s=0.5)
        assert compare(make_doc(wall_s=0.1), base, max_regression_pct=30.0) == []

    def test_deterministic_metric_regression_detected(self):
        base = make_doc(read_us=100.0)
        regs = compare(make_doc(read_us=150.0), base, max_regression_pct=30.0)
        assert [r.metric for r in regs] == ["sim_mean_read_us"]

    def test_sub_floor_wall_metrics_are_skipped(self):
        # both runs under the noise floor: wall-clock percent thresholds
        # are meaningless, but deterministic metrics still compare
        base = make_doc(wall_s=0.004, rps=150000.0)
        cur = make_doc(wall_s=0.016, rps=37000.0)  # 4x wall noise
        assert compare(cur, base, max_regression_pct=30.0) == []
        cur = make_doc(wall_s=0.016, rps=37000.0, read_us=200.0)
        regs = compare(cur, base, max_regression_pct=30.0)
        assert [r.metric for r in regs] == ["sim_mean_read_us"]

    def test_schema_mismatch_refused(self):
        base = make_doc()
        bad = copy.deepcopy(base)
        bad["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            compare(bad, base, max_regression_pct=30.0)
        with pytest.raises(ValueError, match="schema_version"):
            compare(base, bad, max_regression_pct=30.0)

    def test_quick_full_mismatch_refused(self):
        with pytest.raises(ValueError, match="quick"):
            compare(make_doc(quick=True), make_doc(quick=False),
                    max_regression_pct=30.0)

    def test_negative_threshold_rejected(self):
        doc = make_doc()
        with pytest.raises(ValueError):
            compare(doc, doc, max_regression_pct=-1.0)

    def test_simulated_metrics_have_zero_tolerance(self):
        # the committed baseline with one simulated metric 20% worse:
        # inside --max-regression, but the model's behaviour changed
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "benchmarks/baseline.json"
        baseline = json.loads(path.read_text())
        current = copy.deepcopy(baseline)
        metrics = current["scenarios"]["gc_heavy"]["metrics"]
        metrics["sim_mean_write_us"] *= 1.2
        regs = compare(current, baseline, max_regression_pct=30.0)
        assert [(r.scenario, r.metric) for r in regs] == [
            ("gc_heavy", "sim_mean_write_us")
        ]
        assert regs[0].change_pct == pytest.approx(20.0)
        # wall-clock inside the threshold still passes
        current = copy.deepcopy(baseline)
        for entry in current["scenarios"].values():
            entry["metrics"]["wall_s"] *= 1.2
        assert compare(current, baseline, max_regression_pct=30.0) == []

    def test_new_scenarios_and_metrics_are_skipped(self):
        base = make_doc()
        cur = copy.deepcopy(base)
        cur["scenarios"]["brand_new"] = {
            "metrics": {"wall_s": 99.0}
        }
        cur["scenarios"]["mix2_shared"]["metrics"]["novel_metric"] = 1.0
        assert compare(cur, base, max_regression_pct=30.0) == []


class TestCli:
    def run_main(self, args, capsys):
        code = run_cli(["bench", *args])
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_run_and_write(self, tmp_path, capsys):
        code, out, _ = self.run_main(
            ["--quick", "--scenario", "mix2_shared", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "mix2_shared" in out
        files = list(tmp_path.glob("BENCH_*.json"))
        assert len(files) == 1

    def test_json_output(self, tmp_path, capsys):
        code, out, _ = self.run_main(
            ["--quick", "--scenario", "fastmodel", "--json",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out[: out.rindex("}") + 1])
        assert doc["schema_version"] == SCHEMA_VERSION

    def test_baseline_pass_and_regression_exits(self, tmp_path, capsys):
        # write a baseline from a real quick run, then compare against it
        code, _, _ = self.run_main(
            ["--quick", "--scenario", "mix2_shared", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        baseline_path = next(tmp_path.glob("BENCH_*.json"))
        code, _, err = self.run_main(
            ["--quick", "--scenario", "mix2_shared", "--no-write",
             "--baseline", str(baseline_path), "--max-regression", "500"],
            capsys,
        )
        assert code == 0
        assert "baseline check passed" in err
        # poison the baseline's deterministic metric: must exit 1
        doc = json.loads(baseline_path.read_text())
        doc["scenarios"]["mix2_shared"]["metrics"]["sim_mean_read_us"] /= 10.0
        baseline_path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        code, _, err = self.run_main(
            ["--quick", "--scenario", "mix2_shared", "--no-write",
             "--out", str(out_dir),
             "--baseline", str(baseline_path), "--max-regression", "500"],
            capsys,
        )
        assert code == 1
        assert "REGRESSION" in err
        assert "sim_mean_read_us" in err
        # --no-write covers the forensics bundle too
        assert "forensics bundle" not in err
        assert not out_dir.exists()

    def test_regression_emits_forensics_bundle(self, tmp_path, capsys):
        from repro.obs.diff import load_diff

        code, _, _ = self.run_main(
            ["--quick", "--scenario", "mix2_shared", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        baseline_path = next(tmp_path.glob("BENCH_*.json"))
        doc = json.loads(baseline_path.read_text())
        doc["scenarios"]["mix2_shared"]["metrics"]["sim_mean_read_us"] /= 10.0
        baseline_path.write_text(json.dumps(doc))
        code, _, err = self.run_main(
            ["--quick", "--scenario", "mix2_shared",
             "--out", str(tmp_path), "--baseline", str(baseline_path),
             "--max-regression", "500"],
            capsys,
        )
        assert code == 1
        assert "forensics bundle" in err
        report = load_diff(
            json.loads((tmp_path / "diff_report.json").read_text())
        )
        assert report["kind"] == "bench"
        entry = report["sections"]["bench"]["scenarios"]["mix2_shared"]
        assert entry["metrics"]["sim_mean_read_us"]["classification"] == (
            "regressed"
        )
        # the regression ships with its attribution-delta waterfall
        assert "waterfall" in entry

    def test_update_baseline_writes_instead_of_comparing(self, tmp_path,
                                                         capsys):
        target = tmp_path / "nested" / "base.json"
        # poison the target first: --update-baseline must overwrite it
        # without ever comparing against the stale contents
        target.parent.mkdir()
        target.write_text(json.dumps({"schema_version": 99}))
        code, out, err = self.run_main(
            ["--quick", "--scenario", "fastmodel", "--no-write",
             "--update-baseline", "--baseline", str(target)],
            capsys,
        )
        assert code == 0
        assert f"updated baseline {target}" in err
        assert "REGRESSION" not in err
        doc = json.loads(target.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["quick"] is True
        assert "fastmodel" in doc["scenarios"]
        # the refreshed baseline round-trips through a normal check
        code, _, err = self.run_main(
            ["--quick", "--scenario", "fastmodel", "--no-write",
             "--baseline", str(target), "--max-regression", "500"],
            capsys,
        )
        assert code == 0
        assert "baseline check passed" in err

    def test_missing_baseline_exits_2(self, capsys):
        code, _, err = self.run_main(
            ["--quick", "--no-write", "--baseline", "/nonexistent.json"],
            capsys,
        )
        assert code == 2
        assert "cannot read baseline" in err

    def test_incomparable_baseline_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 99, "scenarios": {}}))
        code, _, err = self.run_main(
            ["--quick", "--scenario", "fastmodel", "--no-write",
             "--baseline", str(bad)],
            capsys,
        )
        assert code == 2
        assert "schema_version" in err

    def test_unknown_scenario_exits_2(self, capsys):
        code, _, err = self.run_main(
            ["--quick", "--scenario", "nope", "--no-write"], capsys
        )
        assert code == 2
        assert "unknown scenario" in err

    def test_repro_cli_delegates_bench(self, tmp_path, capsys):
        from repro.harness.cli import main as repro_main

        code = repro_main(
            ["bench", "--quick", "--scenario", "fastmodel",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert list(tmp_path.glob("BENCH_*.json"))


class TestCommittedBaseline:
    def test_repo_baseline_is_current_schema(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "benchmarks/baseline.json"
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["quick"] is True
        assert set(doc["scenarios"]) == set(SCENARIOS)


class TestSloArming:
    TIGHT_SPEC = {
        "window_us": 500.0,
        "tenants": {"0": {"write_p95_us": 200.0}},
        "gc_stall_fraction": 0.05,
        "burn": {
            "fast": {"windows": 2, "warn_burn": 1.5, "page_burn": 3.0},
            "slow": {"windows": 6, "warn_burn": 1.0, "page_burn": 2.0},
        },
    }

    def test_tight_slo_pages_and_dumps_bundle(self, tmp_path):
        entry = run_scenario("gc_heavy", quick=True, slo=self.TIGHT_SPEC,
                             flight_dir=tmp_path)
        slo = entry["slo"]
        assert slo["windows"] > 0
        assert slo["page_alerts"] >= 1
        assert len(slo["bundles"]) == 1
        manifest = json.loads(
            (tmp_path / "gc_heavy" / "bundle-00-slo-page" /
             "manifest.json").read_text()
        )
        assert manifest["trigger"] == "slo-page"
        assert manifest["replay"]["command"] == (
            "python -m repro bench --scenario gc_heavy --quick"
        )
        assert manifest["context"]["scenario"] == "gc_heavy"

    def test_fastmodel_ignores_slo(self):
        entry = run_scenario("fastmodel", quick=True, slo=self.TIGHT_SPEC)
        assert "slo" not in entry

    def test_metrics_unchanged_by_slo_arming(self):
        plain = run_scenario("gc_heavy", quick=True)
        armed = run_scenario("gc_heavy", quick=True, slo=self.TIGHT_SPEC)
        sim_keys = [k for k in plain["metrics"] if k.startswith("sim_")]
        assert sim_keys
        for key in sim_keys:
            assert armed["metrics"][key] == plain["metrics"][key]

    def test_unknown_tenant_rejected_against_scenario(self):
        from repro.obs import SloSpecError

        with pytest.raises(SloSpecError):
            run_scenario("mix2_shared", quick=True, slo={
                "window_us": 500.0,
                "tenants": {"9": {"read_p95_us": 1000.0}},
            })


class TestTrajectory:
    def write_run(self, tmp_path, created, *, quick=False, wall_s=0.5,
                  read_us=100.0, scenarios=("mix2_shared",)):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "created": created,
            "quick": quick,
            "repeat": 1,
            "python": "3.11.0",
            "platform": "test-host",
            "scenarios": {
                name: {
                    "kind": "simulator",
                    "requests": 600,
                    "metrics": {
                        "wall_s": wall_s,
                        "requests_per_s": 1000.0,
                        "sim_mean_read_us": read_us,
                        "sim_mean_write_us": read_us * 2,
                        "sim_total_latency_us": read_us * 1000,
                    },
                }
                for name in scenarios
            },
        }
        stamp = created.replace(":", "").replace("-", "")
        path = tmp_path / f"BENCH_{stamp}.json"
        path.write_text(json.dumps(doc))
        return path

    def test_loads_in_timestamp_order(self, tmp_path):
        from repro.harness.bench import load_trajectory

        self.write_run(tmp_path, "2026-01-02T00:00:00Z")
        self.write_run(tmp_path, "2026-01-01T00:00:00Z")
        runs = load_trajectory(tmp_path)
        assert [r["doc"]["created"] for r in runs] == [
            "2026-01-01T00:00:00Z", "2026-01-02T00:00:00Z",
        ]

    def test_skips_older_schema_file_with_warning(self, tmp_path):
        from repro.harness.bench import load_trajectory

        self.write_run(tmp_path, "2026-01-01T00:00:00Z")
        (tmp_path / "BENCH_bad.json").write_text('{"schema_version": 99}')
        with pytest.warns(UserWarning, match="skipping BENCH_bad.json"):
            runs = load_trajectory(tmp_path)
        assert [r["doc"]["created"] for r in runs] == ["2026-01-01T00:00:00Z"]

    def test_skips_invoke_on_skip_callback_with_reason(self, tmp_path):
        from repro.harness.bench import load_trajectory

        self.write_run(tmp_path, "2026-01-01T00:00:00Z")
        (tmp_path / "BENCH_old.json").write_text('{"schema_version": 99}')
        (tmp_path / "BENCH_trunc.json").write_text("{not json")
        skipped = []
        runs = load_trajectory(
            tmp_path, on_skip=lambda name, reason: skipped.append((name, reason))
        )
        assert len(runs) == 1
        assert sorted(name for name, _ in skipped) == [
            "BENCH_old.json", "BENCH_trunc.json",
        ]
        reasons = dict(skipped)
        assert "schema_version" in reasons["BENCH_old.json"]

    def test_skips_document_without_created_stamp(self, tmp_path):
        from repro.harness.bench import load_trajectory

        path = self.write_run(tmp_path, "2026-01-01T00:00:00Z")
        doc = json.loads(path.read_text())
        doc["created"] = None
        (tmp_path / "BENCH_nostamp.json").write_text(json.dumps(doc))
        skipped = []
        runs = load_trajectory(
            tmp_path, on_skip=lambda name, reason: skipped.append(reason)
        )
        assert len(runs) == 1
        assert "created" in skipped[0]

    def test_cli_trajectory_reports_skips_on_stderr(self, tmp_path, capsys):
        self.write_run(tmp_path, "2026-01-01T00:00:00Z")
        (tmp_path / "BENCH_bad.json").write_text("{not json")
        code = run_cli(["bench", "--trajectory", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "skipping BENCH_bad.json" in captured.err
        assert "BENCH_" in captured.out

    def test_format_shows_deltas_between_consecutive_runs(self, tmp_path):
        from repro.harness.bench import format_trajectory, load_trajectory

        self.write_run(tmp_path, "2026-01-01T00:00:00Z", wall_s=1.0,
                       read_us=100.0)
        self.write_run(tmp_path, "2026-01-02T00:00:00Z", wall_s=0.5,
                       read_us=110.0)
        text = format_trajectory(load_trajectory(tmp_path))
        assert "-50.0%" in text     # wall-clock halved
        assert "+10.0%" in text     # read latency drifted up
        assert "mix2_shared" in text

    def test_format_marks_incomparable_sizes(self, tmp_path):
        from repro.harness.bench import format_trajectory, load_trajectory

        self.write_run(tmp_path, "2026-01-01T00:00:00Z", quick=True)
        self.write_run(tmp_path, "2026-01-02T00:00:00Z", quick=False)
        text = format_trajectory(load_trajectory(tmp_path))
        assert "incomparable" in text

    def test_format_lists_new_scenarios(self, tmp_path):
        from repro.harness.bench import format_trajectory, load_trajectory

        self.write_run(tmp_path, "2026-01-01T00:00:00Z")
        self.write_run(tmp_path, "2026-01-02T00:00:00Z",
                       scenarios=("mix2_shared", "gc_heavy"))
        text = format_trajectory(load_trajectory(tmp_path))
        assert "new scenarios: gc_heavy" in text

    def test_empty_directory(self, tmp_path):
        from repro.harness.bench import format_trajectory, load_trajectory

        assert format_trajectory(load_trajectory(tmp_path)) == (
            "no BENCH_*.json files found"
        )

    def test_cli_trajectory_flag(self, tmp_path, capsys):
        self.write_run(tmp_path, "2026-01-01T00:00:00Z")
        self.write_run(tmp_path, "2026-01-02T00:00:00Z")
        code = run_cli(["bench", "--trajectory", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "BENCH_" in out and "->" in out

    def test_cli_trajectory_missing_dir_is_empty(self, tmp_path, capsys):
        code = run_cli(["bench", "--trajectory", str(tmp_path / "nope")])
        out = capsys.readouterr().out
        assert code == 0
        assert "no BENCH_*.json files found" in out

    def test_committed_benchmarks_stay_loadable(self):
        """The repo's own benchmarks/ directory must always parse."""
        from pathlib import Path

        from repro.harness.bench import load_trajectory

        bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
        runs = load_trajectory(bench_dir)
        assert len(runs) >= 2  # history exists, in order
        created = [r["doc"]["created"] for r in runs]
        assert created == sorted(created)
