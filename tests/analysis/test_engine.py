"""Lint engine: golden fixtures, waivers, selection, CLI contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import LintEngine, ModuleSource, lint_paths

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parents[2]

#: golden fixtures: file -> the one rule it must trigger
GOLDEN = {
    "r001_units.py": "R001",
    "r002_determinism.py": "R002",
    "r003_purity.py": "R003",
    "r003_probe.py": "R003",
    "r004_scheduling.py": "R004",
    "r005_seedflow.py": "R005",
    "r007_schema.py": "R007",
}


def _cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )


class TestGoldenFixtures:
    @pytest.mark.parametrize("filename,rule", sorted(GOLDEN.items()))
    def test_fixture_triggers_exactly_its_rule(self, filename, rule):
        violations = LintEngine().lint_file(FIXTURES / filename)
        assert len(violations) == 1, [v.format() for v in violations]
        assert violations[0].rule == rule
        assert not violations[0].waived

    def test_fixtures_scoped_by_module_pragma(self):
        # R002/R003 only apply inside repro.ssd / repro.core: the pragma is
        # what pulls the fixture into scope.  Without it, nothing fires.
        module = ModuleSource.parse(FIXTURES / "r002_determinism.py")
        assert module.module == "repro.ssd.fixture"
        module = ModuleSource.parse(FIXTURES / "r003_purity.py")
        assert module.module == "repro.core.fixture"
        module = ModuleSource.parse(FIXTURES / "r003_probe.py")
        assert module.module == "repro.ssd.fixture"
        # the interprocedural fixtures pin modules the same way
        module = ModuleSource.parse(FIXTURES / "r007_schema.py")
        assert module.module == "repro.fixture.store"


def test_unguarded_device_probe_is_flagged():
    # the device's one observer seam is opt-in like obs/faults/sanitizer:
    # only the unguarded ``self._probe`` call in ``complete`` fires
    [violation] = LintEngine(select=["R003"]).lint_file(FIXTURES / "r003_probe.py")
    assert "'self._probe.request_done' without a None-guard" in violation.message
    assert violation.line == 14


class TestModuleNames:
    def test_every_package_file_derives_its_path_name(self):
        src = REPO / "src"
        wrong = {}
        for path in sorted(src.rglob("*.py")):
            parts = list(path.relative_to(src).with_suffix("").parts)
            if parts[-1] == "__init__":
                parts.pop()
            derived = ModuleSource.parse(path).module
            if derived != ".".join(parts):
                wrong[str(path.relative_to(src))] = derived
        assert wrong == {}

    def test_pragma_counts_only_as_a_comment_line(self, tmp_path):
        quoted = tmp_path / "quoted.py"
        quoted.write_text('"""Pin it with ``# repro-lint: module=repro.ssd.x``."""\n')
        assert ModuleSource.parse(quoted).module == "quoted"
        pinned = tmp_path / "pinned.py"
        pinned.write_text('"""Doc."""\n# repro-lint: module=repro.ssd.x\n')
        assert ModuleSource.parse(pinned).module == "repro.ssd.x"


class TestWaivers:
    def test_justified_waiver_silences_but_is_reported(self):
        report = lint_paths([FIXTURES / "waived_ok.py"])
        assert report.ok
        assert len(report.waived) == 1
        waived = report.waived[0]
        assert waived.rule == "R001"
        assert "microseconds by format" in waived.waiver_reason

    def test_unjustified_waiver_keeps_violation_active(self):
        report = lint_paths([FIXTURES / "waiver_unjustified.py"])
        assert not report.ok
        assert len(report.active) == 1
        assert "waiver rejected" in report.active[0].message


class TestSelection:
    def test_select_filters_rules(self):
        report = lint_paths([FIXTURES / "r001_units.py"], select=["R004"])
        assert report.ok  # R001 fixture is clean under R004 alone

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown rule codes"):
            LintEngine(select=["R999"])


class TestUnitInference:
    """A few targeted lattice cases beyond the golden fixture."""

    def _lint_source(self, tmp_path, source):
        path = tmp_path / "sample.py"
        path.write_text(source)
        return LintEngine(select=["R001"]).lint_file(path)

    def test_conversion_is_provable(self, tmp_path):
        assert not self._lint_source(
            tmp_path, "def f(delay_ms):\n    delay_us = delay_ms * 1000.0\n"
        )

    def test_wrong_unit_flagged(self, tmp_path):
        violations = self._lint_source(
            tmp_path, "def f(delay_ms):\n    delay_us = delay_ms\n"
        )
        assert len(violations) == 1

    def test_mixed_unit_addition_flagged(self, tmp_path):
        violations = self._lint_source(
            tmp_path, "def f(a_us, b_ms):\n    worst = a_us + b_ms\n"
        )
        assert len(violations) == 1

    def test_now_is_known_microseconds(self, tmp_path):
        assert not self._lint_source(
            tmp_path, "def f(loop, wait_us):\n    end_us = loop.now + wait_us\n"
        )


class TestSchedulingRule:
    def _lint_source(self, tmp_path, source):
        path = tmp_path / "sample.py"
        path.write_text(source)
        return LintEngine(select=["R004"]).lint_file(path)

    def test_sorted_batch_of_durations_flagged(self, tmp_path):
        (violation,) = self._lint_source(
            tmp_path,
            "def f(loop, transfers_us, cb, jobs):\n"
            "    loop.schedule_sorted(transfers_us, cb, jobs)\n",
        )
        assert violation.rule == "R004"

    def test_sorted_batch_relative_to_now_passes(self, tmp_path):
        assert not self._lint_source(
            tmp_path,
            "def f(loop, cb, jobs):\n"
            "    loop.schedule_sorted([loop.now + 1.0], cb, jobs)\n",
        )


class TestCLI:
    def test_violations_exit_1_with_location(self):
        proc = _cli(str(FIXTURES / "r001_units.py"))
        assert proc.returncode == 1
        assert "r001_units.py:5" in proc.stdout
        assert "R001" in proc.stdout

    def test_clean_file_exits_0(self):
        proc = _cli(str(FIXTURES / "waived_ok.py"))
        assert proc.returncode == 0
        assert "clean" in proc.stdout

    def test_json_schema(self):
        proc = _cli("--json", str(FIXTURES / "r004_scheduling.py"))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["schema_version"] == 3
        assert payload["tool"]["name"] == "repro-analysis"
        assert payload["files"] == 1
        assert payload["ok"] is False
        assert payload["counts"] == {"R004": 1}
        (violation,) = payload["violations"]
        assert set(violation) == {
            "rule", "path", "line", "col", "message", "waived",
            "waiver_reason",
        }
        assert violation["rule"] == "R004"

    def test_json_round_trips_through_reader(self):
        from repro.analysis.engine import load_report_dict

        proc = _cli("--json", str(FIXTURES / "r004_scheduling.py"))
        doc = load_report_dict(json.loads(proc.stdout))
        assert doc["counts"] == {"R004": 1}

    def test_select_flag(self):
        proc = _cli("--select", "R002,R003", str(FIXTURES / "r001_units.py"))
        assert proc.returncode == 0

    def test_usage_errors_exit_2(self):
        assert _cli("--select", "R999", "src").returncode == 2
        assert _cli(str(FIXTURES / "no_such_file.txt")).returncode == 2
