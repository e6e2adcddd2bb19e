"""``repro profile`` host hot-path profiler."""

import json

import pytest

from repro.harness.hostprofile import (
    HOTPATH_SCHEMA_VERSION,
    collapsed_stacks,
    profile_scenario,
)

from .test_cli_exit_codes import run_cli


@pytest.fixture(scope="module")
def gc_heavy_profile():
    return profile_scenario("gc_heavy", quick=True, top=10)


class TestProfileScenario:
    def test_report_shape(self, gc_heavy_profile):
        report, _stats = gc_heavy_profile
        assert report["schema_version"] == HOTPATH_SCHEMA_VERSION
        assert report["scenario"] == "gc_heavy"
        assert report["kind"] == "simulator"
        assert report["requests"] == 600
        assert report["wall_s"] > 0
        assert report["total_calls"] > 0
        assert len(report["top_by_tottime"]) == 10
        assert len(report["top_by_cumtime"]) == 10

    def test_rankings_are_sorted(self, gc_heavy_profile):
        report, _stats = gc_heavy_profile
        tot = [row["tottime_s"] for row in report["top_by_tottime"]]
        cum = [row["cumtime_s"] for row in report["top_by_cumtime"]]
        assert tot == sorted(tot, reverse=True)
        assert cum == sorted(cum, reverse=True)

    def test_hot_functions_are_simulator_code(self, gc_heavy_profile):
        # the event-driven hot path must dominate: at least one of the
        # top own-time functions lives in repro.ssd
        report, _stats = gc_heavy_profile
        files = {row["file"] for row in report["top_by_tottime"]}
        assert any(f.startswith("src/repro/ssd/") for f in files)

    def test_paths_are_repo_relative(self, gc_heavy_profile):
        report, _stats = gc_heavy_profile
        for row in report["top_by_tottime"]:
            assert not row["file"].startswith("/")

    def test_entries_have_required_keys(self, gc_heavy_profile):
        report, _stats = gc_heavy_profile
        for row in report["top_by_tottime"]:
            assert {"function", "file", "line", "ncalls", "tottime_s",
                    "cumtime_s"} <= set(row)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            profile_scenario("nope", quick=True)

    def test_collapsed_stacks_format(self, gc_heavy_profile):
        _report, stats = gc_heavy_profile
        lines = collapsed_stacks(stats)
        assert lines
        for line in lines[:50]:
            frames, weight = line.rsplit(" ", 1)
            assert int(weight) > 0
            assert 1 <= len(frames.split(";")) <= 2


class TestMain:
    def test_writes_report_and_collapsed(self, tmp_path, capsys):
        out = tmp_path / "hot.json"
        folded = tmp_path / "hot.folded"
        code = run_cli([
            "profile", "--scenario", "gc_heavy", "--quick", "--top", "5",
            "--out", str(out), "--collapsed", str(folded),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == HOTPATH_SCHEMA_VERSION
        assert len(doc["top_by_tottime"]) == 5
        assert folded.read_text().strip()

    def test_unknown_scenario_exits_2(self, capsys):
        assert run_cli(["profile", "--scenario", "nope", "--quick"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
