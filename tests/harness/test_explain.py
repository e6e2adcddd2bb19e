"""``repro explain`` CLI and library surface."""

import json

import pytest

from repro.harness.explain import EXPLAIN_SCHEMA_VERSION, explain_scenario

from .test_cli_exit_codes import run_cli


@pytest.fixture(scope="module")
def gc_heavy_doc():
    """One quick explained run shared by the read-only assertions."""
    return explain_scenario("gc_heavy", quick=True, sanitize=True)


class TestExplainScenario:
    def test_document_shape(self, gc_heavy_doc):
        doc = gc_heavy_doc
        assert doc["schema_version"] == EXPLAIN_SCHEMA_VERSION == 2
        assert "decisions" not in doc
        assert doc["scenario"] == "gc_heavy"
        assert doc["quick"] is True
        assert doc["requests"] == 600
        assert doc["makespan_us"] > 0

    def test_critpath_sums_to_makespan(self, gc_heavy_doc):
        critpath = gc_heavy_doc["critpath"]
        covered = sum(
            sum(row.values()) for row in critpath["resources"].values()
        )
        covered += critpath["host_gap_us"] + critpath["internal_tail_us"]
        covered += critpath["residual_us"]
        assert covered == pytest.approx(gc_heavy_doc["makespan_us"], abs=1e-6)
        assert abs(critpath["residual_us"]) <= 1e-6

    def test_whatif_table_nonempty_and_verified(self, gc_heavy_doc):
        rows = gc_heavy_doc["whatif"]["counterfactuals"]
        ok = [r for r in rows if r["status"] == "ok"]
        assert ok, "virtual-speedup table must not be empty"
        assert ok[0]["verified"] is True

    def test_sanitizer_counters_present(self, gc_heavy_doc):
        stats = gc_heavy_doc["sanitizer"]
        assert stats["attribution_checks"] == 600
        assert stats["critpath_checks"] == 1

    def test_report_objects_attached(self, gc_heavy_doc):
        assert gc_heavy_doc["_critpath_report"].critical_requests > 0
        assert gc_heavy_doc["_whatif_report"].best() is not None

    def test_rejects_fastmodel_scenario(self):
        with pytest.raises(ValueError, match="fastmodel"):
            explain_scenario("fastmodel", quick=True)

    def test_unknown_scenario_raises_keyerror(self):
        with pytest.raises(KeyError):
            explain_scenario("nope", quick=True)


class TestMain:
    def test_json_output_and_out_file(self, tmp_path, capsys):
        out = tmp_path / "explain.json"
        code = run_cli([
            "explain", "--scenario", "gc_heavy", "--quick", "--no-whatif",
            "--json", "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        doc = json.loads(printed[: printed.rindex("}") + 1])
        assert doc["critpath"]["critical_requests"] > 0
        on_disk = json.loads(out.read_text())
        assert on_disk["schema_version"] == EXPLAIN_SCHEMA_VERSION
        assert "_critpath_report" not in on_disk  # objects never serialized

    def test_table_output(self, capsys):
        code = run_cli(["explain", "--scenario", "gc_heavy", "--quick",
                        "--no-whatif", "--top", "3"])
        assert code == 0
        text = capsys.readouterr().out
        assert "critical path over" in text

    def test_unknown_scenario_exits_2(self, capsys):
        assert run_cli(["explain", "--scenario", "nope", "--quick"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_fastmodel_exits_2(self, capsys):
        assert run_cli(["explain", "--scenario", "fastmodel", "--quick"]) == 2
        assert "fastmodel" in capsys.readouterr().err
