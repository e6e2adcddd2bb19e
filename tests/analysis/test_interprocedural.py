"""R005 and R007 behavior: taint, schema contracts, src cleanliness."""

import json
import re
from pathlib import Path

import pytest

from repro.analysis import LintEngine, lint_paths

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src"


def _lint(tmp_path, source, *, module="repro.demo.sample", select=None):
    path = tmp_path / "sample.py"
    path.write_text(f"# repro-lint: module={module}\n{source}")
    return LintEngine(select=select).lint_file(path)


class TestSeedProvenance:
    def test_seed_parameter_is_clean(self, tmp_path):
        assert not _lint(
            tmp_path,
            "import random\n"
            "def build(seed):\n"
            "    return random.Random(seed)\n",
            select=["R005"],
        )

    def test_config_seed_field_is_clean(self, tmp_path):
        assert not _lint(
            tmp_path,
            "import random\n"
            "def build(cfg):\n"
            "    return random.Random(cfg.seed)\n",
            select=["R005"],
        )

    def test_literal_seed_is_clean(self, tmp_path):
        assert not _lint(
            tmp_path,
            "import numpy as np\n"
            "def build():\n"
            "    return np.random.default_rng(99)\n",
            select=["R005"],
        )

    def test_ambient_rng_flagged(self, tmp_path):
        (violation,) = _lint(
            tmp_path,
            "import numpy as np\n"
            "def build():\n"
            "    return np.random.default_rng()\n",
            select=["R005"],
        )
        assert violation.rule == "R005"
        assert "ambient" in violation.message

    def test_rng_stored_in_module_global_flagged(self, tmp_path):
        (violation,) = _lint(
            tmp_path,
            "import random\n"
            "_RNG = None\n"
            "def init(seed):\n"
            "    global _RNG\n"
            "    _RNG = random.Random(seed)\n",
            select=["R005"],
        )
        assert "module global" in violation.message

    def test_seed_fanout_into_two_rngs_flagged(self, tmp_path):
        violations = _lint(
            tmp_path,
            "import random\n"
            "def build(seed):\n"
            "    a = random.Random(seed)\n"
            "    b = random.Random(seed)\n"
            "    return a, b\n",
            select=["R005"],
        )
        assert violations, "fan-out of one seed into two RNGs must be flagged"
        assert any("fan" in v.message for v in violations)

    def test_taint_propagates_through_call_graph(self, tmp_path):
        # the seed arrives via an interprocedural edge: caller(seed) ->
        # _make(value) -> Random(value); no seed-named local in _make
        assert not _lint(
            tmp_path,
            "import random\n"
            "def _make(value):\n"
            "    return random.Random(value)\n"
            "def caller(seed):\n"
            "    return _make(seed)\n",
            select=["R005"],
        )

    def test_untraceable_seed_expression_flagged(self, tmp_path):
        (violation,) = _lint(
            tmp_path,
            "import random\n"
            "import time\n"
            "def build():\n"
            "    return random.Random(time.time())\n",
            select=["R005"],
        )
        assert violation.rule == "R005"


class TestSchemaRoundTrip:
    def test_writer_without_reader_flagged(self):
        # a hand-stamped dict literal has no declaration, hence no reader
        (violation,) = LintEngine().lint_file(FIXTURES / "r007_schema.py")
        assert violation.rule == "R007"
        assert "hand-stamped" in violation.message

    def test_matched_writer_reader_pair_is_clean(self, tmp_path):
        assert not _lint(
            tmp_path,
            "from repro.schema import Schema\n"
            "DOC = Schema('doc', 2, required=('items',), optional=('count',))\n"
            "def write(items):\n"
            "    return DOC.stamp(items=items, count=len(items))\n"
            "def load(doc):\n"
            "    return DOC.load(doc)\n",
            select=["R007"],
        )

    def test_field_mismatch_flagged(self, tmp_path):
        (violation,) = _lint(
            tmp_path,
            "from repro.schema import Schema as S\n"
            "DOC = S('doc', 2, required=('items',))\n"
            "def write(items):\n"
            "    return DOC.stamp(items=items, extra_field=1)\n",
            select=["R007"],
        )
        assert "field mismatch" in violation.message
        assert "extra_field" in violation.message
        assert "'items'" not in violation.message

    def test_private_and_augmented_keys(self, tmp_path):
        # doc['added'] = ... counts as a writer field; _private does not
        violations = _lint(
            tmp_path,
            "from repro.schema import Schema\n"
            "DOC = Schema('doc', 1)\n"
            "def write():\n"
            "    doc = DOC.stamp(_private=0)\n"
            "    doc['added'] = 1\n"
            "    doc['_cache'] = 2\n"
            "    return doc\n",
            select=["R007"],
        )
        (violation,) = violations
        assert "added" in violation.message
        assert "_private" not in violation.message
        assert "_cache" not in violation.message

    def test_hand_stamped_store_and_keyword_flagged(self, tmp_path):
        violations = _lint(
            tmp_path,
            "def write(doc):\n"
            "    doc['schema_version'] = 1\n"
            "    return dict(schema_version=1, items=[])\n",
            select=["R007"],
        )
        assert [v.line for v in violations] == [3, 4]
        assert all("hand-stamped" in v.message for v in violations)


class TestSrcClean:
    def test_whole_src_clean_under_interprocedural_rules(self):
        report = lint_paths([SRC], select=["R005", "R007"])
        assert report.ok, [v.format() for v in report.active]

    def test_every_waiver_has_a_written_reason(self):
        report = lint_paths([SRC])
        assert report.ok, [v.format() for v in report.active]
        for violation in report.waived:
            assert violation.waiver_reason, violation.format()
            assert violation.waiver_reason.strip()


def _bench_case(tmp_path):
    from repro.harness.bench import BENCH_SCHEMA, load_bench, run_bench

    return BENCH_SCHEMA, load_bench, run_bench(scenarios=[])


def _hotpath_case(tmp_path):
    from repro.harness.hostprofile import (
        HOTPATH_SCHEMA, load_profile, profile_scenario,
    )

    report, _ = profile_scenario("fastmodel", quick=True, top=3)
    return HOTPATH_SCHEMA, load_profile, report


def _explain_case(tmp_path):
    from repro.harness.explain import (
        EXPLAIN_SCHEMA, explain_scenario, load_explain,
    )

    doc = explain_scenario("mix2_shared", quick=True, whatif=False)
    return EXPLAIN_SCHEMA, load_explain, doc


def _diff_case(tmp_path):
    from repro.obs.diff import DIFF_SCHEMA, build_diff_report, load_diff

    doc = build_diff_report("run", "a", "b", {"trace": {"identical": True}})
    return DIFF_SCHEMA, load_diff, doc


def _critpath_case(tmp_path):
    from repro.obs.critpath import (
        CRITPATH_SCHEMA, extract_critical_path, load_report,
    )

    return CRITPATH_SCHEMA, load_report, extract_critical_path([], 0.0).to_dict()


def _whatif_case(tmp_path):
    from repro.obs.whatif import WHATIF_SCHEMA, WhatIfReport, load_report

    report = WhatIfReport(
        baseline_total_latency_us=1.0, baseline_makespan_us=1.0,
        baseline_mean_read_us=1.0, baseline_mean_write_us=1.0,
        requests=0, rows=[],
    )
    return WHATIF_SCHEMA, load_report, report.to_dict()


def _telemetry_case(tmp_path):
    from repro.obs.telemetry import TELEMETRY_SCHEMA, TelemetrySink, load_header

    return TELEMETRY_SCHEMA, load_header, TelemetrySink(100.0).header()


def _flight_case(tmp_path):
    from repro.obs.flightrecorder import (
        FLIGHT_SCHEMA, FlightRecorder, load_manifest,
    )

    bundle = FlightRecorder(tmp_path / "written").dump("test")
    doc = json.loads((bundle / "manifest.json").read_text())

    def load(manifest):
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        return load_manifest(tmp_path)

    return FLIGHT_SCHEMA, load, doc


def _slo_case(tmp_path):
    from repro.obs.slo import SLO_SCHEMA, SloSpec

    doc = SloSpec.from_dict({"window_us": 100.0}).to_dict()
    return SLO_SCHEMA, lambda spec: SloSpec.from_dict(spec).to_dict(), doc


def _lint_report_case(tmp_path):
    from repro.analysis.engine import REPORT_SCHEMA, load_report_dict

    doc = lint_paths([FIXTURES / "r007_schema.py"]).to_dict()
    return REPORT_SCHEMA, load_report_dict, doc


#: declaration name -> case(tmp_path) giving (declaration, its public
#: reader taking a document, a document its writer produced)
SCHEMA_CASES = {
    "BENCH_SCHEMA": _bench_case,
    "HOTPATH_SCHEMA": _hotpath_case,
    "EXPLAIN_SCHEMA": _explain_case,
    "DIFF_SCHEMA": _diff_case,
    "CRITPATH_SCHEMA": _critpath_case,
    "WHATIF_SCHEMA": _whatif_case,
    "TELEMETRY_SCHEMA": _telemetry_case,
    "FLIGHT_SCHEMA": _flight_case,
    "SLO_SCHEMA": _slo_case,
    "REPORT_SCHEMA": _lint_report_case,
}

declared_schemas = pytest.mark.parametrize("case", SCHEMA_CASES)


class TestSchemaReaders:
    """Every declared format's reader validates what its writer stamps."""

    def test_every_declaration_has_a_case(self):
        declared = {
            match.group(1)
            for path in sorted((SRC / "repro").rglob("*.py"))
            for match in re.finditer(
                r"^(\w+) = Schema\(", path.read_text(), re.MULTILINE
            )
        }
        assert declared == set(SCHEMA_CASES)

    @declared_schemas
    def test_writer_output_loads_back(self, case, tmp_path):
        schema, load, doc = SCHEMA_CASES[case](tmp_path)
        assert doc["schema_version"] == schema.version
        assert load(doc) == doc

    @declared_schemas
    def test_wrong_version_refused(self, case, tmp_path):
        schema, load, doc = SCHEMA_CASES[case](tmp_path)
        with pytest.raises(ValueError, match="schema_version"):
            load({**doc, "schema_version": 99})
        unversioned = {k: v for k, v in doc.items() if k != "schema_version"}
        if schema.version_required:
            with pytest.raises(ValueError, match="schema_version None"):
                load(unversioned)
        else:
            load(unversioned)

    @declared_schemas
    def test_each_required_field_is_required(self, case, tmp_path):
        schema, load, doc = SCHEMA_CASES[case](tmp_path)
        for name in schema.required:
            truncated = {k: v for k, v in doc.items() if k != name}
            with pytest.raises(ValueError, match="missing fields"):
                load(truncated)

    @declared_schemas
    def test_closed_schemas_refuse_unknown_fields(self, case, tmp_path):
        schema, load, doc = SCHEMA_CASES[case](tmp_path)
        if schema.closed:
            with pytest.raises(ValueError, match="unknown fields"):
                load({**doc, "surprise": 1})
        else:
            assert load({**doc, "surprise": 1})["surprise"] == 1

    def test_slo_spec_errors_stay_bad_spec_and_version_is_optional(self):
        from repro.obs.slo import SloSpec, SloSpecError

        for data in ({"schema_version": 99, "window_us": 1.0},
                     {"window_us": 1.0, "surprise": 1}, [1.0]):
            with pytest.raises(SloSpecError) as exc:
                SloSpec.from_dict(data)
            assert exc.value.code == "bad-spec"
        assert SloSpec.from_dict({"window_us": 1.0}).window_us == 1.0

    def test_bench_reader_rejects_truncated_doc(self):
        from repro.harness.bench import SCHEMA_VERSION, load_bench

        with pytest.raises(ValueError, match="missing fields"):
            load_bench({"schema_version": SCHEMA_VERSION})
        with pytest.raises(ValueError, match="schema_version"):
            load_bench({"schema_version": 99})

    def test_slo_spec_rejects_wrong_version(self):
        from repro.obs.slo import SloSpec, SloSpecError

        with pytest.raises(SloSpecError, match="schema_version"):
            SloSpec.from_dict({"schema_version": 99, "window_us": 100.0})
        spec = SloSpec.from_dict({"schema_version": 1, "window_us": 100.0})
        doc = spec.to_dict()
        again = SloSpec.from_dict(doc)
        assert again.to_dict() == doc

    def test_critpath_whatif_telemetry_flight_readers(self, tmp_path):
        from repro.obs.critpath import load_report as load_critpath
        from repro.obs.flightrecorder import (
            FLIGHT_SCHEMA_VERSION, load_manifest,
        )
        from repro.obs.telemetry import load_header
        from repro.obs.whatif import load_report as load_whatif

        for loader in (load_critpath, load_whatif, load_header):
            with pytest.raises(ValueError, match="schema_version"):
                loader({"schema_version": 99})
        manifest = {
            "schema_version": FLIGHT_SCHEMA_VERSION,
            "trigger": "test", "detail": "", "time_us": 0.0,
            "context": {}, "replay": {}, "bundle_files": [],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert load_manifest(tmp_path) == manifest

    def test_explain_and_profile_readers(self):
        from repro.harness.explain import load_explain
        from repro.harness.hostprofile import load_profile

        with pytest.raises(ValueError, match="schema_version"):
            load_explain({"schema_version": 99})
        with pytest.raises(ValueError, match="schema_version"):
            load_profile({"schema_version": 99})
        with pytest.raises(ValueError, match="missing"):
            load_explain({"schema_version": 2})
