"""Lint reporting: waiver grammar regression, byte-identical determinism,
the parse memo's invalidation."""

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import lint_paths
from repro.analysis.engine import ModuleSource, _parse_waivers

REPO = Path(__file__).resolve().parents[2]


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


class TestWaiverGrammar:
    """Regression: reasons containing parens must survive intact."""

    def test_parenthesised_reason_not_truncated(self):
        waivers = _parse_waivers(
            "x = 1  # repro-lint: disable=R001 "
            "(1/rps is seconds (SI), so the product is unitless)\n"
        )
        (waiver,) = waivers.values()
        assert waiver.reason == "1/rps is seconds (SI), so the product is unitless"
        assert waiver.justified

    def test_nested_parens_and_trailing_text(self):
        waivers = _parse_waivers(
            "y = 2  # repro-lint: disable=R004 (t0 (epoch) plus dt (us))\n"
        )
        (waiver,) = waivers.values()
        assert waiver.reason == "t0 (epoch) plus dt (us)"

    def test_multiple_codes_with_parens_in_reason(self):
        waivers = _parse_waivers(
            "z = 3  # repro-lint: disable=R001,R004 (a (b) c)\n"
        )
        (waiver,) = waivers.values()
        assert waiver.codes == frozenset({"R001", "R004"})
        assert waiver.reason == "a (b) c"

    def test_missing_reason_is_unjustified(self):
        waivers = _parse_waivers("w = 4  # repro-lint: disable=R001\n")
        (waiver,) = waivers.values()
        assert not waiver.justified

    def test_waiver_with_paren_reason_end_to_end(self, tmp_path):
        path = tmp_path / "sample.py"
        path.write_text(
            "def f(rps):\n"
            "    wait_us = 1e6 / rps  # repro-lint: disable=R001 "
            "(1/rps is seconds (SI), scaled by 1e6 to us)\n"
        )
        report = lint_paths([path])
        assert report.ok
        if report.waived:  # only if R001 actually fired on this shape
            assert "(SI)" in report.waived[0].waiver_reason


class TestDeterminism:
    def test_json_report_byte_identical_across_invocations(self):
        args = ("--json", "tests/analysis/fixtures")
        first = _cli(*args)
        second = _cli(*args)
        assert first.stdout == second.stdout
        assert first.stdout.encode() == second.stdout.encode()


class TestParseCache:
    def test_stale_entry_invalidated_on_change(self, tmp_path):
        sample = tmp_path / "sample.py"
        sample.write_text("A = 1\n")
        assert "A = 1" in ModuleSource.load(sample).text
        os.utime(sample, ns=(1, 1))  # force distinct mtime either side
        sample.write_text("B = 2\n")
        assert "B = 2" in ModuleSource.load(sample).text
