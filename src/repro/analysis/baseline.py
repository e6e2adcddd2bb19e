"""Committed suppression baseline for pre-existing findings.

Turning a new interprocedural rule on over a grown tree usually surfaces
findings that predate the rule.  Fixing them all in the enabling PR is
the goal, but when that is not practical the baseline lets the gate land
*now* without grandfathering future regressions: findings whose
fingerprint appears in the committed baseline file are reported as
``suppressed`` (visible in JSON/SARIF, excluded from the exit code), and
**stale entries fail the run** — the moment a baselined finding is fixed,
its entry must be deleted, so the baseline only ever shrinks.

Fingerprints are content-addressed (rule + path + source line text +
occurrence index, see :mod:`repro.analysis.engine`), so reflowing code
above a finding does not churn the baseline.
"""

from __future__ import annotations

from dataclasses import replace
import json
from pathlib import Path

from ..schema import Schema
from .engine import Report, Violation

__all__ = [
    "BASELINE_SCHEMA_VERSION",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
    "stale_entries",
]

BASELINE_SCHEMA_VERSION = 1

BASELINE_SCHEMA = Schema(
    "baseline", BASELINE_SCHEMA_VERSION, required=("entries",),
)
_ENTRY_FIELDS = frozenset({"fingerprint", "rule", "path", "message"})


def load_baseline(path: Path | str) -> dict:
    """Read and validate a baseline document (the round-trip reader)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = BASELINE_SCHEMA.load(json.load(fh))
    if not isinstance(doc["entries"], list):
        raise ValueError("baseline 'entries' must be a list")
    for entry in doc["entries"]:
        bad = _ENTRY_FIELDS - set(entry)
        if bad:
            raise ValueError(f"baseline entry missing fields: {sorted(bad)}")
    return doc


def write_baseline(report: Report, path: Path | str) -> int:
    """Write the current *active* findings as the new baseline."""
    entries = [
        {
            "fingerprint": v.fingerprint,
            "rule": v.rule,
            "path": Path(v.path).as_posix(),
            "message": v.message,
        }
        for v in report.active
    ]
    entries.sort(key=lambda e: (e["path"], e["rule"], e["fingerprint"]))
    doc = BASELINE_SCHEMA.stamp(entries=entries)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return len(entries)


def apply_baseline(report: Report, baseline: dict) -> Report:
    """Mark active findings matching baseline fingerprints as suppressed."""
    fingerprints = {entry["fingerprint"] for entry in baseline["entries"]}
    if not fingerprints:
        return report
    violations = [
        replace(v, suppressed=True)
        if not v.waived and v.fingerprint in fingerprints
        else v
        for v in report.violations
    ]
    return Report(violations=violations, files=report.files, rules=report.rules)


def stale_entries(report: Report, baseline: dict) -> list[dict]:
    """Baseline entries whose finding no longer exists (must be deleted)."""
    current = {v.fingerprint for v in report.violations}
    return [
        entry for entry in baseline["entries"]
        if entry["fingerprint"] not in current
    ]
