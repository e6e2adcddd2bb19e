"""Human- and machine-readable output for lint reports.

Two formats, both deterministic (byte-identical across invocations over
the same tree):

* plain text — one line per violation plus a summary line;
* JSON — the schema-version-3 document (:func:`report_json`), read back
  by :func:`repro.analysis.engine.load_report_dict`.
"""

from __future__ import annotations

import json

from .engine import Report

__all__ = ["format_report", "report_json"]


def format_report(report: Report, *, show_waived: bool = False) -> str:
    """Plain-text report: one line per violation plus a summary line."""
    lines = [v.format() for v in report.active]
    if show_waived:
        lines.extend(v.format() for v in report.waived)
    counts = report.counts()
    suffix = f"; {len(report.waived)} waived"
    if counts:
        per_rule = ", ".join(f"{code}: {n}" for code, n in sorted(counts.items()))
        lines.append(
            f"{len(report.active)} violation(s) in {report.files} file(s) "
            f"({per_rule}){suffix}"
        )
    else:
        lines.append(
            f"clean: {report.files} file(s), 0 violations{suffix}"
        )
    return "\n".join(lines)


def report_json(report: Report) -> str:
    """Stable JSON document (schema version 3) for CI consumers."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=False)
