"""``python -m repro.analysis [paths] [--json] [--select ...]``.

Exit status 0 when no *active* (unwaived) violations remain, 1 otherwise,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .engine import lint_paths
from .reporting import format_report, report_json

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Run the repro domain lints (R001-R005 and R007, including the "
            "interprocedural seed-provenance and schema round-trip rules) "
            "over files or trees."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report (schema version 3)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run (e.g. R001,R005)",
    )
    parser.add_argument(
        "--show-waived",
        action="store_true",
        help="also print waived violations in text output",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    select = None
    if args.select:
        select = [code for code in args.select.split(",") if code.strip()]

    try:
        report = lint_paths(args.paths, select=select)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(report_json(report))
    else:
        print(format_report(report, show_waived=args.show_waived))
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
