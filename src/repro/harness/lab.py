"""What every ``repro`` lab subcommand shares: flags, inputs, outputs.

A lab module exposes ``add_arguments(parser)`` and ``run(args) -> int``
(0 = success, 1 = regression/alert/divergence); bad input raises
:class:`UsageError`, which :mod:`repro.harness.cli` turns into exit 2.
Stdout carries exactly one thing, the rendered text or the ``--json``
document (:func:`emit`); notes such as ``wrote ...`` go to stderr
(:func:`note`), so ``--json`` output always parses.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from .. import schema

__all__ = [
    "UsageError",
    "SHARED_FLAGS",
    "add_shared",
    "scenario_name",
    "count",
    "emit",
    "note",
    "read_json",
    "writing",
    "write_json",
]


class UsageError(Exception):
    """Bad input on the command line; the subcommand exits 2."""


def scenario_name(name: str) -> str:
    """argparse ``type`` of ``--scenario``: a :mod:`repro.workloads.scenarios` name."""
    from ..workloads.scenarios import lookup

    try:
        lookup(name)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    return name


def count(text: str) -> int:
    """argparse ``type`` of a flag that counts something (at least one)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


#: flags several labs share, declared once; a lab may override keywords
#: (help, default, ...) where the flag means something narrower there
SHARED_FLAGS: dict[str, dict] = {
    "--json": dict(
        action="store_true",
        help="print the full report document to stdout as JSON",
    ),
    "--out": dict(
        metavar="FILE",
        help="also write the report document to FILE as JSON",
    ),
    "--quick": dict(action="store_true", help="small trace (CI smoke size)"),
    "--scenario": dict(
        metavar="NAME",
        type=scenario_name,
        help="seeded scenario to run",
    ),
    "--sanitize": dict(
        action="store_true",
        help="attach the runtime sanitizer and report its check counters",
    ),
    "--slo": dict(
        metavar="FILE",
        help="arm the SLO watchdog with this JSON spec (see "
        "examples/slo.json)",
    ),
    "--flight-dir": dict(
        metavar="DIR",
        help="arm the flight recorder: failures and page alerts dump "
        "reproducible debug bundles under DIR",
    ),
    "--chrome-trace": dict(
        metavar="FILE",
        help="write the trace in Chrome trace format (chrome://tracing)",
    ),
}


def add_shared(parser, *flags: str, **overrides) -> None:
    """Add the named shared flags to ``parser`` (or an argument group);
    ``overrides`` replace declaration keywords for all of them."""
    for flag in flags:
        parser.add_argument(flag, **{**SHARED_FLAGS[flag], **overrides})


def emit(args, doc, text: str | None) -> None:
    """Print the ``--json`` document, or else the rendered ``text``
    (``None`` when the lab already printed its text as it ran)."""
    if args.json:
        print(schema.dumps(doc))
    elif text is not None:
        print(text)


def note(message: str) -> None:
    """A side note for the operator (``wrote ...``); never on stdout."""
    print(message, file=sys.stderr)


def read_json(path, *, what: str):
    """Load a JSON input named on the command line."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from None


@contextmanager
def writing(path):
    """Create ``path``'s parent directory; an OSError inside the block
    (unwritable path) becomes a usage error."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def write_json(path, doc) -> Path:
    """Write ``doc`` to ``path`` as :func:`repro.schema.write_json` does."""
    with writing(path):
        return schema.write_json(path, doc)
