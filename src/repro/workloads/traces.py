"""Trace file I/O.

A trace file is a plain-text, one-record-per-line format close to the MSR
Cambridge CSV layout consumed by SSDSim-family simulators::

    # repro-trace v1
    arrival_us,workload_id,op,lpn,length
    0.000,0,R,1024,4
    13.520,1,W,77,1

Comments (``#``) and blank lines are ignored.  Round-tripping preserves all
request fields (arrival times to the nanosecond, three decimals of a
microsecond).

Real-world trace files are routinely dirty (truncated last lines, stray
headers from concatenation, locale-mangled numbers), so by default the
parser *skips* malformed records and reports them once at end of iteration
as a counted :class:`MalformedTraceWarning`.  Pass ``strict=True`` —
the escape hatch for pipelines that would rather die than drop records —
to restore the raise-on-first-error behaviour.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, TextIO
import warnings

from ..ssd.request import IORequest, OpType

__all__ = [
    "MalformedTraceWarning",
    "dump",
    "load",
    "iter_records",
]


class MalformedTraceWarning(UserWarning):
    """Malformed trace lines were skipped during lenient parsing."""

_HEADER = "# repro-trace v1"
_COLUMNS = "arrival_us,workload_id,op,lpn,length"


def dump(requests: Iterable[IORequest], path: str | Path) -> None:
    """Write requests to ``path`` in trace format (arrivals to 1 ns)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_HEADER + "\n")
        fh.write(_COLUMNS + "\n")
        for r in requests:
            fh.write(
                f"{r.arrival_us:.3f},{r.workload_id},{r.op},{r.lpn},{r.length}\n"
            )


def load(path: str | Path, *, strict: bool = False) -> list[IORequest]:
    """Read a trace file back into request objects."""
    with open(path, "r", encoding="utf-8") as fh:
        return list(iter_records(fh, strict=strict))


def _parse_line(parts: list[str], lineno: int) -> IORequest:
    if len(parts) != 5:
        raise ValueError(f"line {lineno}: expected 5 fields, got {len(parts)}")
    try:
        return IORequest(
            arrival_us=float(parts[0]),  # repro-lint: disable=R001 (trace column 0 is microseconds by format)
            workload_id=int(parts[1]),
            op=OpType.from_str(parts[2]),
            lpn=int(parts[3]),
            length=int(parts[4]),
        )
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from exc


def iter_records(fh: TextIO, *, strict: bool = False) -> Iterator[IORequest]:
    """Stream-parse trace records from an open text file.

    Malformed lines are skipped and counted; after the stream drains, one
    :class:`MalformedTraceWarning` reports the skip count and the first
    error.  ``strict=True`` raises ``ValueError`` on the first bad line
    instead.
    """
    skipped = 0
    first_error: str | None = None
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == _COLUMNS:
            continue
        try:
            record = _parse_line(line.split(","), lineno)
        except ValueError as exc:
            if strict:
                raise
            skipped += 1
            if first_error is None:
                first_error = str(exc)
            continue
        yield record
    if skipped:
        warnings.warn(
            f"skipped {skipped} malformed trace line(s); first: {first_error}",
            MalformedTraceWarning,
            stacklevel=2,
        )
