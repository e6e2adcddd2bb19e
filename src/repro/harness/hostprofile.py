"""``repro profile`` — host-side hot-path profiling of the simulator.

The ROADMAP's "raw speed: vectorized core" item needs a target list:
which *host* functions burn the wall-clock when the event-driven
simulator runs?  This module wraps :mod:`cProfile`/:mod:`pstats` around
one seeded bench scenario (the simulate call only — trace synthesis and
report assembly are excluded) and emits a schema-versioned hot-function
report:

* ``top_by_tottime`` — functions by own time (the vectorization
  candidates);
* ``top_by_cumtime`` — functions by inclusive time (the call-tree
  shape);
* optional **collapsed stacks** (``--collapsed``) — ``caller;callee``
  two-frame lines weighted by microseconds, directly feedable to
  ``flamegraph.pl`` / speedscope (cProfile keeps caller edges, not full
  stacks, so two frames is the honest depth).

``benchmarks/hotpath_baseline.json`` pins the report for the default
scenario so the upcoming vectorization PR can diff against it.  Host
wall-clock is machine-dependent: compare *shares and ranks*, not
absolute seconds.  Simulated metrics are unaffected by profiling — the
profiler observes the interpreter, not the event loop.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from pathlib import Path

from . import lab

__all__ = [
    "HOTPATH_SCHEMA_VERSION",
    "profile_scenario",
    "load_profile",
    "collapsed_stacks",
]

#: Bump when the document layout changes shape.
HOTPATH_SCHEMA_VERSION = 1

#: top-level fields of the hot-path report (R007 round-trip contract
#: with profile_scenario; hotpath_baseline.json diffs rely on these)
_HOTPATH_FIELDS = frozenset({
    "schema_version", "scenario", "kind", "quick", "requests", "wall_s",
    "sim_makespan_us", "total_calls", "total_tottime_s", "top_by_tottime",
    "top_by_cumtime",
})


def load_profile(doc: dict) -> dict:
    """Validate a hot-path report document (round-trip reader).

    The vectorization PR diffs new reports against the pinned baseline;
    this refuses version mismatches and truncated documents first.
    """
    if doc.get("schema_version") != HOTPATH_SCHEMA_VERSION:
        raise ValueError(
            f"hot-path report has schema_version "
            f"{doc.get('schema_version')!r}; this tool reads version "
            f"{HOTPATH_SCHEMA_VERSION}"
        )
    missing = _HOTPATH_FIELDS - set(doc)
    if missing:
        raise ValueError(
            f"hot-path report is missing fields: {sorted(missing)}"
        )
    return doc

#: path prefixes stripped from file names in reports, longest first
_REPO_ROOT = Path(__file__).resolve().parents[3]


def _relpath(filename: str) -> str:
    """Repo-relative source path (keeps reports machine-independent)."""
    if filename.startswith("<") or filename.startswith("~"):
        return filename  # builtins: '<built-in>', '~' pstats marker
    try:
        return Path(filename).resolve().relative_to(_REPO_ROOT).as_posix()
    except ValueError:
        # stdlib / site-packages: keep only the file name, the absolute
        # prefix is host noise
        return Path(filename).name


def _func_name(key: tuple) -> str:
    filename, _line, name = key
    if filename.startswith("<") or filename == "~":
        return name
    return f"{Path(filename).stem}.{name}"


def _entries(stats: pstats.Stats, *, key: str, top: int) -> list[dict]:
    rows = []
    for func, (_cc, ncalls, tottime_s, cumtime_s, _callers) in stats.stats.items():  # type: ignore[attr-defined]
        filename, line, name = func
        rows.append(
            {
                "function": _func_name(func),
                "file": _relpath(filename),
                "line": line,
                "name": name,
                "ncalls": ncalls,
                "tottime_s": tottime_s,
                "cumtime_s": cumtime_s,
            }
        )
    rows.sort(key=lambda row: (-row[key], row["file"], row["line"]))
    return rows[:top]


def collapsed_stacks(stats: pstats.Stats) -> list[str]:
    """Two-frame ``caller;callee weight`` lines for flamegraph tooling.

    The weight is the callee's own time attributed to that caller edge,
    in integer microseconds (flamegraph collapsers want integral sample
    counts).  Functions with no recorded caller appear as single frames.
    """
    lines: list[str] = []
    for func, (_cc, _nc, tottime_s, _ct, callers) in stats.stats.items():  # type: ignore[attr-defined]
        callee = _func_name(func)
        if not callers:
            weight = int(tottime_s * 1e6)
            if weight > 0:
                lines.append(f"{callee} {weight}")
            continue
        for caller, caller_stats in callers.items():
            # per-edge tuple: (cc, nc, tottime, cumtime) attributed to
            # calls arriving via this caller
            edge_tottime_s = caller_stats[2]
            weight = int(edge_tottime_s * 1e6)
            if weight > 0:
                lines.append(f"{_func_name(caller)};{callee} {weight}")
    lines.sort()
    return lines


def profile_scenario(
    name: str, *, quick: bool = False, top: int = 25
) -> tuple[dict, pstats.Stats]:
    """Profile one bench scenario; returns ``(report, pstats.Stats)``.

    Only the simulation call runs under the profiler; building the
    seeded trace does not pollute the report.  Raises ``KeyError`` for
    an unknown scenario.
    """
    from ..workloads.scenarios import build

    kind, requests, cfg, sets, faults = build(name, quick=quick)

    profiler = cProfile.Profile()
    t0_s = time.perf_counter()
    if kind == "fastmodel":
        from ..ssd.fastmodel import fast_simulate

        profiler.enable()
        result = fast_simulate(requests, cfg, sets)
        profiler.disable()
    else:
        from ..ssd.simulator import simulate

        profiler.enable()
        result = simulate(requests, cfg, sets, faults=faults)
        profiler.disable()
    wall_s = time.perf_counter() - t0_s

    stats = pstats.Stats(profiler)
    report = {
        "schema_version": HOTPATH_SCHEMA_VERSION,
        "scenario": name,
        "kind": kind,
        "quick": quick,
        "requests": len(requests),
        "wall_s": wall_s,
        "sim_makespan_us": result.makespan_us,
        "total_calls": stats.total_calls,  # type: ignore[attr-defined]
        "total_tottime_s": stats.total_tt,  # type: ignore[attr-defined]
        "top_by_tottime": _entries(stats, key="tottime_s", top=top),
        "top_by_cumtime": _entries(stats, key="cumtime_s", top=top),
    }
    return report, stats


def _render(report: dict) -> str:
    lines = [
        f"{report['scenario']} ({report['requests']} requests): "
        f"{report['wall_s']:.3f}s wall, {report['total_calls']} calls"
    ]
    lines.append("top functions by own time:")
    for row in report["top_by_tottime"]:
        share = (
            row["tottime_s"] / report["total_tottime_s"]
            if report["total_tottime_s"] else 0.0
        )
        lines.append(
            f"  {row['tottime_s']:>8.3f}s ({share:5.1%})  "
            f"{row['ncalls']:>9} calls  {row['function']}  "
            f"({row['file']}:{row['line']})"
        )
    return "\n".join(lines)


def add_arguments(parser) -> None:
    lab.add_shared(
        parser, "--scenario",
        default="gc_heavy",
        help="scenario to profile (default gc_heavy)",
    )
    lab.add_shared(parser, "--quick")
    parser.add_argument(
        "--top",
        type=lab.count,
        default=25,
        metavar="N",
        help="functions kept per ranking (default 25)",
    )
    lab.add_shared(parser, "--out")
    parser.add_argument(
        "--collapsed",
        metavar="FILE",
        help="write caller;callee collapsed stacks (microsecond weights) "
        "for flamegraph.pl / speedscope",
    )
    lab.add_shared(parser, "--json")


def run(args) -> int:
    """``repro profile``: 0 = profiled."""
    report, stats = profile_scenario(
        args.scenario, quick=args.quick, top=args.top
    )
    lab.emit(args, report, _render(report))
    if args.out:
        lab.note(f"wrote {lab.write_json(args.out, report)}")
    if args.collapsed:
        with lab.writing(args.collapsed), open(
            args.collapsed, "w", encoding="utf-8"
        ) as fh:
            fh.write("\n".join(collapsed_stacks(stats)) + "\n")
        lab.note(f"wrote {args.collapsed}")
    return 0
