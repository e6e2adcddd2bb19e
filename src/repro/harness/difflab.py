"""``repro diff`` — differential forensics over recorded artifacts.

Front-end for :mod:`repro.obs.diff`: every mode compares two artifacts
of the same kind and emits one schema-versioned, byte-deterministic
``diff_report.json`` (plus a human summary).  ``repro diff bench``
classifies with the same rule as the ``repro bench --baseline`` check
(:func:`repro.harness.bench.diff_bench_docs`); ``repro diff run``
without ``--scale`` is the self-diff that must come back empty (the
determinism assertion CI leans on).

Exit codes follow the harness contract: **0** clean (identical, or no
regressions for the artifact kinds where benign deltas are expected),
**1** localized divergence/regression, **2** usage error.  ``run`` and
``trace`` diffs are determinism assertions, so *any* divergence exits 1;
``bench`` / ``critpath`` / ``fleet`` diffs exit 1 only on regressions.
"""

from __future__ import annotations

import json

from . import lab


def _parse_scale(spec: str) -> tuple[str, float]:
    knob, sep, factor = spec.partition("=")
    if not sep or not knob:
        raise ValueError(
            f"--scale expects KNOB=FACTOR, got {spec!r}"
        )
    try:
        value = float(factor)
    except ValueError:
        raise ValueError(
            f"--scale factor must be a number, got {factor!r}"
        ) from None
    return knob, value


def _critpath_doc(doc: dict) -> dict:
    """Accept a raw critpath report or an explain document wrapping one."""
    if "critpath" in doc and "schema_version" in doc:
        from .explain import load_explain

        return load_explain(doc)["critpath"]
    return doc


def _exit_code(report: dict) -> int:
    # run/trace diffs assert determinism: any divergence is a failure;
    # the artifact diffs tolerate benign movement and fail on regressions
    if report["kind"] in ("run", "trace"):
        return 0 if report["identical"] else 1
    return 1 if report["regressions"] else 0


# ----------------------------------------------------------------------
# Human rendering
# ----------------------------------------------------------------------
def _format_metric_cells(cells: dict, *, indent: str = "  ") -> list[str]:
    lines = []
    for metric, cell in cells.items():
        if cell["classification"] == "neutral":
            continue
        pct = (
            f" ({cell['delta_pct']:+.1f}%)"
            if cell["delta_pct"] is not None else ""
        )
        lines.append(
            f"{indent}{metric}: {cell['a']:g} -> {cell['b']:g}"
            f"{pct} [{cell['classification']}]"
        )
    return lines


def _render(report: dict) -> str:
    head = (
        f"diff[{report['kind']}] {report['label_a']} vs {report['label_b']}: "
    )
    if report["identical"]:
        head += "identical"
    else:
        head += (
            f"{report['divergences']} divergences, "
            f"{report['regressions']} regressions"
        )
    lines = [head]
    sections = report["sections"]
    bench = sections.get("bench")
    if bench is not None:
        for name, entry in bench["scenarios"].items():
            cells = _format_metric_cells(entry["metrics"], indent="    ")
            if not cells:
                continue
            lines.append(f"  {name}:")
            lines.extend(cells)
            waterfall = entry.get("waterfall")
            if waterfall and waterfall[0]["delta_us"]:
                top = waterfall[0]
                lines.append(
                    f"    waterfall: {top['phase']} moved "
                    f"{top['delta_us']:+.1f}us ({top['share']:.0%} of shift)"
                )
        for side, names in (("a", bench["only_in_a"]),
                            ("b", bench["only_in_b"])):
            if names:
                lines.append(f"  only in {side}: {', '.join(names)}")
    metrics = sections.get("metrics")
    if metrics is not None:
        lines.extend(_format_metric_cells(metrics["metrics"]))
    trace = sections.get("trace")
    if trace is not None:
        first = trace["first_divergence"]
        if first is None:
            lines.append(
                f"  trace: {trace['events_a']} events, streams identical"
            )
        else:
            where = ", ".join(
                f"{key} {first[key]}"
                for key in ("tenant", "channel", "die")
                if first[key] is not None
            )
            ts = first["time_us_a"]
            if ts is None:
                ts = first["time_us_b"]
            lines.append(
                f"  trace: first divergence at event #{first['index']} "
                f"(t={ts:.2f}us, {first['kind']}"
                + (f", {where}" if where else "")
                + f"); {trace['divergent_events']} divergent downstream"
            )
    critpath = sections.get("critpath")
    if critpath is not None:
        if critpath["top_shift"] is None:
            lines.append("  critpath: no resource shifted")
        else:
            top = critpath["shifts"][0]
            line = (
                f"  critpath: {critpath['top_shift']} moved "
                f"{top['delta_us']:+.1f}us on-path "
                f"(bottleneck {critpath['bottleneck_a']} -> "
                f"{critpath['bottleneck_b']})"
            )
            device = critpath["top_resource_shift"]
            if device is not None and device != critpath["top_shift"]:
                line += f"; top device resource: {device}"
            lines.append(line)
    fleet = sections.get("fleet")
    if fleet is not None:
        lines.extend(_format_metric_cells(fleet["metrics"]))
        if fleet["health"] is not None:
            lines.append(
                f"  health: {fleet['health']['a']:.3f} -> "
                f"{fleet['health']['b']:.3f}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Mode runners (each returns the full diff report document)
# ----------------------------------------------------------------------
def _run_bench(args) -> dict:
    from ..obs.diff import build_diff_report
    from .bench import diff_bench_docs

    doc_a = lab.read_json(args.a, what="bench document")
    doc_b = lab.read_json(args.b, what="bench document")
    section = diff_bench_docs(
        doc_a, doc_b, wall_tolerance_pct=args.wall_tolerance
    )
    return build_diff_report("bench", args.a, args.b, {"bench": section})


def _run_run(args) -> dict:
    from ..obs.diff import diff_run
    from ..workloads.scenarios import build

    _, requests, cfg, sets, faults = build(
        args.scenario, quick=args.quick, event_driven=True
    )
    cfg_b = cfg
    label_b = args.scenario
    for spec in args.scale:
        knob, factor = _parse_scale(spec)
        try:
            cfg_b = cfg_b.scale_knob(knob, factor)
        except KeyError:
            from ..ssd.config import KNOBS

            raise ValueError(
                f"unknown knob {knob!r}; available: {', '.join(KNOBS)}"
            ) from None
        label_b += f"+{knob}x{factor:g}"
    return diff_run(
        requests, cfg, sets, cfg_b,
        faults=faults,
        label_a=args.scenario,
        label_b=label_b,
        keep_events=bool(args.chrome_trace),
    )


def _run_trace(args) -> dict:
    from ..obs.diff import build_diff_report, diff_traces
    from ..obs.trace import TraceRecorder

    streams = []
    for path in (args.a, args.b):
        try:
            streams.append(TraceRecorder.read_jsonl(path))
        except OSError as exc:
            raise ValueError(f"cannot read trace {path!r}: {exc}") from exc
        except (json.JSONDecodeError, KeyError) as exc:
            raise ValueError(
                f"trace {path!r} is not a JSONL trace export: {exc}"
            ) from exc
    section = diff_traces(*streams)
    return build_diff_report("trace", args.a, args.b, {"trace": section})


def _run_critpath(args) -> dict:
    from ..obs.diff import build_diff_report, diff_critpath_docs

    doc_a = _critpath_doc(lab.read_json(args.a, what="critpath document"))
    doc_b = _critpath_doc(lab.read_json(args.b, what="critpath document"))
    section = diff_critpath_docs(doc_a, doc_b)
    return build_diff_report(
        "critpath", args.a, args.b, {"critpath": section}
    )


def _run_fleet(args) -> dict:
    from ..obs.diff import build_diff_report, diff_fleet_devices

    doc = lab.read_json(args.fleet, what="fleet report")
    section = diff_fleet_devices(doc, args.device_a, args.device_b)
    return build_diff_report(
        "fleet",
        f"{args.fleet}#device{args.device_a}",
        f"{args.fleet}#device{args.device_b}",
        {"fleet": section},
    )


# ----------------------------------------------------------------------
def add_arguments(parser) -> None:
    modes = parser.add_subparsers(dest="mode", metavar="MODE")

    p_bench = modes.add_parser(
        "bench", help="diff two saved BENCH_*.json documents",
    )
    p_bench.set_defaults(runner=_run_bench)
    p_bench.add_argument("a", help="baseline bench document")
    p_bench.add_argument("b", help="candidate bench document")
    p_bench.add_argument(
        "--wall-tolerance",
        type=float,
        default=10.0,
        metavar="PCT",
        help="wall-clock slack before a delta counts (default 10%%); "
        "simulated metrics always use 0",
    )

    p_run = modes.add_parser(
        "run",
        help="re-simulate a seeded scenario under two configs and "
        "localize the first divergent event",
    )
    p_run.set_defaults(runner=_run_run)
    lab.add_shared(
        p_run, "--scenario",
        default="mix2_shared",
        help="scenario to re-simulate (default mix2_shared); "
        "event-driven scenarios only",
    )
    lab.add_shared(p_run, "--quick")
    p_run.add_argument(
        "--scale",
        action="append",
        default=[],
        metavar="KNOB=FACTOR",
        help="scale a config knob on side B (repeatable); no --scale "
        "diffs the run against itself (must be empty)",
    )
    lab.add_shared(p_run, "--chrome-trace")

    p_trace = modes.add_parser(
        "trace", help="diff two recorded JSONL trace streams",
    )
    p_trace.set_defaults(runner=_run_trace)
    p_trace.add_argument("a", help="baseline trace JSONL")
    p_trace.add_argument("b", help="candidate trace JSONL")

    p_crit = modes.add_parser(
        "critpath",
        help="diff two bottleneck reports (critpath or explain documents)",
    )
    p_crit.set_defaults(runner=_run_critpath)
    p_crit.add_argument("a", help="baseline critpath/explain JSON")
    p_crit.add_argument("b", help="candidate critpath/explain JSON")

    p_fleet = modes.add_parser(
        "fleet", help="diff two devices of one fleet report",
    )
    p_fleet.set_defaults(runner=_run_fleet)
    p_fleet.add_argument("fleet", help="fleet report JSON")
    p_fleet.add_argument("device_a", type=int, help="baseline device id")
    p_fleet.add_argument("device_b", type=int, help="candidate device id")

    for mode in (p_bench, p_run, p_trace, p_crit, p_fleet):
        lab.add_shared(mode, "--json", "--out")


def run(args) -> int:
    """``repro diff``: 0 = clean, 1 = localized divergence/regression."""
    if args.mode is None:
        raise lab.UsageError(
            "a mode is required (bench, run, trace, critpath, fleet)"
        )
    try:
        report = args.runner(args)
    except (ValueError, KeyError) as exc:
        raise lab.UsageError(str(exc)) from None

    events_a = report.pop("_events_a", None)
    events_b = report.pop("_events_b", None)
    if getattr(args, "chrome_trace", None):
        from ..obs.chrometrace import write_diff_chrome_trace

        first = report["sections"]["trace"]["first_divergence"]
        with lab.writing(args.chrome_trace):
            write_diff_chrome_trace(
                events_a, events_b, args.chrome_trace, first_divergence=first,
            )
        lab.note(f"wrote {args.chrome_trace}")

    lab.emit(args, report, _render(report))
    if args.out:
        from ..obs.diff import write_diff

        with lab.writing(args.out):
            write_diff(report, args.out)
        lab.note(f"wrote {args.out}")
    return _exit_code(report)
