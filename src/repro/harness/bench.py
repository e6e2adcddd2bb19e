"""``repro bench`` — fixed benchmark suite with perf-regression tracking.

Runs a **fixed suite of seeded scenarios** — tenant mixes on the event-driven
simulator, a GC-heavy device, a fault-injected run, and the vectorised
fast model — and records, per scenario:

* **wall-clock metrics** (``wall_s``, ``requests_per_s``) — noisy,
  machine-dependent, compared with a generous threshold;
* **simulated-latency metrics** (``sim_mean_read_us`` etc.) — fully
  deterministic for a given seed, so *any* drift at all means the
  model's behaviour changed;
* the **attribution breakdown** (phase totals/fractions) where the
  scenario runs the event-driven simulator, so "it got slower" comes
  with "and the time went into die waits".

Results land in a schema-versioned ``BENCH_<timestamp>.json``;
``--baseline <file> --max-regression <pct>`` compares against a
committed baseline and exits nonzero when a wall-clock metric regresses
past the threshold or a simulated metric moves at all, which is the CI
tripwire (the comparison is :func:`diff_bench_docs`, the same rule
``repro diff bench`` applies).  ``--quick`` shrinks the traces
for smoke runs (quick and full results are never comparable — request
counts differ — so the comparison refuses mismatched files).
``--update-baseline`` refreshes the tripwire after a deliberate perf
change; ``--trajectory`` renders the committed history instead of
running.
"""

from __future__ import annotations

import json
import platform
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from ..schema import Schema
from ..workloads.scenarios import SCENARIOS, build, lookup
from . import lab

__all__ = [
    "SCHEMA_VERSION",
    "SCENARIOS",
    "BenchRegression",
    "run_bench",
    "run_scenario",
    "load_bench",
    "diff_bench_docs",
    "load_trajectory",
    "format_trajectory",
    "compare",
    "write_bench",
]

#: Bump when the document layout changes shape (not when scenarios or
#: metrics are merely added); comparison refuses mismatched versions.
SCHEMA_VERSION = 1

BENCH_SCHEMA = Schema(
    "bench document", SCHEMA_VERSION,
    required=("created", "quick", "repeat", "python", "platform", "scenarios"),
)

#: Wall-clock metrics are skipped when both runs finished faster than
#: this: below ~20ms a scenario is dominated by interpreter warm-up and
#: percent thresholds are meaningless.
_WALL_NOISE_FLOOR_S = 0.02


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def run_scenario(
    name: str, *, quick: bool = False, repeat: int = 1,
    slo=None, flight_dir=None,
) -> dict:
    """Run one scenario ``repeat`` times; best wall-clock is recorded.

    Simulated metrics are deterministic, so repeats only damp host noise
    in ``wall_s`` / ``requests_per_s``.

    ``slo`` (a spec dict or :class:`~repro.obs.slo.SloSpec`) arms the SLO
    watchdog per event-driven scenario — the spec is re-validated against
    the scenario's tenants — and the entry gains an ``"slo"`` section
    (window/alert counts; comparison ignores it, so SLO'd runs stay
    baseline-compatible).  ``flight_dir`` arms a flight recorder under
    ``<flight_dir>/<scenario>``, so a paged regression comes with a
    reproducible bundle attached.
    """
    kind, requests, cfg, sets, faults = build(name, quick=quick)
    slo_spec = None
    if slo is not None and kind != "fastmodel":
        from ..obs import SloSpec

        slo_spec = (
            slo if isinstance(slo, SloSpec)
            else SloSpec.from_dict(slo, known_tenants=set(sets))
        )
    best_wall_s = None
    result = None
    breakdown = None
    obs = None
    for _ in range(max(1, repeat)):
        t0_s = time.perf_counter()
        if kind == "fastmodel":
            from ..ssd.fastmodel import fast_simulate

            result = fast_simulate(requests, cfg, sets)
        else:
            from ..obs import Observability
            from ..ssd.simulator import simulate

            recorder = None
            if flight_dir is not None:
                from ..obs import FlightRecorder

                replay = ["python", "-m", "repro", "bench", "--scenario", name]
                explain = ["python", "-m", "repro", "explain",
                           "--scenario", name]
                if quick:
                    replay.append("--quick")
                    explain.append("--quick")
                recorder = FlightRecorder(
                    Path(flight_dir) / name,
                    context={"scenario": name, "quick": quick,
                             "requests": len(requests)},
                    replay_argv=replay,
                    explain_argv=explain,
                )
            obs = Observability(
                trace=False, attribution=True, slo=slo_spec,
                flight_recorder=recorder,
            )
            result = simulate(
                requests, cfg, sets, record_latencies=True, obs=obs, faults=faults
            )
            breakdown = result.breakdown
        wall_s = time.perf_counter() - t0_s
        if best_wall_s is None or wall_s < best_wall_s:
            best_wall_s = wall_s
    metrics = {
        "wall_s": best_wall_s,
        "requests_per_s": len(requests) / best_wall_s if best_wall_s else 0.0,
        "sim_mean_read_us": result.mean_read_us,
        "sim_mean_write_us": result.mean_write_us,
        "sim_total_latency_us": result.total_latency_us,
    }
    out = {"kind": kind, "requests": len(requests), "metrics": metrics}
    if breakdown is not None:
        out["attribution"] = {
            "requests": breakdown.requests,
            "phase_totals_us": {**breakdown.phase_totals_us},
            "phase_fractions": breakdown.phase_fractions(),
        }
    if obs is not None and obs.slo is not None:
        rollup = obs.slo.summary()
        out["slo"] = {
            "windows": rollup["windows"],
            "warn_alerts": rollup["warn_alerts"],
            "page_alerts": rollup["page_alerts"],
            "bundles": (
                [str(p) for p in obs.flight_recorder.bundles]
                if obs.flight_recorder is not None else []
            ),
        }
    return out


def run_bench(
    *,
    quick: bool = False,
    repeat: int = 1,
    scenarios: list[str] | None = None,
    slo=None,
    flight_dir=None,
    log=None,
) -> dict:
    """Run the suite; returns the schema-versioned result document."""
    names = list(SCENARIOS) if scenarios is None else scenarios
    for name in names:
        lookup(name)  # fail before running anything
    doc = BENCH_SCHEMA.stamp(
        created=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        quick=quick,
        repeat=max(1, repeat),
        python=platform.python_version(),
        platform=platform.platform(),
        scenarios={},
    )
    for name in names:
        entry = run_scenario(
            name, quick=quick, repeat=repeat, slo=slo, flight_dir=flight_dir,
        )
        doc["scenarios"][name] = entry
        if log is not None:
            m = entry["metrics"]
            line = (
                f"{name:<12} {entry['requests']:>6} reqs  "
                f"{m['wall_s']:.3f}s wall  {m['requests_per_s']:>9.0f} req/s  "
                f"mean read {m['sim_mean_read_us']:.1f}us "
                f"write {m['sim_mean_write_us']:.1f}us"
            )
            slo_entry = entry.get("slo")
            if slo_entry is not None:
                line += (
                    f"  slo[{slo_entry['windows']}w "
                    f"{slo_entry['warn_alerts']}warn "
                    f"{slo_entry['page_alerts']}page]"
                )
            log(line)
    return doc


def load_bench(doc: dict, *, side: str = "bench") -> dict:
    """Validate a bench result document produced by :func:`run_bench`.

    Refuses version mismatches and structurally truncated documents so
    comparison never operates on half a result.
    """
    return BENCH_SCHEMA.load(doc, what=f"{side} document")


def write_bench(doc: dict, out_dir) -> Path:
    """Write ``doc`` as ``BENCH_<timestamp>.json`` under ``out_dir``."""
    stamp = doc["created"].replace(":", "").replace("-", "")
    return lab.write_json(Path(out_dir) / f"BENCH_{stamp}.json", doc)


# ----------------------------------------------------------------------
# Deltas between two bench documents
# ----------------------------------------------------------------------
def diff_bench_docs(
    doc_a: dict, doc_b: dict, *, wall_tolerance_pct: float = 10.0,
) -> dict:
    """Per-scenario deltas between two validated bench documents.

    The one comparison rule every bench consumer shares (``repro diff
    bench``, the ``--baseline`` check, the trajectory view).  Wall-clock
    metrics are classified with ``wall_tolerance_pct`` slack (hosts are
    noisy) and go ``neutral`` outright when both runs sat under the
    noise floor; simulated metrics are deterministic, so *any* delta is
    a divergence.  Raises ``ValueError`` for structurally incomparable
    documents (schema or quick/full mismatch).
    """
    from ..obs.diff import metric_table, phase_waterfall, tally

    for doc, side in ((doc_a, "a"), (doc_b, "b")):
        load_bench(doc, side=side)
    if bool(doc_a.get("quick")) != bool(doc_b.get("quick")):
        raise ValueError(
            "cannot compare a --quick run against a full-size one "
            "(request counts differ)"
        )
    scen_a = doc_a.get("scenarios", {})
    scen_b = doc_b.get("scenarios", {})
    scenarios: dict = {}
    divergences = regressions = improvements = 0
    for name in sorted(set(scen_a) & set(scen_b)):
        entry_a, entry_b = scen_a[name], scen_b[name]
        metrics_a = entry_a.get("metrics", {})
        metrics_b = entry_b.get("metrics", {})
        below_floor = (
            max(metrics_a.get("wall_s") or 0.0, metrics_b.get("wall_s") or 0.0)
            < _WALL_NOISE_FLOOR_S
        )
        cells = metric_table(
            metrics_a, metrics_b,
            wall_tolerance_pct=wall_tolerance_pct, below_floor=below_floor,
        )
        entry: dict = {"metrics": cells}
        attr_a = entry_a.get("attribution")
        attr_b = entry_b.get("attribution")
        if attr_a is not None and attr_b is not None:
            entry["waterfall"] = phase_waterfall(
                attr_a.get("phase_totals_us", {}),
                attr_b.get("phase_totals_us", {}),
            )
        div, reg, imp = tally(cells)
        entry["divergences"] = div
        entry["regressions"] = reg
        entry["improvements"] = imp
        divergences += div
        regressions += reg
        improvements += imp
        scenarios[name] = entry
    return {
        "identical": divergences == 0,
        "divergences": divergences,
        "regressions": regressions,
        "improvements": improvements,
        "scenarios": scenarios,
        "only_in_a": sorted(set(scen_a) - set(scen_b)),
        "only_in_b": sorted(set(scen_b) - set(scen_a)),
    }


# ----------------------------------------------------------------------
# Perf trajectory across committed BENCH_*.json files
# ----------------------------------------------------------------------
#: per-scenario metrics the trajectory view tracks between runs
_TRAJECTORY_METRICS = ("wall_s", "sim_mean_read_us", "sim_mean_write_us")


def load_trajectory(bench_dir, *, on_skip=None) -> list[dict]:
    """Load every ``BENCH_*.json`` under ``bench_dir`` in timestamp order.

    Each entry is ``{"name": filename, "doc": validated document}``;
    ordering follows the documents' ``created`` stamps (ties broken by
    filename), so the list reads as the repo's perf history.  Files that
    cannot be read or fail :func:`load_bench` validation (older schema
    versions, truncated JSON) are **skipped, not fatal** — the committed
    history must stay readable as the schema evolves.  Each skip invokes
    ``on_skip(filename, reason)`` (default: a ``UserWarning``), so silent
    data loss is impossible.
    """
    if on_skip is None:
        def on_skip(name: str, reason: str) -> None:
            warnings.warn(
                f"skipping {name}: {reason}", UserWarning, stacklevel=3
            )
    runs = []
    for path in sorted(Path(bench_dir).glob("BENCH_*.json")):
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            load_bench(doc, side=path.name)
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            on_skip(path.name, str(exc))
            continue
        if not isinstance(doc.get("created"), str):
            on_skip(path.name, "document has no usable 'created' stamp")
            continue
        runs.append({"name": path.name, "doc": doc})
    runs.sort(key=lambda run: (run["doc"]["created"], run["name"]))
    return runs


def format_trajectory(runs: list[dict]) -> str:
    """Human-readable perf trajectory with deltas between consecutive runs.

    For each consecutive pair of comparable runs (same quick/full size)
    every shared scenario shows wall-clock and simulated-latency deltas
    (the cells of :func:`diff_bench_docs`); incomparable neighbours (a
    ``--quick`` run next to a full one) are listed but not diffed.
    """
    if not runs:
        return "no BENCH_*.json files found"
    lines = []
    for i, run in enumerate(runs):
        doc = run["doc"]
        size = "quick" if doc.get("quick") else "full"
        lines.append(
            f"{i}: {run['name']}  ({size}, created {doc['created']}, "
            f"python {doc.get('python', '?')})"
        )
    for prev, curr in zip(runs, runs[1:]):
        lines.append("")
        header = f"{prev['name']} -> {curr['name']}"
        if bool(prev["doc"].get("quick")) != bool(curr["doc"].get("quick")):
            lines.append(f"{header}: incomparable (quick/full size mismatch)")
            continue
        lines.append(header)
        section = diff_bench_docs(prev["doc"], curr["doc"])
        shared = [
            name for name in curr["doc"]["scenarios"]
            if name in section["scenarios"]
        ]
        if not shared:
            lines.append("  (no shared scenarios)")
            continue
        for name in shared:
            cells = section["scenarios"][name]["metrics"]
            texts = []
            for metric in _TRAJECTORY_METRICS:
                cell = cells.get(metric)
                if cell is None:
                    continue
                delta = cell["delta_pct"]
                delta_text = f"{delta:+.1f}%" if delta is not None else "n/a"
                texts.append(
                    f"{metric} {cell['a']:.4g}->{cell['b']:.4g} ({delta_text})"
                )
            lines.append(f"  {name:<16} " + "  ".join(texts))
        if section["only_in_b"]:
            lines.append(f"  new scenarios: {', '.join(section['only_in_b'])}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Baseline comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BenchRegression:
    """One metric that moved past the allowed threshold."""

    scenario: str
    metric: str
    baseline: float
    current: float
    change_pct: float

    def describe(self) -> str:
        return (
            f"{self.scenario}.{self.metric}: {self.baseline:.6g} -> "
            f"{self.current:.6g} ({self.change_pct:+.1f}%)"
        )


def compare(
    current: dict, baseline: dict, *, max_regression_pct: float
) -> list[BenchRegression]:
    """Regressions of ``current`` against ``baseline``.

    The ``regressed`` cells of :func:`diff_bench_docs`: wall-clock
    metrics may move ``max_regression_pct`` before they count, simulated
    metrics are deterministic and may not move at all.  Scenarios or
    metrics missing on either side are skipped (suites may grow).
    Raises :class:`ValueError` when the documents are structurally
    incomparable (schema version or quick/full mismatch).
    """
    if max_regression_pct < 0:
        raise ValueError("max_regression_pct must be non-negative")
    section = diff_bench_docs(
        baseline, current, wall_tolerance_pct=max_regression_pct
    )
    return [
        # change_pct is positive in the regressing direction; a metric
        # that left zero has no finite percentage
        BenchRegression(
            name, metric, cell["a"], cell["b"],
            abs(cell["delta_pct"]) if cell["delta_pct"] is not None
            else float("inf"),
        )
        for name, entry in section["scenarios"].items()
        for metric, cell in entry["metrics"].items()
        if cell["classification"] == "regressed"
    ]


# ----------------------------------------------------------------------
def _write_forensics(
    baseline: dict, current: dict, baseline_name: str, out_dir,
    *, wall_tolerance_pct: float,
) -> "Path | None":
    """Emit ``diff_report.json`` next to the bench results on a failure.

    A failing ``--baseline`` check prints *that* something regressed; the
    forensics report says *where* — per-scenario classified deltas plus
    the attribution-delta waterfall (which latency phase the time moved
    into).  CI uploads it alongside the ``BENCH_*.json`` artifact.
    Failures here never mask the regression exit code.
    """
    from ..obs.diff import build_diff_report, write_diff

    try:
        section = diff_bench_docs(
            baseline, current, wall_tolerance_pct=wall_tolerance_pct
        )
        report = build_diff_report(
            "bench", baseline_name, "current run", {"bench": section}
        )
        return write_diff(report, Path(out_dir) / "diff_report.json")
    except (OSError, ValueError) as exc:
        lab.note(f"repro bench: cannot write forensics bundle: {exc}")
        return None


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def add_arguments(parser) -> None:
    lab.add_shared(parser, "--quick")
    parser.add_argument(
        "--repeat",
        type=lab.count,
        default=1,
        metavar="N",
        help="run each scenario N times and keep the best wall-clock "
        "(damps host noise; simulated metrics are deterministic)",
    )
    lab.add_shared(
        parser, "--scenario",
        action="append",
        help="run only this scenario (repeatable)",
    )
    lab.add_shared(
        parser, "--out",
        metavar="DIR",
        default=".",
        help="directory for BENCH_<timestamp>.json (default: current dir)",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="skip writing the BENCH_*.json file and the forensics bundle",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="compare against this BENCH_*.json; exit 1 on regression",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=30.0,
        metavar="PCT",
        help="allowed wall-clock regression per metric in percent (default "
        "30); simulated metrics must match exactly",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write this run to the --baseline path (default "
        "benchmarks/baseline.json) instead of comparing against it",
    )
    lab.add_shared(parser, "--slo", "--flight-dir", "--json")
    parser.add_argument(
        "--trajectory",
        nargs="?",
        const="benchmarks",
        metavar="DIR",
        help="do not run the suite: list committed BENCH_*.json under DIR "
        "(default benchmarks/) in timestamp order with per-scenario "
        "wall-clock and simulated-latency deltas between consecutive runs",
    )


def run(args) -> int:
    """``repro bench``: 0 = suite ran (and passed any baseline check);
    1 = a metric regressed."""
    from ..obs import SloSpecError

    if args.trajectory is not None:
        try:
            runs = load_trajectory(
                args.trajectory,
                on_skip=lambda name, reason: lab.note(
                    f"repro bench: skipping {name}: {reason}"
                ),
            )
        except OSError as exc:
            raise lab.UsageError(f"cannot read trajectory: {exc}") from None
        lab.emit(args, runs, format_trajectory(runs))
        return 0

    slo = None if args.slo is None else lab.read_json(args.slo, what="SLO spec")
    baseline_path = args.baseline
    if args.update_baseline and baseline_path is None:
        baseline_path = "benchmarks/baseline.json"
    baseline = None
    if baseline_path is not None and not args.update_baseline:
        baseline = lab.read_json(baseline_path, what="baseline")
    try:
        doc = run_bench(
            quick=args.quick,
            repeat=args.repeat,
            scenarios=args.scenario,
            slo=slo,
            flight_dir=args.flight_dir,
            log=None if args.json else print,
        )
    except SloSpecError as exc:
        raise lab.UsageError(f"invalid SLO spec: {exc}") from None
    lab.emit(args, doc, None)  # text mode logged each scenario as it ran
    if not args.no_write:
        lab.note(f"wrote {write_bench(doc, args.out)}")
    if args.update_baseline:
        lab.note(f"updated baseline {lab.write_json(baseline_path, doc)}")
        return 0
    if baseline is None:
        return 0
    try:
        regressions = compare(
            doc, baseline, max_regression_pct=args.max_regression
        )
    except ValueError as exc:
        raise lab.UsageError(str(exc)) from None
    if not regressions:
        lab.note(
            f"baseline check passed (threshold {args.max_regression:g}%, "
            f"vs {args.baseline})"
        )
        return 0
    lab.note(
        f"REGRESSION: {len(regressions)} metric(s) moved past "
        f"{args.baseline} (wall-clock threshold {args.max_regression:g}%, "
        "simulated metrics exact):"
    )
    for reg in regressions:
        lab.note(f"  {reg.describe()}")
    if not args.no_write:
        forensics = _write_forensics(
            baseline, doc, args.baseline, args.out,
            wall_tolerance_pct=args.max_regression,
        )
        if forensics is not None:
            lab.note(f"forensics bundle: {forensics}")
    return 1
