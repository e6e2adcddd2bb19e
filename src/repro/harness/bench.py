"""``repro bench`` — fixed benchmark suite with perf-regression tracking.

The ROADMAP's north star is "as fast as the hardware allows", but until
now the repo had no perf trajectory at all: a PR could halve the
simulator's throughput and nothing would notice.  This module runs a
**fixed suite of seeded scenarios** — tenant mixes on the event-driven
simulator, a GC-heavy device, a fault-injected run, and the vectorised
fast model — and records, per scenario:

* **wall-clock metrics** (``wall_s``, ``requests_per_s``) — noisy,
  machine-dependent, compared with a generous threshold;
* **simulated-latency metrics** (``sim_mean_read_us`` etc.) — fully
  deterministic for a given seed, so *any* drift beyond float noise
  means the model's behaviour changed;
* the **attribution breakdown** (phase totals/fractions) where the
  scenario runs the event-driven simulator, so "it got slower" comes
  with "and the time went into die waits".

Results land in a schema-versioned ``BENCH_<timestamp>.json``;
``--baseline <file> --max-regression <pct>`` compares against a
committed baseline and exits nonzero when any metric regresses past the
threshold, which is the CI tripwire.  ``--quick`` shrinks the traces
for smoke runs (quick and full results are never comparable — request
counts differ — so the comparison refuses mismatched files).
``--update-baseline`` writes the current run to the baseline path
(default ``benchmarks/baseline.json``) instead of comparing, so a
deliberate perf change refreshes the tripwire in one command.
``--trajectory [DIR]`` skips running entirely and renders the perf
history instead: every committed ``BENCH_*.json`` under DIR (default
``benchmarks/``) in timestamp order, with per-scenario wall-clock and
simulated-latency deltas between consecutive comparable runs.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

__all__ = [
    "SCHEMA_VERSION",
    "SCENARIOS",
    "BenchRegression",
    "run_bench",
    "run_scenario",
    "load_bench",
    "load_trajectory",
    "format_trajectory",
    "compare",
    "write_bench",
    "main",
]

#: Bump when the document layout changes shape (not when scenarios or
#: metrics are merely added); comparison refuses mismatched versions.
SCHEMA_VERSION = 1

#: Comparable metrics by direction: LOWER_BETTER regresses when it
#: grows, HIGHER_BETTER when it shrinks.  Unknown metrics are ignored by
#: comparison (forward compatibility: new metrics don't fail against old
#: baselines).
LOWER_BETTER = frozenset(
    {"wall_s", "sim_mean_read_us", "sim_mean_write_us", "sim_total_latency_us"}
)
HIGHER_BETTER = frozenset({"requests_per_s"})

#: request counts per scenario (full / --quick)
_FULL_REQUESTS = 3000
_QUICK_REQUESTS = 600

#: Wall-clock metrics are skipped when both runs finished faster than
#: this: below ~20ms a scenario is dominated by interpreter warm-up and
#: percent thresholds are meaningless.
_WALL_NOISE_FLOOR_S = 0.02


def _mix(specs, total_requests: int, seed: int):
    from ..workloads.mixer import synthesize_mix

    return synthesize_mix(specs, total_requests=total_requests, seed=seed).requests


def _spec(name: str, write_ratio: float, rate_rps: float, footprint_pages: int):
    from ..workloads.spec import WorkloadSpec

    return WorkloadSpec(
        name=name,
        write_ratio=write_ratio,
        rate_rps=rate_rps,
        mean_request_pages=2.0,
        sequential_fraction=0.3,
        skew=0.5,
        footprint_pages=footprint_pages,
    )


# ----------------------------------------------------------------------
# Scenario definitions.  Each builder returns (kind, requests, run_fn)
# where run_fn() executes one full run and returns a SimulationResult.
# Everything is seeded: two invocations produce identical simulated
# metrics, so only the wall-clock numbers carry noise.
# ----------------------------------------------------------------------
def _scenario_mix2(total: int):
    from ..ssd.config import SSDConfig

    cfg = SSDConfig.small()
    requests = _mix(
        [
            _spec("writer", 0.9, 8000.0, 4096),
            _spec("reader", 0.1, 6000.0, 4096),
        ],
        total,
        seed=101,
    )
    sets = {0: list(range(cfg.channels)), 1: list(range(cfg.channels))}
    return "simulator", requests, cfg, sets, None


def _scenario_mix4(total: int):
    from ..ssd.config import SSDConfig

    cfg = SSDConfig.small()
    requests = _mix(
        [
            _spec("writer-a", 0.9, 4000.0, 2048),
            _spec("writer-b", 0.8, 4000.0, 2048),
            _spec("reader-a", 0.1, 3000.0, 2048),
            _spec("reader-b", 0.05, 3000.0, 2048),
        ],
        total,
        seed=202,
    )
    half = cfg.channels // 2
    sets = {
        0: list(range(half)),
        1: list(range(half)),
        2: list(range(half, cfg.channels)),
        3: list(range(half, cfg.channels)),
    }
    return "simulator", requests, cfg, sets, None


def _scenario_gc_heavy(total: int):
    from ..ssd.config import SSDConfig

    # Tiny blocks, one channel per writer, footprints near capacity: the
    # trace overwrites each channel several times, keeping GC busy.
    cfg = SSDConfig(blocks_per_plane=4, pages_per_block=16)
    requests = _mix(
        [
            _spec("writer-a", 0.95, 4000.0, 190),
            _spec("writer-b", 0.85, 3000.0, 190),
        ],
        total,
        seed=303,
    )
    sets = {0: [0], 1: [1]}
    return "simulator", requests, cfg, sets, None


def _scenario_faulted(total: int):
    from ..ssd.config import SSDConfig
    from ..ssd.faults import FaultConfig

    cfg = SSDConfig(blocks_per_plane=24, pages_per_block=16)
    requests = _mix(
        [
            _spec("writer", 0.9, 6000.0, 4000),
            _spec("reader", 0.1, 5000.0, 4000),
        ],
        total,
        seed=404,
    )
    sets = {0: [0, 1, 2, 3], 1: [4, 5, 6, 7]}
    faults = FaultConfig(
        seed=17, read_ber=0.05, program_fail_rate=0.002, erase_fail_rate=0.01
    )
    return "simulator", requests, cfg, sets, faults


def _scenario_fastmodel(total: int):
    from ..ssd.config import SSDConfig

    cfg = SSDConfig.small()
    requests = _mix(
        [
            _spec("writer-a", 0.9, 4000.0, 2048),
            _spec("writer-b", 0.8, 4000.0, 2048),
            _spec("reader-a", 0.1, 3000.0, 2048),
            _spec("reader-b", 0.05, 3000.0, 2048),
        ],
        total,
        seed=202,
    )
    half = cfg.channels // 2
    sets = {
        0: list(range(half)),
        1: list(range(half)),
        2: list(range(half, cfg.channels)),
        3: list(range(half, cfg.channels)),
    }
    return "fastmodel", requests, cfg, sets, None


def _adversarial(builder_name: str, total: int, seed: int, **kwargs):
    """Shared plumbing of the adversarial scenarios: build, truncate, share.

    The generators size the trace from rates and phase durations, so the
    chronological truncation to ``total`` mirrors the paper's "mix then
    take the first N" recipe; channel sets stay fully shared — the bench
    measures the simulator under hostile traffic, not the keeper.
    """
    from ..ssd.config import SSDConfig
    from ..workloads.adversarial import build_scenario

    cfg = SSDConfig.small()
    workload = build_scenario(builder_name, seed=seed, **kwargs)
    requests = workload.requests[:total]
    sets = {
        wid: list(range(cfg.channels)) for wid in range(workload.n_tenants)
    }
    return "simulator", requests, cfg, sets, None


def _scenario_drift_hotspot(total: int):
    return _adversarial(
        "migrating_hotspot", total, seed=505,
        base_rate_rps=3000.0, hot_rate_factor=6.0,
    )


def _scenario_phase_change(total: int):
    return _adversarial(
        "phase_change", total, seed=606,
        base_rate_rps=3000.0, changer_rate_rps=9000.0,
    )


def _scenario_noisy_neighbor(total: int):
    return _adversarial(
        "noisy_neighbor", total, seed=707,
        base_rate_rps=3000.0, noise_factor=8.0,
    )


#: scenario name -> builder(total_requests); insertion order is report order
SCENARIOS: dict[str, Callable] = {
    "mix2_shared": _scenario_mix2,
    "mix4_split": _scenario_mix4,
    "gc_heavy": _scenario_gc_heavy,
    "faulted": _scenario_faulted,
    "fastmodel": _scenario_fastmodel,
    "drift_hotspot": _scenario_drift_hotspot,
    "phase_change": _scenario_phase_change,
    "noisy_neighbor": _scenario_noisy_neighbor,
}


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def run_scenario(
    name: str, *, quick: bool = False, repeat: int = 1,
    attribution: bool = True, slo=None, flight_dir=None, baseline_entry=None,
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
    reproducible bundle attached; when ``baseline_entry`` (this
    scenario's entry from a baseline document) is also given, its
    attribution phases become the recorder's last-known-good reference,
    so any bundle carries a ``diff.json`` against the baseline run.
    """
    builder = SCENARIOS[name]
    total = _QUICK_REQUESTS if quick else _FULL_REQUESTS
    kind, requests, cfg, sets, faults = builder(total)
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
                last_good = None
                if baseline_entry and baseline_entry.get("attribution"):
                    last_good = {
                        "attribution": baseline_entry["attribution"],
                    }
                recorder = FlightRecorder(
                    Path(flight_dir) / name,
                    context={"scenario": name, "quick": quick,
                             "requests": len(requests)},
                    replay_argv=replay,
                    explain_argv=explain,
                    last_good=last_good,
                )
            obs = Observability(
                trace=False, attribution=attribution, slo=slo_spec,
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
    attribution: bool = True,
    scenarios: list[str] | None = None,
    slo=None,
    flight_dir=None,
    baseline=None,
    log=None,
) -> dict:
    """Run the suite; returns the schema-versioned result document."""
    names = list(SCENARIOS) if scenarios is None else scenarios
    for name in names:
        if name not in SCENARIOS:
            raise KeyError(
                f"unknown scenario {name!r}; available: {', '.join(SCENARIOS)}"
            )
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": quick,
        "repeat": max(1, repeat),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scenarios": {},
    }
    baseline_scenarios = (baseline or {}).get("scenarios", {})
    for name in names:
        entry = run_scenario(
            name, quick=quick, repeat=repeat, attribution=attribution,
            slo=slo, flight_dir=flight_dir,
            baseline_entry=baseline_scenarios.get(name),
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


#: top-level fields every bench document carries (round-trip contract
#: with run_bench — R007 checks writer and reader agree on this set)
_BENCH_FIELDS = frozenset({
    "schema_version", "created", "quick", "repeat", "python", "platform",
    "scenarios",
})


def load_bench(doc: dict, *, side: str = "bench") -> dict:
    """Validate a bench result document produced by :func:`run_bench`.

    The round-trip reader for the bench schema: refuses version
    mismatches and structurally truncated documents so comparison never
    operates on half a result.
    """
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"{side} document has schema_version "
            f"{doc.get('schema_version')!r}; this tool expects "
            f"{SCHEMA_VERSION}"
        )
    missing = _BENCH_FIELDS - set(doc)
    if missing:
        raise ValueError(
            f"{side} document is missing fields: {sorted(missing)}"
        )
    return doc


def write_bench(doc: dict, out_dir) -> Path:
    """Write ``doc`` as ``BENCH_<timestamp>.json`` under ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = doc["created"].replace(":", "").replace("-", "")
    path = out_dir / f"BENCH_{stamp}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


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


def _delta_pct(base: float, value: float) -> "float | None":
    if not base:
        return None
    return (value - base) / base * 100.0


def format_trajectory(runs: list[dict]) -> str:
    """Human-readable perf trajectory with deltas between consecutive runs.

    For each consecutive pair of comparable runs (same quick/full size)
    every shared scenario shows wall-clock and simulated-latency deltas;
    incomparable neighbours (a ``--quick`` run next to a full one) are
    listed but not diffed.
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
        prev_scen = prev["doc"].get("scenarios", {})
        curr_scen = curr["doc"].get("scenarios", {})
        shared = [name for name in curr_scen if name in prev_scen]
        if not shared:
            lines.append("  (no shared scenarios)")
            continue
        for name in shared:
            cells = []
            for metric in _TRAJECTORY_METRICS:
                base = prev_scen[name].get("metrics", {}).get(metric)
                value = curr_scen[name].get("metrics", {}).get(metric)
                if base is None or value is None:
                    continue
                delta = _delta_pct(base, value)
                delta_text = f"{delta:+.1f}%" if delta is not None else "n/a"
                cells.append(f"{metric} {base:.4g}->{value:.4g} ({delta_text})")
            lines.append(f"  {name:<16} " + "  ".join(cells))
        only_new = sorted(set(curr_scen) - set(prev_scen))
        if only_new:
            lines.append(f"  new scenarios: {', '.join(only_new)}")
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

    Only metrics present in both documents and named in
    :data:`METRIC_DIRECTIONS` are compared; scenarios missing on either
    side are skipped (suites may grow).  Raises :class:`ValueError` when
    the documents are structurally incomparable (schema version or
    quick/full mismatch).
    """
    if max_regression_pct < 0:
        raise ValueError("max_regression_pct must be non-negative")
    for doc, side in ((current, "current"), (baseline, "baseline")):
        load_bench(doc, side=side)
    if bool(current.get("quick")) != bool(baseline.get("quick")):
        raise ValueError(
            "cannot compare a --quick run against a full-size baseline "
            "(request counts differ); regenerate the baseline at the "
            "same size"
        )
    regressions: list[BenchRegression] = []
    for name, entry in current.get("scenarios", {}).items():
        base_entry = baseline.get("scenarios", {}).get(name)
        if base_entry is None:
            continue
        base_metrics = base_entry.get("metrics", {})
        wall_s = entry.get("metrics", {}).get("wall_s") or 0.0
        base_wall_s = base_metrics.get("wall_s") or 0.0
        below_floor = max(wall_s, base_wall_s) < _WALL_NOISE_FLOOR_S
        for metric, value in entry.get("metrics", {}).items():
            lower_better = metric in LOWER_BETTER
            base = base_metrics.get(metric)
            if not lower_better and metric not in HIGHER_BETTER:
                continue
            if base is None or base == 0:
                continue
            if below_floor and metric in ("wall_s", "requests_per_s"):
                continue
            if lower_better:
                change_pct = (value - base) / base * 100.0
            else:
                change_pct = (base - value) / base * 100.0
            if change_pct > max_regression_pct:
                regressions.append(
                    BenchRegression(name, metric, base, value, change_pct)
                )
    return regressions


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
    from ..obs.diff import build_diff_report, diff_bench_docs, write_diff

    try:
        section = diff_bench_docs(
            baseline, current, wall_tolerance_pct=wall_tolerance_pct
        )
        report = build_diff_report(
            "bench", baseline_name, "current run", {"bench": section}
        )
        return write_diff(report, Path(out_dir) / "diff_report.json")
    except (OSError, ValueError) as exc:
        print(f"repro bench: cannot write forensics bundle: {exc}",
              file=sys.stderr)
        return None


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    """``repro bench`` entry point; returns a process exit code.

    Exit codes: 0 = suite ran (and passed any baseline check); 1 = a
    metric regressed past ``--max-regression``; 2 = usage error or
    incomparable baseline.
    """
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run the fixed benchmark suite and track perf regressions.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"small traces ({_QUICK_REQUESTS} requests/scenario instead of "
        f"{_FULL_REQUESTS}); CI smoke size",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="run each scenario N times and keep the best wall-clock "
        "(damps host noise; simulated metrics are deterministic)",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        default=None,
        help=f"run only this scenario (repeatable); available: "
        f"{', '.join(SCENARIOS)}",
    )
    parser.add_argument(
        "--out",
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
        default=None,
        help="compare against this BENCH_*.json; exit 1 on regression",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=30.0,
        metavar="PCT",
        help="allowed regression per metric in percent (default 30)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write this run to the --baseline path (default "
        "benchmarks/baseline.json) instead of comparing against it",
    )
    parser.add_argument(
        "--slo",
        metavar="FILE",
        default=None,
        help="arm the SLO watchdog per event-driven scenario with this "
        "JSON spec (re-validated against each scenario's tenants)",
    )
    parser.add_argument(
        "--flight-dir",
        metavar="DIR",
        default=None,
        help="arm the flight recorder: page alerts and failures dump "
        "reproducible bundles under DIR/<scenario>",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the full result document to stdout as JSON",
    )
    parser.add_argument(
        "--trajectory",
        nargs="?",
        const="benchmarks",
        default=None,
        metavar="DIR",
        help="do not run the suite: list committed BENCH_*.json under DIR "
        "(default benchmarks/) in timestamp order with per-scenario "
        "wall-clock and simulated-latency deltas between consecutive runs",
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    if args.trajectory is not None:
        def _skip(name: str, reason: str) -> None:
            print(f"repro bench: skipping {name}: {reason}", file=sys.stderr)

        try:
            runs = load_trajectory(args.trajectory, on_skip=_skip)
        except OSError as exc:
            print(f"repro bench: cannot read trajectory: {exc}",
                  file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(
                [{"name": r["name"], "doc": r["doc"]} for r in runs],
                indent=2, sort_keys=True,
            ))
        else:
            print(format_trajectory(runs))
        return 0

    slo = None
    if args.slo is not None:
        try:
            with open(args.slo, encoding="utf-8") as fh:
                slo = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"repro bench: cannot read SLO spec: {exc}", file=sys.stderr)
            return 2

    baseline = None
    baseline_path = args.baseline
    if args.update_baseline and baseline_path is None:
        baseline_path = "benchmarks/baseline.json"
    if baseline_path is not None and not args.update_baseline:
        try:
            with open(baseline_path, encoding="utf-8") as fh:
                baseline = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"repro bench: cannot read baseline: {exc}", file=sys.stderr)
            return 2

    try:
        doc = run_bench(
            quick=args.quick,
            repeat=args.repeat,
            scenarios=args.scenario,
            slo=slo,
            flight_dir=args.flight_dir,
            baseline=baseline,
            log=None if args.json else print,
        )
    except KeyError as exc:
        print(f"repro bench: {exc.args[0]}", file=sys.stderr)
        return 2
    except Exception as exc:
        from ..obs import SloSpecError

        if isinstance(exc, SloSpecError):
            print(f"repro bench: invalid SLO spec: {exc}", file=sys.stderr)
            return 2
        raise

    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    if not args.no_write:
        path = write_bench(doc, args.out)
        print(f"wrote {path}")

    if args.update_baseline:
        target = Path(baseline_path)
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"updated baseline {target}")
        return 0

    if baseline is not None:
        try:
            regressions = compare(
                doc, baseline, max_regression_pct=args.max_regression
            )
        except ValueError as exc:
            print(f"repro bench: {exc}", file=sys.stderr)
            return 2
        if regressions:
            print(
                f"REGRESSION: {len(regressions)} metric(s) moved more than "
                f"{args.max_regression:g}% past {args.baseline}:",
                file=sys.stderr,
            )
            for reg in regressions:
                print(f"  {reg.describe()}", file=sys.stderr)
            if not args.no_write:
                forensics = _write_forensics(
                    baseline, doc, args.baseline, args.out,
                    wall_tolerance_pct=args.max_regression,
                )
                if forensics is not None:
                    print(f"forensics bundle: {forensics}", file=sys.stderr)
            return 1
        print(
            f"baseline check passed (threshold {args.max_regression:g}%, "
            f"vs {args.baseline})"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the repro CLI
    sys.exit(main())
