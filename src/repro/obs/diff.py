"""Differential forensics: compare two runs, benches, or critical paths.

Every earlier pillar can *detect* a change — the bench compare exits 1
on a regression, the byte-identity integration tests fail on a behaviour
drift — but nothing *localizes* it: which scenario, which latency phase,
which resource, which simulated event moved first.  This module is the
differential layer over the artifacts the repo already produces
(``BENCH_*.json`` documents, attribution breakdowns, trace streams,
:class:`~repro.obs.critpath.BottleneckReport` documents, fleet reports).
EagleTree's position — SSD-algorithm results are only trustworthy when
competing runs are instrumented and compared under identical traces —
is the design brief: every comparator here takes two artifacts of the
same kind and emits a deterministic, schema-versioned delta document.

The shared machinery is one metric classifier, :func:`metric_table` /
:func:`tally` (direction-aware ``improved`` / ``regressed`` /
``neutral`` delta cells; wall-clock metrics get a tolerance and a noise
floor, everything else must match exactly), and
:func:`phase_waterfall`, the **attribution-delta waterfall** (which
latency phase the moved time went into, heaviest shift first).  The
bench comparison (:func:`repro.harness.bench.diff_bench_docs`) is built
from these.  Three comparators, one report schema:

* :func:`diff_traces` — positional alignment of two event streams with
  the **first divergent event** (simulated time, event kind, tenant,
  channel, die) and downstream divergence counts, so a failed
  byte-identity assertion comes with the exact moment histories forked;
* :func:`diff_critpath_docs` — two bottleneck reports aligned by
  resource bucket, ranked by how much each resource's on-critical-path
  time shifted;
* :func:`diff_fleet_devices` — two device entries of a fleet report
  compared with the same metric classifier, so device-vs-device drift
  inside one fleet run is diffable with the same vocabulary.

:func:`diff_run` composes the first two: it re-simulates one seeded
request trace under two configurations (the same exact-re-execution
trick the what-if engine uses) with tracing and attribution armed, and
reports metric deltas, the first divergent trace event, and the
critical-path shift in one document.  Diffing a run against itself is
provably empty — the simulator is deterministic, so identical inputs
produce identical streams — which turns the report into a CI-grade
assertion: zero divergences or a localized forensic lead, never noise.

All report documents are **byte-deterministic**: no wall-clock stamps,
no set iteration, sorted keys at serialisation time.  Two invocations
over the same inputs produce identical bytes (asserted in CI).
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "DIFF_SCHEMA_VERSION",
    "DiffError",
    "build_diff_report",
    "load_diff",
    "write_diff",
    "diff_traces",
    "diff_critpath_docs",
    "diff_fleet_devices",
    "diff_run",
    "metric_table",
    "tally",
    "phase_waterfall",
]

#: Bump when the report document layout changes shape.
DIFF_SCHEMA_VERSION = 1

#: top-level fields of every diff report (R007 round-trip contract —
#: :func:`build_diff_report` writes them, :func:`load_diff` checks them)
_DIFF_FIELDS = frozenset({
    "schema_version", "kind", "label_a", "label_b", "identical",
    "divergences", "regressions", "sections",
})

#: report kinds the CLI and the loaders accept
_DIFF_KINDS = frozenset({"bench", "run", "trace", "critpath", "fleet",
                         "flight"})

#: metrics that regress when they grow (latencies, failure counts)
_LOWER_BETTER_METRICS = frozenset({
    "wall_s", "sim_mean_read_us", "sim_mean_write_us",
    "sim_total_latency_us", "total_latency_us", "makespan_us",
    "mean_read_us", "mean_write_us", "read_mean_us", "read_p95_us",
    "write_mean_us", "write_p95_us", "failed_reads",
})

#: metrics that regress when they shrink (throughput)
_HIGHER_BETTER_METRICS = frozenset({"requests_per_s"})


def _direction(metric: str) -> str | None:
    """Regression direction of ``metric``; ``None`` is informational
    (classified ``changed``, never ``regressed``/``improved``)."""
    if metric in _LOWER_BETTER_METRICS:
        return "lower"
    if metric in _HIGHER_BETTER_METRICS:
        return "higher"
    return None

#: wall-clock metrics are classified ``neutral`` whenever the caller says
#: both runs sat under its noise floor
_WALL_METRICS = frozenset({"wall_s", "requests_per_s"})


class DiffError(ValueError):
    """Inputs cannot be diffed (truncated stream, mismatched artifact)."""


# ----------------------------------------------------------------------
# Report document plumbing
# ----------------------------------------------------------------------
def build_diff_report(
    kind: str, label_a: str, label_b: str, sections: dict,
) -> dict:
    """Assemble the schema-versioned ``diff_report.json`` document.

    ``sections`` maps section name to a comparator's output; the
    top-level ``identical`` / ``divergences`` / ``regressions`` roll-ups
    aggregate over every section so consumers (and exit codes) need not
    know which comparators ran.
    """
    if kind not in _DIFF_KINDS:
        raise ValueError(
            f"unknown diff kind {kind!r}; expected one of "
            f"{', '.join(sorted(_DIFF_KINDS))}"
        )
    if not sections:
        raise ValueError("a diff report needs at least one section")
    return {
        "schema_version": DIFF_SCHEMA_VERSION,
        "kind": kind,
        "label_a": label_a,
        "label_b": label_b,
        "identical": all(s.get("identical", False) for s in sections.values()),
        "divergences": sum(s.get("divergences", 0) for s in sections.values()),
        "regressions": sum(s.get("regressions", 0) for s in sections.values()),
        "sections": dict(sections),
    }


def load_diff(doc: dict, *, side: str = "diff") -> dict:
    """Validate a diff report produced by :func:`build_diff_report`.

    The round-trip reader for the diff schema: refuses version
    mismatches, truncated documents, unknown kinds, and empty section
    maps, so forensics tooling never interprets half a report.
    """
    if doc.get("schema_version") != DIFF_SCHEMA_VERSION:
        raise ValueError(
            f"{side} report has schema_version "
            f"{doc.get('schema_version')!r}; this tool expects "
            f"{DIFF_SCHEMA_VERSION}"
        )
    missing = _DIFF_FIELDS - set(doc)
    if missing:
        raise ValueError(f"{side} report is missing fields: {sorted(missing)}")
    if doc["kind"] not in _DIFF_KINDS:
        raise ValueError(f"{side} report has unknown kind {doc['kind']!r}")
    if not isinstance(doc["sections"], dict) or not doc["sections"]:
        raise ValueError(f"{side} report has no sections")
    return doc


def write_diff(doc: dict, path) -> Path:
    """Serialise a validated report deterministically (sorted keys)."""
    load_diff(doc)
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ----------------------------------------------------------------------
# Metric delta classification
# ----------------------------------------------------------------------
def _metric_delta(
    metric: str, a, b, *, tolerance_pct: float = 0.0,
    below_floor: bool = False,
) -> dict:
    """One metric's delta cell with a direction-aware classification."""
    delta = b - a
    delta_pct = (delta / a * 100.0) if a else None
    direction = _direction(metric)
    if delta == 0:
        classification = "neutral"
    elif below_floor and metric in _WALL_METRICS:
        classification = "neutral"
    elif delta_pct is not None and abs(delta_pct) <= tolerance_pct:
        classification = "neutral"
    elif direction is None:
        classification = "changed"
    elif (delta > 0) == (direction == "lower"):
        classification = "regressed"
    else:
        classification = "improved"
    return {
        "a": a,
        "b": b,
        "delta": delta,
        "delta_pct": delta_pct,
        "classification": classification,
    }


def metric_table(
    metrics_a: dict, metrics_b: dict, *, wall_tolerance_pct: float = 0.0,
    below_floor: bool = False,
) -> dict:
    """Delta cells for every numeric metric present on both sides."""
    out: dict = {}
    for metric in sorted(set(metrics_a) & set(metrics_b)):
        a, b = metrics_a[metric], metrics_b[metric]
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            continue
        tolerance = wall_tolerance_pct if metric in _WALL_METRICS else 0.0
        out[metric] = _metric_delta(
            metric, a, b, tolerance_pct=tolerance, below_floor=below_floor,
        )
    return out


def tally(cells: dict) -> tuple[int, int, int]:
    """(divergences, regressions, improvements) over a cell table."""
    divergences = sum(
        1 for cell in cells.values() if cell["classification"] != "neutral"
    )
    regressions = sum(
        1 for cell in cells.values() if cell["classification"] == "regressed"
    )
    improvements = sum(
        1 for cell in cells.values() if cell["classification"] == "improved"
    )
    return divergences, regressions, improvements


def phase_waterfall(phases_a: dict, phases_b: dict) -> list[dict]:
    """Attribution-delta waterfall: which phase the moved time went into.

    Each row carries both sides' totals, the delta, and the share of the
    total absolute shift this phase accounts for; rows are ranked
    heaviest |delta| first (ties by phase name) so the first row answers
    "where did the time go".
    """
    names = sorted(set(phases_a) | set(phases_b))
    rows = []
    for name in names:
        a_us = float(phases_a.get(name, 0.0))  # repro-lint: disable=R001 (phase totals are microseconds by the attribution contract)
        b_us = float(phases_b.get(name, 0.0))  # repro-lint: disable=R001 (phase totals are microseconds by the attribution contract)
        rows.append({
            "phase": name,
            "a_us": a_us,
            "b_us": b_us,
            "delta_us": b_us - a_us,
        })
    total_shift_us = sum(abs(row["delta_us"]) for row in rows)
    for row in rows:
        row["share"] = (
            abs(row["delta_us"]) / total_shift_us if total_shift_us else 0.0
        )
    rows.sort(key=lambda row: (-abs(row["delta_us"]), row["phase"]))
    return rows


# ----------------------------------------------------------------------
# Trace diff
# ----------------------------------------------------------------------
def _event_dict(event) -> dict:
    """Comparable plain form of a TraceEvent (or an already-plain dict)."""
    if isinstance(event, dict):
        return event
    return event.to_dict()


def _event_actor(record: dict) -> dict:
    """Best-effort (tenant, channel, die) extraction from one event.

    Tenants ride on ``w<N>`` tracks or ``wid`` args; channels on
    ``ch<N>`` tracks; dies on ``die<N>`` tracks or ``die`` args — the
    naming the simulator and chrometrace classifier already share.
    """
    out: dict = {"tenant": None, "channel": None, "die": None}
    track = record.get("track") or ""
    args = record.get("args") or {}
    for prefix, key in (("w", "tenant"), ("ch", "channel"), ("die", "die")):
        suffix = track[len(prefix):]
        if track.startswith(prefix) and suffix.isdigit():
            out[key] = int(suffix)
            break
    if out["tenant"] is None and isinstance(args.get("wid"), int):
        out["tenant"] = args["wid"]
    if out["die"] is None:
        die = args.get("die")
        if isinstance(die, str) and die.startswith("die") and die[3:].isdigit():
            out["die"] = int(die[3:])
    return out


def diff_traces(events_a, events_b) -> dict:
    """Positionally align two event streams; localize the first fork.

    Streams are compared event-by-event on the full record (timestamp,
    name, track, category, duration, args): the simulator is
    deterministic, so identical histories produce identical streams and
    the first mismatched position *is* the first behavioural divergence.
    Everything after it is summarised as downstream counts — once two
    histories fork, later mismatches are consequences, not causes.
    """
    a = [_event_dict(e) for e in events_a]
    b = [_event_dict(e) for e in events_b]
    compared = min(len(a), len(b))
    first_index = None
    for i in range(compared):
        if a[i] != b[i]:
            first_index = i
            break
    if first_index is None and len(a) != len(b):
        # one stream is a strict prefix of the other: the divergence is
        # the first event the shorter side never emitted
        first_index = compared
    divergent = 0
    if first_index is not None:
        for i in range(first_index, compared):
            if a[i] != b[i]:
                divergent += 1
        divergent += abs(len(a) - len(b))
    first = None
    if first_index is not None:
        rec_a = a[first_index] if first_index < len(a) else None
        rec_b = b[first_index] if first_index < len(b) else None
        present = rec_a if rec_a is not None else rec_b
        kind_a = rec_a["name"] if rec_a else None
        kind_b = rec_b["name"] if rec_b else None
        first = {
            "index": first_index,
            "time_us_a": rec_a["ts_us"] if rec_a else None,
            "time_us_b": rec_b["ts_us"] if rec_b else None,
            "kind": kind_a if kind_a == kind_b else f"{kind_a}->{kind_b}",
            **_event_actor(present),
            "a": rec_a,
            "b": rec_b,
        }
    return {
        "identical": first_index is None,
        "divergences": divergent,
        "regressions": 0,
        "events_a": len(a),
        "events_b": len(b),
        "compared": compared,
        "divergent_events": divergent,
        "first_divergence": first,
    }


# ----------------------------------------------------------------------
# Critical-path diff
# ----------------------------------------------------------------------
def diff_critpath_docs(doc_a: dict, doc_b: dict) -> dict:
    """Align two bottleneck reports by resource bucket; rank the shifts.

    Both documents are validated with the critpath round-trip reader.
    Each resource's total on-critical-path time (device buckets plus the
    ``host`` / ``internal`` / ``residual`` pseudo-resources) is compared;
    the ranked ``shifts`` table answers "which resource's share of the
    makespan moved most", which is the resource-level form of "where did
    the regression go".
    """
    from .critpath import load_report

    for doc in (doc_a, doc_b):
        load_report(doc)
    totals: dict[str, list[float]] = {}
    for slot, doc in ((0, doc_a), (1, doc_b)):
        for name, row in doc["resources"].items():
            totals.setdefault(name, [0.0, 0.0])[slot] = sum(row.values())
        totals.setdefault("host", [0.0, 0.0])[slot] = doc["host_gap_us"]
        totals.setdefault("internal", [0.0, 0.0])[slot] = (
            doc["internal_tail_us"]
        )
        totals.setdefault("residual", [0.0, 0.0])[slot] = doc["residual_us"]
    device_resources = set(doc_a["resources"]) | set(doc_b["resources"])
    shifts = [
        {"resource": name, "a_us": a_us, "b_us": b_us,
         "delta_us": b_us - a_us}
        for name, (a_us, b_us) in totals.items()
    ]
    shifts.sort(key=lambda row: (-abs(row["delta_us"]), row["resource"]))
    moved = [row for row in shifts if row["delta_us"] != 0.0]
    moved_device = [
        row for row in moved if row["resource"] in device_resources
    ]
    ranked_a = doc_a.get("ranked") or []
    ranked_b = doc_b.get("ranked") or []
    makespan = _metric_delta(
        "makespan_us", doc_a["makespan_us"], doc_b["makespan_us"]
    )
    return {
        "identical": not moved and makespan["delta"] == 0,
        "divergences": len(moved),
        "regressions": 1 if makespan["classification"] == "regressed" else 0,
        "makespan": makespan,
        "bottleneck_a": ranked_a[0]["resource"] if ranked_a else None,
        "bottleneck_b": ranked_b[0]["resource"] if ranked_b else None,
        "top_shift": moved[0]["resource"] if moved else None,
        # heaviest shift among actual device resources (channels/dies/
        # DRAM), ignoring the host/internal/residual pseudo-buckets —
        # the answer to "which hardware resource moved"
        "top_resource_shift": (
            moved_device[0]["resource"] if moved_device else None
        ),
        "shifts": shifts,
    }


# ----------------------------------------------------------------------
# Fleet device diff
# ----------------------------------------------------------------------
#: per-device fleet-report fields the comparator reads as metrics
_FLEET_DEVICE_METRICS = (
    "requests", "subrequests", "failed_reads", "makespan_us",
    "total_latency_us", "gc_collections", "gc_pages_moved",
)


def diff_fleet_devices(doc: dict, device_a: int, device_b: int) -> dict:
    """Compare two device entries of one validated fleet report.

    Feeds the fleet loader's per-device sections through the same metric
    classifier the bench diff uses, plus mean/p95 read and write
    latencies and (when the report carries a rollup) the two devices'
    health scores — device-vs-device drift in the bench-diff vocabulary.
    """
    from .fleet import load_fleet

    load_fleet(doc)
    by_device = {entry["device"]: entry for entry in doc["devices"]}
    for device in (device_a, device_b):
        if device not in by_device:
            raise DiffError(
                f"fleet report has no device {device}; devices: "
                f"{sorted(by_device)}"
            )
    entry_a, entry_b = by_device[device_a], by_device[device_b]
    metrics_a = {m: entry_a[m] for m in _FLEET_DEVICE_METRICS if m in entry_a}
    metrics_b = {m: entry_b[m] for m in _FLEET_DEVICE_METRICS if m in entry_b}
    for op in ("read", "write"):
        for stat in ("mean_us", "p95_us"):
            a_stats = entry_a.get(op) or {}
            b_stats = entry_b.get(op) or {}
            if stat in a_stats and stat in b_stats:
                # classified lower-better like every latency metric
                metrics_a[f"{op}_{stat}"] = a_stats[stat]
                metrics_b[f"{op}_{stat}"] = b_stats[stat]
    cells = metric_table(metrics_a, metrics_b)
    divergences, regressions, improvements = tally(cells)
    health = None
    rollup = doc.get("rollup") or {}
    scores = rollup.get("health") or {}
    if str(device_a) in scores and str(device_b) in scores:
        health = {
            "a": scores[str(device_a)],
            "b": scores[str(device_b)],
            "delta": scores[str(device_b)] - scores[str(device_a)],
        }
    return {
        "identical": divergences == 0,
        "divergences": divergences,
        "regressions": regressions,
        "improvements": improvements,
        "device_a": device_a,
        "device_b": device_b,
        "metrics": cells,
        "health": health,
    }


# ----------------------------------------------------------------------
# Run diff (exact re-simulation under two configurations)
# ----------------------------------------------------------------------
#: ``read_latency`` scales die occupancy, so a shifted die bucket names
#: it, and so on — the knob/resource correspondence the integration test
#: cross-checks against the what-if sweep.
_RUN_METRICS = (
    "total_latency_us", "makespan_us", "mean_read_us", "mean_write_us",
)


def _reset(requests) -> None:
    # completion stamps are the only state a run leaves on the trace
    for request in requests:
        request.complete_us = -1.0


def _observed_run(requests, cfg, sets, faults, trace_capacity: int):
    """One fully-observed simulation: result, event dicts, critpath doc."""
    from ..ssd.simulator import simulate  # lazy: obs must not import ssd at module load
    from . import Observability
    from .attribution import AttributionCollector
    from .critpath import extract_critical_path
    from .trace import TraceRecorder

    recorder = TraceRecorder(capacity=trace_capacity)
    collector = AttributionCollector()
    observed = Observability(trace=recorder, attribution=collector)
    _reset(requests)
    result = simulate(
        requests, cfg, sets, record_latencies=True, obs=observed,
        faults=faults,
    )
    if recorder.evicted:
        raise DiffError(
            f"trace ring evicted {recorder.evicted} events (capacity "
            f"{recorder.capacity}); raise trace_capacity= — a truncated "
            "stream cannot localize the first divergence"
        )
    critpath = extract_critical_path(
        collector.records, result.makespan_us
    ).to_dict()
    events = [event.to_dict() for event in recorder.events()]
    _reset(requests)
    return result, events, critpath


def diff_run(
    requests,
    cfg_a,
    sets_a,
    cfg_b=None,
    sets_b=None,
    *,
    faults=None,
    label_a: str = "a",
    label_b: str = "b",
    trace_capacity: int = 1_048_576,
    keep_events: bool = False,
) -> dict:
    """Re-simulate one seeded trace under two configurations and diff.

    Side B defaults to side A's configuration/allocation — the self-diff
    that must come back empty (the CI determinism assertion).  ``faults``
    must be a stateless :class:`~repro.ssd.faults.FaultConfig` (never a
    used injector) so both runs draw the identical fault sequence.

    Returns a full diff report (kind ``run``) with three sections:
    ``metrics`` (summary deltas, direction-classified), ``trace`` (the
    first divergent event and downstream counts), and ``critpath``
    (per-resource on-path shifts between the two runs' bottleneck
    reports).
    """
    from ..ssd.faults import FaultInjector  # lazy, cycle guard

    if isinstance(faults, FaultInjector):
        raise TypeError(
            "pass the FaultConfig, not a FaultInjector: an injector is "
            "stateful and would give each re-simulation a different "
            "fault sequence"
        )
    if cfg_b is None:
        cfg_b = cfg_a
    if sets_b is None:
        sets_b = sets_a
    result_a, events_a, critpath_a = _observed_run(
        requests, cfg_a, sets_a, faults, trace_capacity
    )
    result_b, events_b, critpath_b = _observed_run(
        requests, cfg_b, sets_b, faults, trace_capacity
    )
    metrics_a = {m: getattr(result_a, m) for m in _RUN_METRICS}
    metrics_b = {m: getattr(result_b, m) for m in _RUN_METRICS}
    cells = metric_table(metrics_a, metrics_b)
    divergences, regressions, improvements = tally(cells)
    metrics_section = {
        "identical": divergences == 0,
        "divergences": divergences,
        "regressions": regressions,
        "improvements": improvements,
        "requests": len(requests),
        "metrics": cells,
    }
    sections = {
        "metrics": metrics_section,
        "trace": diff_traces(events_a, events_b),
        "critpath": diff_critpath_docs(critpath_a, critpath_b),
    }
    report = build_diff_report("run", label_a, label_b, sections)
    if keep_events:
        # private carry-alongs for the Chrome-trace exporter; callers
        # must pop them before serialising the report
        report["_events_a"] = events_a
        report["_events_b"] = events_b
    return report
