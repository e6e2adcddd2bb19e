"""Critical-path extraction and bottleneck reporting.

PR 4's attribution decomposes every *request's* latency into exact-sum
phases; this module lifts that to the *run*: which resource bounds the
makespan?  Because the simulator is deterministic and every attribution
record carries the critical sub-request's full timeline (arrival,
completion, per-phase durations, the channel and die it occupied), the
run-level critical path can be reconstructed after the fact, with no
extra events and no new instrumentation cost:

1. start at the makespan and take the request whose completion defines
   it — its phases tile ``[arrival, completion]`` contiguously;
2. jump to that request's arrival and find the latest completion at or
   before it; the interval in between is an **arrival gap** (the chain
   was waiting on the host workload, not the device);
3. repeat until simulated time zero.

The chain provably tiles ``[0, makespan]``: every iteration covers a
contiguous interval ending at the current boundary and strictly moves
the boundary toward zero.  Each phase is charged to the resource that
caused it — queue waits and transfers to the channel bus (while a host
job queues, the bus is continuously busy with other work, so its
busyness *is* the delay), die waits/GC stalls/service to the die,
buffer hits to DRAM, arrival gaps to the host, and any simulated time
after the last host completion (trailing GC erases, background buffer
flushes) to ``internal``.  A ``residual`` bucket absorbs float-rounding
drift so the report always sums to the makespan *exactly*; the
``critpath-exact-sum`` invariant asserts that drift stays within
:data:`~repro.obs.attribution.TOLERANCE_US` — through the runtime
:class:`~repro.analysis.Sanitizer` when one is attached (counted as
``critpath_checks``), as a plain :class:`CritPathError` otherwise.

Like every pillar, extraction is a pure post-processing pass over the
:class:`~repro.obs.attribution.AttributionCollector`'s records: it
schedules no events and draws no randomness, so an explained run's
summary is byte-identical to an unexplained one.
"""

from __future__ import annotations

import math

from ..schema import Schema
from .attribution import TOLERANCE_US, RequestAttribution

__all__ = [
    "CRITPATH_SCHEMA_VERSION",
    "CritPathError",
    "PathStep",
    "BottleneckReport",
    "extract_critical_path",
    "load_report",
]

#: Bump when the report document layout changes shape.
CRITPATH_SCHEMA_VERSION = 1

#: the document of BottleneckReport.to_dict (flight-recorder bundles
#: persist these documents)
CRITPATH_SCHEMA = Schema(
    "critical-path report", CRITPATH_SCHEMA_VERSION,
    required=(
        "makespan_us", "critical_requests", "host_gap_us", "internal_tail_us",
        "residual_us", "resources", "phase_totals_us", "ranked", "steps",
    ),
)

#: validate a persisted bottleneck report (round-trip reader)
load_report = CRITPATH_SCHEMA.load

#: float slack when matching completions against chain boundaries
_TIME_EPSILON_US = 1e-9

#: (phase name, resource kind, bucket) — which resource each phase of a
#: critical record is charged to and under which column
_PHASE_CHARGE = (
    ("queue_channel_us", "channel", "wait_us"),
    ("bus_us", "channel", "service_us"),
    ("queue_die_us", "die", "wait_us"),
    ("gc_stall_us", "die", "gc_us"),
    ("die_us", "die", "service_us"),
    ("ecc_retry_us", "die", "service_us"),
    ("buffer_us", "dram", "service_us"),
)

_BUCKETS = ("wait_us", "service_us", "gc_us")


class CritPathError(RuntimeError):
    """The extracted critical path failed to reproduce the makespan."""


class PathStep:
    """One link of the run-level critical chain (reporting aid)."""

    __slots__ = ("kind", "start_us", "end_us", "record")

    def __init__(
        self, kind: str, start_us: float, end_us: float,
        record: "RequestAttribution | None" = None,
    ) -> None:
        #: ``request`` (a critical record), ``arrival-gap`` (waiting on
        #: the host workload) or ``internal-tail`` (background work past
        #: the last host completion)
        self.kind = kind
        self.start_us = start_us
        self.end_us = end_us
        self.record = record

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "start_us": self.start_us,
            "end_us": self.end_us,
        }
        if self.record is not None:
            out["workload_id"] = self.record.workload_id
            out["op"] = self.record.op
            out["channel"] = self.record.channel
            out["die"] = self.record.die
        return out


def _new_row() -> dict[str, float]:
    return {name: 0.0 for name in _BUCKETS}


class BottleneckReport:
    """Per-resource on-critical-path time for one run.

    ``resources`` maps resource name (``ch3``, ``die5``, ``dram``,
    ``host``, ``internal``, ``residual``) to a row of summed
    microseconds (``wait_us`` / ``service_us`` / ``gc_us``); the rows'
    totals sum to :attr:`makespan_us` exactly (``residual`` absorbs
    float drift, asserted within tolerance by the extractor).
    """

    __slots__ = (
        "makespan_us", "resources", "phase_totals_us", "steps",
        "critical_requests", "host_gap_us", "internal_tail_us",
        "residual_us",
    )

    def __init__(
        self,
        makespan_us: float,
        resources: dict[str, dict[str, float]],
        phase_totals_us: dict[str, float],
        steps: list[PathStep],
        critical_requests: int,
        host_gap_us: float,
        internal_tail_us: float,
        residual_us: float,
    ) -> None:
        self.makespan_us = makespan_us
        self.resources = resources
        #: per-phase totals restricted to the critical chain
        self.phase_totals_us = phase_totals_us
        self.steps = steps
        self.critical_requests = critical_requests
        self.host_gap_us = host_gap_us
        self.internal_tail_us = internal_tail_us
        self.residual_us = residual_us

    # ------------------------------------------------------------------
    def total_us(self) -> float:
        """Sum over every bucket; equals the makespan by construction."""
        device_us = math.fsum(  # repro-lint: disable=R001 (fsum over the *_us bucket rows)
            bucket_us
            for row in self.resources.values()
            for bucket_us in row.values()
        )
        return (
            device_us + self.host_gap_us + self.internal_tail_us
            + self.residual_us
        )

    def ranked(self) -> list[tuple[str, float]]:
        """(resource, on-critical-path us) pairs, heaviest first.

        Host gaps / internal tail / residual are included as
        pseudo-resources so the table accounts for the whole makespan.
        """
        rows = [
            (name, sum(row.values())) for name, row in self.resources.items()
        ]
        rows.append(("host", self.host_gap_us))
        rows.append(("internal", self.internal_tail_us))
        if self.residual_us:
            rows.append(("residual", self.residual_us))
        rows.sort(key=lambda item: (-item[1], item[0]))
        return [(name, value) for name, value in rows if value != 0.0]

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return CRITPATH_SCHEMA.stamp(
            makespan_us=self.makespan_us,
            critical_requests=self.critical_requests,
            host_gap_us=self.host_gap_us,
            internal_tail_us=self.internal_tail_us,
            residual_us=self.residual_us,
            resources={
                name: dict(row) for name, row in sorted(self.resources.items())
            },
            phase_totals_us={**self.phase_totals_us},
            ranked=[
                {"resource": name, "critpath_us": critpath_us}
                for name, critpath_us in self.ranked()
            ],
            steps=len(self.steps),
        )

    def format(self, top: int = 8) -> str:
        """Human-readable bottleneck table (embedded in ``repro explain``)."""
        makespan_us = self.makespan_us
        lines = [
            f"critical path over {self.critical_requests} requests "
            f"covering {makespan_us / 1e6:.3f}s makespan:"
        ]
        for name, value in self.ranked()[:top]:
            share = value / makespan_us if makespan_us > 0 else 0.0
            detail = ""
            row = self.resources.get(name)
            if row is not None:
                parts = [
                    f"{bucket[:-3]} {row[bucket]:.0f}"
                    for bucket in _BUCKETS if row[bucket] > 0.0
                ]
                if parts:
                    detail = f"  [{', '.join(parts)}]"
            lines.append(
                f"  {name:<10} {value:>14.1f} us  ({share:6.1%}){detail}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
def _resource_name(kind: str, rec: RequestAttribution) -> str:
    if kind == "channel":
        return "dram" if rec.channel < 0 else f"ch{rec.channel}"
    if kind == "die":
        return "dram" if rec.die < 0 else f"die{rec.die}"
    return "dram"


def _pick_completion(
    records: list[RequestAttribution], boundary_us: float
) -> RequestAttribution | None:
    """Latest-completing record at or before ``boundary_us``.

    Among records completing at the same instant the one with the
    earliest arrival wins (maximal chain coverage); further ties break
    deterministically on (workload, op, channel).
    """
    best = None
    best_key = None
    for rec in records:
        if rec.complete_us > boundary_us + _TIME_EPSILON_US:
            continue
        key = (-rec.complete_us, rec.arrival_us, rec.workload_id, rec.op,
               rec.channel)
        if best_key is None or key < best_key:
            best, best_key = rec, key
    return best


def extract_critical_path(
    records: list[RequestAttribution],
    makespan_us: float,
    *,
    sanitizer=None,
    validate: bool = True,
) -> BottleneckReport:
    """Reconstruct the run-level critical path from attribution records.

    ``makespan_us`` is the run's final simulated time
    (:attr:`~repro.ssd.metrics.SimulationResult.makespan_us`); passing
    the simulated time of an *unfinished* run (flight-recorder dumps)
    also works — the chain then starts from the latest completion so far
    and the remainder lands in ``internal_tail_us``.

    ``validate=True`` asserts the ``critpath-exact-sum`` invariant: the
    chain's segments reproduce the makespan within :data:`TOLERANCE_US` —
    through ``sanitizer`` when one is attached, raising
    :class:`CritPathError` otherwise.
    """
    if makespan_us < 0:
        raise ValueError("makespan_us must be non-negative")
    resources: dict[str, dict[str, float]] = {}
    phase_totals_us = {phase: 0.0 for phase, _kind, _bucket in _PHASE_CHARGE}
    steps: list[PathStep] = []
    segment_values: list[float] = []
    host_gap_us = 0.0
    internal_tail_us = 0.0
    critical_requests = 0

    boundary_us = makespan_us
    while boundary_us > _TIME_EPSILON_US:
        rec = _pick_completion(records, boundary_us)
        if rec is None:
            # nothing completed before the boundary: the whole remainder
            # preceded the first critical arrival — host idle time
            host_gap_us += boundary_us
            segment_values.append(boundary_us)
            steps.append(PathStep("arrival-gap", 0.0, boundary_us))
            boundary_us = 0.0
            break
        if rec.complete_us < boundary_us - _TIME_EPSILON_US:
            # trailing simulated time past the last completion: internal
            # work (GC erases, background flushes) ran the clock out
            gap_us = boundary_us - rec.complete_us
            kind = "internal-tail" if not steps else "arrival-gap"
            if kind == "internal-tail":
                internal_tail_us += gap_us
            else:
                host_gap_us += gap_us
            segment_values.append(gap_us)
            steps.append(PathStep(kind, rec.complete_us, boundary_us))
            boundary_us = rec.complete_us
            continue
        # the record completing at the boundary: its phases tile
        # [arrival, complete] contiguously
        critical_requests += 1
        steps.append(
            PathStep("request", rec.arrival_us, rec.complete_us, rec)
        )
        for phase, kind, bucket in _PHASE_CHARGE:
            value = getattr(rec, phase)
            if value == 0.0:
                continue
            name = _resource_name(kind, rec)
            row = resources.get(name)
            if row is None:
                row = resources[name] = _new_row()
            row[bucket] += value
            phase_totals_us[phase] += value
            segment_values.append(value)
        if rec.arrival_us >= boundary_us:  # pragma: no cover - defensive
            # a zero-latency record cannot advance the chain; charge the
            # remainder to the residual check below and stop
            break
        boundary_us = rec.arrival_us

    covered_us = math.fsum(segment_values)  # repro-lint: disable=R001 (fsum over *_us segments)
    residual_us = makespan_us - covered_us
    steps.reverse()  # chronological order for consumers

    if validate:
        if sanitizer is not None:
            sanitizer.on_critpath(covered_us, makespan_us, TOLERANCE_US)
        elif residual_us > TOLERANCE_US or residual_us < -TOLERANCE_US:
            raise CritPathError(
                f"critical-path segments sum to {covered_us!r}us but the "
                f"run makespan is {makespan_us!r}us (gap {-residual_us:g}, "
                f"tolerance {TOLERANCE_US:g})"
            )

    return BottleneckReport(
        makespan_us=makespan_us,
        resources=resources,
        phase_totals_us=phase_totals_us,
        steps=steps,
        critical_requests=critical_requests,
        host_gap_us=host_gap_us,
        internal_tail_us=internal_tail_us,
        residual_us=residual_us,
    )
