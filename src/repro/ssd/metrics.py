"""Latency aggregation and simulation results.

:class:`LatencyAccumulator` collects per-workload, per-op latencies online;
:class:`SimulationResult` is the immutable summary a simulation run returns.
The paper's headline metric is *total response latency* = sum of read latency
and write latency (Section III-B), reproduced here as
:meth:`SimulationResult.total_latency_us`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
from typing import TYPE_CHECKING, ClassVar

from .request import OpType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs is optional)
    from ..obs.attribution import LatencyBreakdown

__all__ = ["OpStats", "LatencyAccumulator", "SimulationResult"]


@dataclass
class OpStats:
    """Online statistics for one (workload, op) stream."""

    count: int = 0
    total_us: float = 0.0
    max_us: float = 0.0
    min_us: float = math.inf
    #: raw samples, kept only when the accumulator records latencies
    samples: list[float] | None = None
    #: cached sorted view of ``samples`` (invalidated by length change)
    _sorted: list[float] | None = field(
        default=None, repr=False, compare=False
    )

    _PERCENTILE_RANGE_MSG: ClassVar[str] = "percentile must be in [0, 100]"

    def add(self, latency_us: float) -> None:
        self.count += 1
        self.total_us += latency_us
        if latency_us > self.max_us:
            self.max_us = latency_us
        if latency_us < self.min_us:
            self.min_us = latency_us
        if self.samples is not None:
            self.samples.append(latency_us)

    @property
    def mean_us(self) -> float:
        return self.total_us / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """q-th percentile (0..100); requires recorded samples.

        The sorted view is cached and reused until new samples arrive,
        so repeated percentile queries (p50/p95/p99 in one report) sort
        at most once.
        """
        if not 0 <= q <= 100:
            raise ValueError(self._PERCENTILE_RANGE_MSG)
        if self.samples is None:
            raise RuntimeError("latencies were not recorded; pass record_latencies=True")
        if not self.samples:
            return 0.0
        data = self._sorted
        if data is None or len(data) != len(self.samples):
            data = self._sorted = sorted(self.samples)
        pos = (len(data) - 1) * q / 100.0
        lo = int(pos)
        hi = min(lo + 1, len(data) - 1)
        frac = pos - lo
        return data[lo] * (1 - frac) + data[hi] * frac

    def merged(self, other: "OpStats") -> "OpStats":
        """Combine two stat streams.

        Samples survive whenever either side recorded them (merging a
        recorded stream with a non-recorded, non-empty one keeps the
        recorded side's samples — percentiles then describe the recorded
        subset rather than silently disappearing).  Two empty streams
        merge to an empty result with ``min_us`` of 0.0, not ``inf``.
        """
        both_empty = self.count == 0 and other.count == 0
        out = OpStats(
            count=self.count + other.count,
            total_us=self.total_us + other.total_us,
            max_us=max(self.max_us, other.max_us),
            min_us=0.0 if both_empty else min(self.min_us, other.min_us),
        )
        if self.samples is not None or other.samples is not None:
            out.samples = list(self.samples or ()) + list(other.samples or ())
        return out


class LatencyAccumulator:
    """Collects completed-request latencies keyed by (workload, op)."""

    def __init__(self, record_latencies: bool = False) -> None:
        self.record = record_latencies
        self._stats: dict[tuple[int, OpType], OpStats] = {}

    def add(self, workload_id: int, op: OpType, latency_us: float) -> None:
        key = (workload_id, op)
        stats = self._stats.get(key)
        if stats is None:
            stats = OpStats(samples=[] if self.record else None)
            self._stats[key] = stats
        stats.add(latency_us)

    def stats(self, workload_id: int, op: OpType) -> OpStats:
        return self._stats.get((workload_id, op), OpStats())

    def set_stats(self, workload_id: int, op: OpType, stats: OpStats) -> None:
        """Install pre-aggregated stats (used by the vectorised fast model)."""
        self._stats[(workload_id, op)] = stats

    def workloads(self) -> list[int]:
        return sorted({wid for wid, _ in self._stats})

    def op_totals(self, op: OpType) -> OpStats:
        out = OpStats()
        for (_, key_op), stats in self._stats.items():
            if key_op is op:
                out = out.merged(stats)
        return out


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated trace.

    ``read`` / ``write`` aggregate over all workloads; ``per_workload`` maps
    workload id to its own (read, write) pair.  ``total_latency_us`` — the
    paper's optimisation objective — is the sum of all read and write
    latencies.
    """

    read: OpStats
    write: OpStats
    per_workload: dict[int, tuple[OpStats, OpStats]]
    #: simulated time at which the last request completed (microseconds)
    makespan_us: float
    #: number of host requests served
    requests: int
    #: number of page-level sub-requests served
    subrequests: int
    #: GC blocks reclaimed / valid pages copied
    gc_collections: int = 0
    gc_pages_moved: int = 0
    #: host requests that completed with an unrecoverable read error (their
    #: latencies are excluded from the read/write stats)
    failed_reads: int = 0
    #: sum of time sub-requests spent waiting for dies / channel buses
    die_wait_us: float = 0.0
    channel_wait_us: float = 0.0
    #: heap events the event loop dispatched (0 for the fast model): one
    #: per resource hold, one per arrival, plus other callbacks.  A host
    #: work counter, not a simulated value.
    events: int = 0
    extras: dict = field(default_factory=dict)
    #: per-phase latency attribution summary, present only when the run was
    #: observed with ``Observability(attribution=True)``
    breakdown: "LatencyBreakdown | None" = None
    #: SLO watchdog alerts (plain dicts, see :mod:`repro.obs.slo`), present
    #: only when the run was observed with an armed watchdog; deliberately
    #: excluded from :meth:`summary` so an SLO'd run stays byte-identical
    alerts: "list[dict] | None" = None

    @property
    def total_latency_us(self) -> float:
        """Sum of read and write response latencies (paper's objective)."""
        return self.read.total_us + self.write.total_us

    @property
    def mean_read_us(self) -> float:
        return self.read.mean_us

    @property
    def mean_write_us(self) -> float:
        return self.write.mean_us

    @property
    def mean_total_us(self) -> float:
        n = self.read.count + self.write.count
        return self.total_latency_us / n if n else 0.0

    def summary(self) -> str:
        """One-line human-readable digest.

        When per-request samples were recorded (``record_latencies=True``)
        the digest also carries the read-latency tail (p95/p99).
        """
        text = (
            f"{self.requests} reqs ({self.subrequests} pages) in "
            f"{self.makespan_us / 1e6:.3f}s sim-time; mean read "
            f"{self.read.mean_us:.1f}us, mean write {self.write.mean_us:.1f}us, "
            f"total latency {self.total_latency_us / 1e6:.3f}s, "
            f"GC {self.gc_collections} blocks / {self.gc_pages_moved} moves"
        )
        if self.failed_reads:
            text += f", {self.failed_reads} failed reads"
        faults = self.extras.get("faults")
        if faults:
            text += (
                f", faults[retries {faults['read_retries']}, "
                f"pfail {faults['program_failures']}, "
                f"efail {faults['erase_failures']}, "
                f"retired {faults['retired_blocks']}]"
            )
        if self.read.samples:
            text += (
                f", read p95 {self.read.percentile(95):.1f}us"
                f" p99 {self.read.percentile(99):.1f}us"
            )
        return text


def build_result(
    acc: LatencyAccumulator,
    *,
    makespan_us: float,
    requests: int,
    subrequests: int,
    gc_collections: int = 0,
    gc_pages_moved: int = 0,
    failed_reads: int = 0,
    die_wait_us: float = 0.0,
    channel_wait_us: float = 0.0,
    events: int = 0,
    extras: dict | None = None,
) -> SimulationResult:
    """Assemble a :class:`SimulationResult` from an accumulator."""
    per_workload = {
        wid: (acc.stats(wid, OpType.READ), acc.stats(wid, OpType.WRITE))
        for wid in acc.workloads()
    }
    return SimulationResult(
        read=acc.op_totals(OpType.READ),
        write=acc.op_totals(OpType.WRITE),
        per_workload=per_workload,
        makespan_us=makespan_us,
        requests=requests,
        subrequests=subrequests,
        gc_collections=gc_collections,
        gc_pages_moved=gc_pages_moved,
        failed_reads=failed_reads,
        die_wait_us=die_wait_us,
        channel_wait_us=channel_wait_us,
        events=events,
        extras=extras or {},
    )
