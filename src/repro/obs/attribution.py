"""Per-request latency attribution.

PR 1's observability reports end-to-end latencies and coarse busy
fractions — enough to see *that* an allocation is slow, not *why*.  This
module decomposes every completed request's response latency into named
**phases** along its critical path (the sub-request whose completion
determined the request's completion time), the way EagleTree and
SimpleSSD decompose their internal delays:

``queue_channel_us``
    time the critical sub-request waited for its channel bus;
``queue_die_us``
    time it waited for its die behind *host* work;
``gc_stall_us``
    the portion of the die wait spent behind internal work (GC copyback
    + erase, fault-relocation) granted while the sub-request was queued;
``bus_us``
    channel occupancy (page transfer);
``die_us``
    base die occupancy (command + tR, or tPROG);
``ecc_retry_us``
    extra die occupancy paid for ECC read retries under fault injection;
``buffer_us``
    DRAM latency, when the critical page was served by the write buffer.

The decomposition is **exact**: because the critical sub-request's
timeline is contiguous from submission to completion, the phases sum to
the recorded request latency to within float tolerance
(:data:`TOLERANCE_US`).  Every :meth:`AttributionCollector.record`
validates that identity — through the runtime
:class:`~repro.analysis.Sanitizer` when one is attached (so a mismatch
is reported with the correlated event trail), as a plain
:class:`AttributionError` otherwise.

Everything is opt-in: the simulator reaches the collector only through
its :class:`~repro.obs.probe.DeviceProbe`, so a bare device pays nothing
for it.  An enabled run's simulated timeline is untouched (the collector
schedules no events and draws no randomness), so its latency summary is
byte-identical to a disabled run's.

When a :class:`~repro.obs.trace.TraceRecorder` is attached, each
recorded request additionally emits Chrome-trace spans (``req_span``
plus one span per non-empty phase, category ``attr``) on its tenant's
track, so a single request's life — waiting, sensing, transferring,
stalled behind GC — is visible in Perfetto.
"""

from __future__ import annotations

__all__ = [
    "PHASE_NAMES",
    "DRAM_CHANNEL",
    "AttributionError",
    "SubrequestSpan",
    "RequestAttribution",
    "LatencyBreakdown",
    "AttributionCollector",
]

#: Canonical phase vocabulary, in report order.  Phase values are summed
#: microseconds; for every recorded request they sum to its latency.
PHASE_NAMES = (
    "queue_channel_us",
    "queue_die_us",
    "gc_stall_us",
    "bus_us",
    "die_us",
    "ecc_retry_us",
    "buffer_us",
)

#: ``channel`` key used for requests whose critical page was served by
#: the DRAM buffer (no flash channel involved).
DRAM_CHANNEL = -1

#: float slack of the exact-sum identities: a request's phases against its
#: latency here, a critical path's segments against the makespan in
#: :mod:`repro.obs.critpath`
TOLERANCE_US = 1e-6


class AttributionError(RuntimeError):
    """The phases of a request failed to sum to its recorded latency."""


class SubrequestSpan:
    """Mutable per-sub-request timeline the simulator fills in.

    One span is created per dispatched page when attribution is enabled;
    only the span of the *critical* page (the one completing last) is
    recorded.  The span knows its die and its service times up front, so
    its bound :meth:`die_granted` / :meth:`bus_granted` serve directly as
    the resources' grant callbacks.  It samples its die's
    ``gc_busy_time_us`` counter at enqueue and grant, so the slice of the
    die wait spent behind internal (GC-priority) work is separated out
    exactly.
    """

    __slots__ = (
        "channel", "die", "die_resource",
        "die_enq_us", "die_grant_us", "die_wait_us", "gc_stall_us",
        "die_us", "ecc_retry_us",
        "bus_enq_us", "bus_grant_us", "bus_wait_us", "bus_us",
        "buffer_us", "end_us",
        "_gc_mark_us",
    )

    def __init__(self, channel: int, die: int = -1, die_resource=None, die_us: float = 0.0,
                 ecc_retry_us: float = 0.0, bus_us: float = 0.0, buffer_us: float = 0.0) -> None:
        self.channel = channel
        #: die index the critical page occupied (``-1`` = DRAM buffer);
        #: the critical-path explainer keys its per-resource report on it
        self.die = die
        #: the die's :class:`~repro.ssd.engine.Resource` (``None`` for a
        #: DRAM-served page), sampled for GC busy time while queued
        self.die_resource = die_resource
        self.die_enq_us = 0.0
        self.die_grant_us = 0.0
        self.die_wait_us = 0.0
        self.gc_stall_us = 0.0
        #: base die occupancy, ECC-retry surcharge and bus transfer time
        self.die_us = die_us
        self.ecc_retry_us = ecc_retry_us
        self.bus_enq_us = 0.0
        self.bus_grant_us = 0.0
        self.bus_wait_us = 0.0
        self.bus_us = bus_us
        self.buffer_us = buffer_us
        self.end_us = 0.0
        self._gc_mark_us = 0.0

    # -- hooks the simulator calls at the matching simulation moments ----
    def die_enqueued(self, now_us: float) -> None:
        """The sub-request asked for its die at ``now_us``."""
        self.die_enq_us = now_us
        self._gc_mark_us = self.die_resource.gc_busy_time_us

    def die_granted(self, start_us: float) -> None:
        """The die granted service at ``start_us``.

        The wait splits into time behind internal GC-priority work
        (grants that bumped ``die.gc_busy_time_us`` while we queued —
        their service windows lie entirely inside ours, so the busy-time
        delta is the exact overlap) and time behind host work.
        """
        self.die_grant_us = start_us
        wait_us = start_us - self.die_enq_us
        stall_us = self.die_resource.gc_busy_time_us - self._gc_mark_us
        if stall_us > wait_us:
            stall_us = wait_us
        self.gc_stall_us = stall_us
        self.die_wait_us = wait_us - stall_us

    def bus_enqueued(self, now_us: float) -> None:
        """The sub-request asked for its channel bus at ``now_us``."""
        self.bus_enq_us = now_us

    def bus_granted(self, start_us: float) -> None:
        """The channel bus granted the transfer at ``start_us``."""
        self.bus_grant_us = start_us
        self.bus_wait_us = start_us - self.bus_enq_us


class RequestAttribution:
    """Immutable phase decomposition of one completed request."""

    __slots__ = (
        "workload_id", "op", "channel", "die", "latency_us",
        "arrival_us", "complete_us",
        "queue_channel_us", "queue_die_us", "gc_stall_us",
        "bus_us", "die_us", "ecc_retry_us", "buffer_us",
    )

    def __init__(
        self,
        workload_id: int,
        op: str,
        channel: int,
        latency_us: float,
        *,
        die: int = -1,
        arrival_us: float = 0.0,
        complete_us: float | None = None,
        queue_channel_us: float = 0.0,
        queue_die_us: float = 0.0,
        gc_stall_us: float = 0.0,
        bus_us: float = 0.0,
        die_us: float = 0.0,
        ecc_retry_us: float = 0.0,
        buffer_us: float = 0.0,
    ) -> None:
        self.workload_id = workload_id
        self.op = op
        self.channel = channel
        self.die = die
        self.latency_us = latency_us
        self.arrival_us = arrival_us
        #: absolute completion time; defaults to ``arrival + latency`` so
        #: hand-built records stay consistent with simulator-filled ones
        self.complete_us = (
            complete_us if complete_us is not None else arrival_us + latency_us
        )
        self.queue_channel_us = queue_channel_us
        self.queue_die_us = queue_die_us
        self.gc_stall_us = gc_stall_us
        self.bus_us = bus_us
        self.die_us = die_us
        self.ecc_retry_us = ecc_retry_us
        self.buffer_us = buffer_us

    def phases(self) -> dict[str, float]:
        """Phase name -> attributed microseconds."""
        return {name: getattr(self, name) for name in PHASE_NAMES}

    def phase_sum_us(self) -> float:
        """Sum of all phases; equals ``latency_us`` within tolerance."""
        return (
            self.queue_channel_us + self.queue_die_us + self.gc_stall_us
            + self.bus_us + self.die_us + self.ecc_retry_us + self.buffer_us
        )

    def to_dict(self) -> dict:
        return {
            "workload_id": self.workload_id,
            "op": self.op,
            "channel": self.channel,
            "die": self.die,
            "arrival_us": self.arrival_us,
            "complete_us": self.complete_us,
            "latency_us": self.latency_us,
            **self.phases(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestAttribution(w{self.workload_id} {self.op} "
            f"ch{self.channel} {self.latency_us:.1f}us)"
        )


class LatencyBreakdown:
    """Aggregated attribution summary attached to a simulation result.

    ``phase_totals_us`` sums each phase over all recorded requests;
    ``per_tenant`` / ``per_channel`` carry the same sums keyed by
    workload id and by channel index (``-1`` = DRAM buffer), each with
    ``requests`` and ``latency_us`` alongside the phases.  ``gc`` holds
    the cause-side view: which tenants *triggered* GC work and which
    channels *paid* for reclaims.
    """

    __slots__ = (
        "requests", "total_latency_us", "phase_totals_us",
        "per_tenant", "per_channel", "gc_triggers", "gc_reclaims",
    )

    def __init__(
        self,
        requests: int,
        total_latency_us: float,
        phase_totals_us: dict[str, float],
        per_tenant: dict[int, dict[str, float]],
        per_channel: dict[int, dict[str, float]],
        gc_triggers: dict[int, dict[str, int]],
        gc_reclaims: dict[int, dict[str, int]],
    ) -> None:
        self.requests = requests
        self.total_latency_us = total_latency_us
        self.phase_totals_us = phase_totals_us
        self.per_tenant = per_tenant
        self.per_channel = per_channel
        self.gc_triggers = gc_triggers
        self.gc_reclaims = gc_reclaims

    def phase_fractions(self) -> dict[str, float]:
        """Phase name -> share of the total attributed latency."""
        total_us = self.total_latency_us
        if total_us <= 0:
            return {name: 0.0 for name in PHASE_NAMES}
        return {
            name: value / total_us
            for name, value in self.phase_totals_us.items()
        }

    def to_dict(self) -> dict:
        phase_totals_us = {**self.phase_totals_us}
        return {
            "requests": self.requests,
            "total_latency_us": self.total_latency_us,
            "phase_totals_us": phase_totals_us,
            "phase_fractions": self.phase_fractions(),
            "per_tenant": {
                wid: dict(row) for wid, row in sorted(self.per_tenant.items())
            },
            "per_channel": {
                ch: dict(row) for ch, row in sorted(self.per_channel.items())
            },
            "gc": {
                "triggered_by_tenant": {
                    wid: dict(row)
                    for wid, row in sorted(self.gc_triggers.items())
                },
                "reclaims_by_channel": {
                    ch: dict(row)
                    for ch, row in sorted(self.gc_reclaims.items())
                },
            },
        }

    def format(self) -> str:
        """Human-readable phase table (embedded in ``repro stats``)."""
        fractions = self.phase_fractions()
        lines = [
            f"latency attribution over {self.requests} requests "
            f"({self.total_latency_us / 1e6:.3f}s total):"
        ]
        for name in PHASE_NAMES:
            total_us = self.phase_totals_us[name]
            if total_us == 0.0:
                continue
            lines.append(
                f"  {name:<18} {total_us:>14.1f} us  ({fractions[name]:6.1%})"
            )
        if self.gc_triggers:
            caused = ", ".join(
                f"w{wid}: {row['work_items']} items/{row['writes']} writes"
                for wid, row in sorted(self.gc_triggers.items())
            )
            lines.append(f"  gc triggered by    {caused}")
        return "\n".join(lines)


def _new_row() -> dict[str, float]:
    row = {name: 0.0 for name in PHASE_NAMES}
    row["requests"] = 0.0
    row["latency_us"] = 0.0
    return row


class AttributionCollector:
    """Opt-in sink for per-request phase decompositions.

    Every :class:`RequestAttribution` is kept on :attr:`records`, the
    collector's only copy of the phases: critical-path extraction and the
    flight recorder read it, and :meth:`breakdown` folds it into the
    per-phase, per-tenant and per-channel sums.

    Parameters
    ----------
    trace:
        Optional :class:`~repro.obs.trace.TraceRecorder`; when attached,
        each record emits per-phase Chrome-trace spans on the tenant's
        track (category ``attr``).
    """

    def __init__(self, *, trace=None) -> None:
        self.trace = trace if trace is not None and trace.enabled else None
        #: optional :class:`repro.analysis.Sanitizer`; when attached, the
        #: exact-sum check routes through it (counted, trace-correlated)
        self.sanitizer = None
        self.records: list[RequestAttribution] = []
        #: workload id -> {"writes", "work_items"}: GC work charged on
        #: behalf of that tenant's writes (the *cause* side of gc_stall)
        self.gc_triggers: dict[int, dict[str, int]] = {}
        #: channel -> {"blocks", "moves", "retired"}: reclaim activity on
        #: that channel's planes (the *payer* side)
        self.gc_reclaims: dict[int, dict[str, int]] = {}

    # ------------------------------------------------------------------
    def note_gc_trigger(self, workload_id: int, work_items: int) -> None:
        """One host write charged ``work_items`` internal work items."""
        row = self.gc_triggers.get(workload_id)
        if row is None:
            row = self.gc_triggers[workload_id] = {"writes": 0, "work_items": 0}
        row["writes"] += 1
        row["work_items"] += work_items

    def note_gc_reclaim(
        self, channel: int, moves: int, retired: bool
    ) -> None:
        """One block reclaimed (or retired) on ``channel``'s planes."""
        row = self.gc_reclaims.get(channel)
        if row is None:
            row = self.gc_reclaims[channel] = {
                "blocks": 0, "moves": 0, "retired": 0,
            }
        row["blocks"] += 1
        row["moves"] += moves
        if retired:
            row["retired"] += 1

    # ------------------------------------------------------------------
    def record(self, request, span: SubrequestSpan) -> RequestAttribution:
        """Keep one completed request's critical-path decomposition.

        Validates the exact-sum identity before appending to
        :attr:`records`; raises :class:`AttributionError` (or fails the
        attached sanitizer) when the phases do not reproduce the recorded
        latency.
        """
        rec = RequestAttribution(
            request.workload_id,
            "read" if request.is_read else "write",
            span.channel,
            request.latency_us,
            die=span.die,
            arrival_us=request.arrival_us,
            complete_us=request.complete_us,
            queue_channel_us=span.bus_wait_us,
            queue_die_us=span.die_wait_us,
            gc_stall_us=span.gc_stall_us,
            bus_us=span.bus_us,
            die_us=span.die_us,
            ecc_retry_us=span.ecc_retry_us,
            buffer_us=span.buffer_us,
        )
        self._validate(rec)
        self.records.append(rec)
        if self.trace is not None:
            self._emit_spans(request, span, rec)
        return rec

    def _validate(self, rec: RequestAttribution) -> None:
        total_us = rec.phase_sum_us()
        if self.sanitizer is not None:
            self.sanitizer.on_attribution(
                rec.workload_id, rec.op, total_us, rec.latency_us,
                TOLERANCE_US,
            )
            return
        gap_us = total_us - rec.latency_us
        if gap_us > TOLERANCE_US or gap_us < -TOLERANCE_US:
            raise AttributionError(
                f"w{rec.workload_id} {rec.op}: phases sum to {total_us!r}us "
                f"but the recorded latency is {rec.latency_us!r}us "
                f"(gap {gap_us:g}, tolerance {TOLERANCE_US:g}): "
                f"{rec.phases()}"
            )

    # ------------------------------------------------------------------
    def _emit_spans(
        self, request, span: SubrequestSpan, rec: RequestAttribution
    ) -> None:
        """Chrome-trace spans for one request's critical path (Perfetto)."""
        tr = self.trace
        track = f"w{rec.workload_id}"
        args = {"op": rec.op, "lpn": request.lpn, "channel": rec.channel}
        tr.emit(
            request.arrival_us, "req_span", track, "attr",
            dur_us=rec.latency_us, args=args,
        )
        if span.buffer_us:
            tr.emit(
                request.arrival_us, "req_dram", track, "attr",
                dur_us=span.buffer_us,
            )
            return
        wait_die_us = span.die_grant_us - span.die_enq_us
        if wait_die_us > 0:
            tr.emit(
                span.die_enq_us, "req_wait_die", track, "attr",
                dur_us=wait_die_us,
                args={"gc_stall_us": span.gc_stall_us} if span.gc_stall_us else None,
            )
        tr.emit(
            span.die_grant_us, "req_die", track, "attr",
            dur_us=span.die_us + span.ecc_retry_us,
            args={"ecc_retry_us": span.ecc_retry_us} if span.ecc_retry_us else None,
        )
        if span.bus_wait_us > 0:
            tr.emit(
                span.bus_enq_us, "req_wait_bus", track, "attr",
                dur_us=span.bus_wait_us,
            )
        tr.emit(span.bus_grant_us, "req_bus", track, "attr", dur_us=span.bus_us)

    # ------------------------------------------------------------------
    def breakdown(self) -> LatencyBreakdown:
        """Immutable aggregate snapshot (attached to the result).

        Folds :attr:`records` in record order, so every sum adds the same
        values in the same order as a running total would.
        """
        total_latency_us = 0.0
        phase_totals_us = {name: 0.0 for name in PHASE_NAMES}
        per_tenant: dict[int, dict[str, float]] = {}
        per_channel: dict[int, dict[str, float]] = {}
        for rec in self.records:
            total_latency_us += rec.latency_us
            tenant = per_tenant.get(rec.workload_id)
            if tenant is None:
                tenant = per_tenant[rec.workload_id] = _new_row()
            chan = per_channel.get(rec.channel)
            if chan is None:
                chan = per_channel[rec.channel] = _new_row()
            for name in PHASE_NAMES:
                value = getattr(rec, name)
                phase_totals_us[name] += value
                tenant[name] += value
                chan[name] += value
            tenant["requests"] += 1
            tenant["latency_us"] += rec.latency_us
            chan["requests"] += 1
            chan["latency_us"] += rec.latency_us
        return LatencyBreakdown(
            requests=len(self.records),
            total_latency_us=total_latency_us,
            phase_totals_us=phase_totals_us,
            per_tenant=per_tenant,
            per_channel=per_channel,
            gc_triggers={wid: dict(r) for wid, r in self.gc_triggers.items()},
            gc_reclaims={ch: dict(r) for ch, r in self.gc_reclaims.items()},
        )
