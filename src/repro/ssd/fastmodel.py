"""Vectorised timeline model for bulk strategy sweeps.

Label generation (Algorithm 1) simulates every mixed workload under **all 42
channel-allocation strategies**.  The event-driven simulator is exact but
slow for that purpose, so this module provides a fast approximation that
keeps the mechanics that decide *which strategy wins*:

* per-die serialisation of flash operations (tR / tPROG);
* per-channel serialisation of page transfers;
* read = die-then-bus, write = bus-then-die phase order;
* tenant channel sets and page-allocation striping.

Deliberate simplifications (documented in DESIGN.md and validated for
strategy-*ranking* agreement against the DES in
``tests/integration/test_fastmodel_fidelity.py``):

* FIFO service per resource instead of read-priority preemption of queued
  writes;
* no garbage collection (the label-generation windows are far too short to
  trigger it on a Table-I-sized device);
* dynamic page allocation approximated by write-sequence striping over the
  tenant's planes (captures the load spreading, not the instantaneous-load
  adaptivity).

Sweeps (:func:`fast_sweep`) prepare the trace once -- sort, request and
sub-request arrays, ``reduceat`` starts -- and simulate it *per tenant
group*: tenants whose channel sets overlap (transitively) form a group, and
no other group touches the dies and channels of its channel union.  Every
resource is a fresh timeline that sees only its own group's bookings, in
trace order, so a group's page end times depend only on its tenants, their
channel sets relabelled to ranks within the union (an order-preserving
relabelling maps resources one-to-one and keeps each resource's booking
sequence), their page modes and the service times -- never on which
channel ids the strategy hands out.  The prepared trace memoises each
group's end times under that key and every strategy stitches its groups'
end times together, so the 42 strategies of the four-tenant space cost
about 33 group passes (roughly 12 traces' worth of bookings), and the
results equal a single pass of every sub-request over shared timelines.

Booking is one loop per group pass over the sub-requests, calling each
resource's bound :meth:`_GapTimeline.place`.  Almost every booking lands
at the tail: on an ``offline_label`` pass (seed 7) only 0.7% of the calls
that find remembered gaps fit one.  So ``place`` scans its gaps only when
the last one could hold the job from its request time.  Gap ends ascend and
a candidate start is never before the request time, so when the last gap
fails no earlier gap fits either (rounded subtraction is monotone), and the
skip leaves every booking, tail and gap list as the full scan would.

A prepared trace also sorts its requests once into (tenant, op) streams --
tenants ascending, READ before WRITE, trace order within a stream -- with
each stream's slice bounds.  A run gathers its request latencies in that
order once and builds every stream's statistics from a contiguous slice;
the streams keep the insertion order the per-op totals are summed in.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .config import SSDConfig
from .faults import FaultConfig, FaultExpectation
from .ftl.page_alloc import PageAllocMode
from .geometry import Geometry
from .metrics import LatencyAccumulator, SimulationResult, build_result
from .request import IORequest, OpType
from .timing import ServiceTimes

__all__ = ["FastLatencyModel", "PreparedTrace", "fast_simulate", "fast_sweep"]

#: one tenant of a group: (workload id, channel ranks, page mode)
_GroupTenant = tuple[int, tuple[int, ...], PageAllocMode]


class FastLatencyModel:
    """Approximate trace simulation with numpy-prepared timelines."""

    def __init__(
        self,
        config: SSDConfig,
        channel_sets: Mapping[int, Sequence[int]],
        page_modes: Mapping[int, PageAllocMode] | None = None,
        *,
        record_latencies: bool = False,
        obs=None,
        faults: FaultConfig | None = None,
    ) -> None:
        self.config = config
        #: optional :class:`repro.obs.Observability`; the fast model has no
        #: event stream to trace, but hands each run's request counts and
        #: latencies to :meth:`~repro.obs.Observability.publish_fast_run`
        self.obs = obs
        self.geometry = Geometry(config)
        self.times = ServiceTimes.from_config(config)
        self.channel_sets = {wid: sorted(set(chs)) for wid, chs in channel_sets.items()}
        modes = dict(page_modes or {})
        self.page_modes = {
            wid: modes.get(wid, PageAllocMode.STATIC) for wid in self.channel_sets
        }
        self.record_latencies = record_latencies
        #: expected-value service-time derating under fault injection (the
        #: fast model has no per-block state to sample against; see
        #: :class:`~repro.ssd.faults.FaultExpectation`)
        self.fault_expectation = (
            FaultExpectation.from_config(faults) if faults is not None else None
        )
        c = config
        self._dies_per_channel = c.chips_per_channel * c.dies_per_chip
        self._planes_per_channel = self._dies_per_channel * c.planes_per_die

    # ------------------------------------------------------------------
    def _static_planes(self, lpns: np.ndarray, channels: Sequence[int]) -> np.ndarray:
        """Vectorised static striping: LPN -> flat plane index."""
        chans = np.asarray(channels, dtype=np.int64)
        n = len(chans)
        c = self.config
        channel = chans[lpns % n]
        rest = lpns // n
        chip = rest % c.chips_per_channel
        rest = rest // c.chips_per_channel
        die = rest % c.dies_per_chip
        rest = rest // c.dies_per_chip
        plane = rest % c.planes_per_die
        return (
            channel * self._planes_per_channel
            + chip * (c.dies_per_chip * c.planes_per_die)
            + die * c.planes_per_die
            + plane
        )

    def _sequence_planes(self, count: int, channels: Sequence[int]) -> np.ndarray:
        """Write-sequence striping over a tenant's planes (dynamic stand-in).

        Planes are interleaved channel-first so consecutive writes hit
        different channel buses (mirrors the DES placer's tie-breaking).
        """
        per_channel = np.asarray(
            [self.geometry.planes_in_channels([ch]) for ch in sorted(set(channels))],
            dtype=np.int64,
        )
        planes = per_channel.T.ravel()
        return planes[np.arange(count, dtype=np.int64) % len(planes)]

    # ------------------------------------------------------------------
    def run(self, requests: Iterable[IORequest] | PreparedTrace) -> SimulationResult:
        """Approximately simulate ``requests``; same result type as the DES.

        ``requests`` may be a sweep's :class:`PreparedTrace`, whose memo
        then supplies the end times of tenant groups an earlier strategy of
        the sweep already simulated.
        """
        trace = (
            requests if isinstance(requests, PreparedTrace) else PreparedTrace(requests)
        )
        n_req = trace.n_req
        if n_req == 0:
            return build_result(
                LatencyAccumulator(self.record_latencies),
                makespan_us=0.0,
                requests=0,
                subrequests=0,
            )
        unknown = trace.workload_ids - set(self.channel_sets)
        if unknown:
            raise KeyError(f"unknown workload ids in trace: {sorted(unknown)}")

        ends_us = np.empty(trace.total)
        for group in self._groups(trace.workload_ids):
            hit = trace.memo.get(group)
            if hit is None:
                hit = trace.memo[group] = self._group_ends(trace, group)
            positions, group_ends_us = hit
            ends_us[positions] = group_ends_us

        # Request latency = slowest page.
        req_end_us = np.maximum.reduceat(ends_us, trace.starts)
        latencies_us = req_end_us - trace.req_arrival_us

        acc = LatencyAccumulator(record_latencies=self.record_latencies)
        grouped_us = latencies_us[trace.stream_order]
        for wid, op, lo, hi in trace.streams:
            acc.set_stats(wid, op, _bulk_stats(grouped_us[lo:hi], self.record_latencies))

        result = build_result(
            acc,
            makespan_us=float(req_end_us.max()),
            requests=n_req,
            subrequests=trace.total,
        )
        if self.obs is not None:
            self.obs.publish_fast_run(result, {
                kind: latencies_us[trace.req_op == int(op)].tolist()
                for kind, op in (("read", OpType.READ), ("write", OpType.WRITE))
            })
        return result

    # ------------------------------------------------------------------
    def _groups(self, workload_ids: set[int]) -> Iterator[tuple[_GroupTenant, ...]]:
        """The trace's tenants grouped by (transitively) overlapping channels.

        Each group is its tenants in id order, every one with its channel
        set relabelled to ranks within the group's channel union.
        """
        groups: list[tuple[list[int], set[int]]] = []
        for wid in sorted(workload_ids):
            members, union = [wid], set(self.channel_sets[wid])
            for other in [g for g in groups if g[1] & union]:
                groups.remove(other)
                members += other[0]
                union |= other[1]
            groups.append((members, union))
        for members, union in groups:
            rank = {ch: r for r, ch in enumerate(sorted(union))}
            yield tuple(
                (wid, tuple(rank[ch] for ch in self.channel_sets[wid]), self.page_modes[wid])
                for wid in sorted(members)
            )

    def _group_ends(
        self, trace: PreparedTrace, group: tuple[_GroupTenant, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Positions and end times of one group's sub-requests, on its own."""
        in_group = trace.sub_wid == group[0][0]
        for wid, _, _ in group[1:]:
            in_group |= trace.sub_wid == wid
        positions = np.flatnonzero(in_group)
        sub_wid = trace.sub_wid[positions]
        sub_op = trace.sub_op[positions]
        sub_lpn = trace.sub_lpn[positions]
        is_write_op = sub_op == int(OpType.WRITE)

        # Placement: plane index per sub-request, on the relabelled channels.
        plane_idx = np.empty(len(positions), dtype=np.int64)
        for wid, channels, mode in group:
            mask = sub_wid == wid
            is_write = mask & is_write_op
            is_read = mask & ~is_write_op
            if is_read.any():
                plane_idx[is_read] = self._static_planes(sub_lpn[is_read], channels)
            if not is_write.any():
                continue
            if mode is PageAllocMode.STATIC:
                plane_idx[is_write] = self._static_planes(sub_lpn[is_write], channels)
            else:
                plane_idx[is_write] = self._sequence_planes(int(is_write.sum()), channels)

        die_idx = plane_idx // self.config.planes_per_die
        chan_idx = plane_idx // self._planes_per_channel
        n_channels = 1 + max(max(channels) for _, channels, _ in group)
        ends_us = self._timeline_us(
            trace.sub_arrival_us[positions], sub_op, die_idx, chan_idx, n_channels
        )
        return positions, ends_us

    def _timeline_us(
        self,
        arrival: np.ndarray,
        op: np.ndarray,
        die_idx: np.ndarray,
        chan_idx: np.ndarray,
        n_channels: int,
    ) -> np.ndarray:
        """Sequential resource-timeline pass; returns per-sub-request end.

        Resources are *gap-aware* timelines (:class:`_GapTimeline`): when an
        operation's resource-request time lands inside an idle window left
        behind by an earlier out-of-order grant (a read's bus request fires
        at its die-end, after later-arriving writes already claimed the
        tail), it backfills that window — matching the work-conserving
        behaviour of the event-driven engine instead of cascading phantom
        queueing.  The pass covers channels ``0 .. n_channels - 1``.
        """
        t = self.times
        read_die = t.read_die_us
        read_bus = t.read_bus_us
        write_bus = t.write_bus_us
        write_die = t.write_die_us
        if self.fault_expectation is not None:
            read_die *= self.fault_expectation.read_die_multiplier
            write_die *= self.fault_expectation.write_die_multiplier
        die_place = [
            _GapTimeline().place for _ in range(n_channels * self._dies_per_channel)
        ]
        chan_place = [_GapTimeline().place for _ in range(n_channels)]
        write_code = int(OpType.WRITE)
        ends_us: list[float] = []
        append = ends_us.append
        for a, o, d, c in zip(
            arrival.tolist(), op.tolist(), die_idx.tolist(), chan_idx.tolist()
        ):
            if o == write_code:
                append(die_place[d](chan_place[c](a, write_bus), write_die))
            else:
                append(chan_place[c](die_place[d](a, read_die), read_bus))
        return np.array(ends_us, dtype=float)


class PreparedTrace:
    """A trace sorted and expanded to sub-requests once, for a whole sweep.

    Also holds the sweep's memo: group key -> (sub-request positions, end
    times), filled by :meth:`FastLatencyModel.run`.  The key leaves out the
    device configuration and fault model, so every model that runs one
    prepared trace must share them, as the models of one sweep (or of one
    :class:`repro.core.labeler.WindowReplay`) do.
    """

    def __init__(self, requests: Iterable[IORequest]) -> None:
        ordered = sorted(requests, key=lambda r: r.arrival_us)
        self.n_req = n_req = len(ordered)
        lengths = np.array([r.length for r in ordered], dtype=np.int64)
        self.req_arrival_us = np.array([r.arrival_us for r in ordered])
        self.req_op = np.array([int(r.op) for r in ordered], dtype=np.int8)
        self.req_wid = np.array([r.workload_id for r in ordered], dtype=np.int64)
        req_lpn = np.array([r.lpn for r in ordered], dtype=np.int64)

        # Expand to sub-requests.
        self.total = total = int(lengths.sum())
        self.starts = np.cumsum(lengths) - lengths
        req_index = np.repeat(np.arange(n_req), lengths)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(self.starts, lengths)
        self.sub_lpn = req_lpn[req_index] + offsets
        self.sub_arrival_us = self.req_arrival_us[req_index]
        self.sub_op = self.req_op[req_index]
        self.sub_wid = self.req_wid[req_index]
        self.workload_ids: set[int] = set(np.unique(self.sub_wid).tolist())
        self.memo: dict = {}

        # (tenant, op) streams in the order their stats are installed
        key = self.req_wid * 2 + self.req_op
        self.stream_order = np.argsort(key, kind="stable")
        keys, lows, counts = np.unique(
            key[self.stream_order], return_index=True, return_counts=True
        )
        #: (workload id, op, lo, hi) of each stream's slice
        self.streams: list[tuple[int, OpType, int, int]] = [
            (k // 2, OpType(k % 2), lo, lo + n)
            for k, lo, n in zip(keys.tolist(), lows.tolist(), counts.tolist())
        ]


class _GapTimeline:
    """Single-server busy timeline with idle-gap backfilling.

    ``place(rt, dur)`` books ``dur`` units of service requested at time
    ``rt``: into the earliest remembered idle gap that fits (work
    conservation), else at the tail.  Gaps that end before the request time
    of every future job are pruned lazily — request times never decrease by
    more than the die/bus phase offsets, so a small horizon suffices.
    """

    __slots__ = ("tail", "gaps")

    #: gaps ending this far before a new request are dropped (us); phase
    #: offsets (tR, tPROG) are far below this.
    _PRUNE_HORIZON = 5_000.0

    def __init__(self) -> None:
        self.tail = 0.0
        self.gaps: list[list[float]] = []

    def place(self, rt: float, dur: float) -> float:
        """Book service requested at ``rt`` for ``dur``; return its end."""
        gaps = self.gaps
        if gaps:
            prune_before = rt - self._PRUNE_HORIZON
            while gaps and gaps[0][1] <= prune_before:
                gaps.pop(0)
        # Gap ends ascend and every candidate start is >= rt, so when the
        # last gap cannot hold ``dur`` from ``rt`` no gap can.
        if gaps and gaps[-1][1] - rt >= dur:
            for gi in range(len(gaps)):
                gap = gaps[gi]
                gap_start = gap[0]
                start = rt if rt > gap_start else gap_start
                if gap[1] - start >= dur:
                    end = start + dur
                    if start - gap_start > 1e-9:
                        # keep the head of the gap; tail shrinks/splits
                        old_end = gap[1]
                        gap[1] = start
                        if old_end - end > 1e-9:
                            gaps.insert(gi + 1, [end, old_end])
                    else:
                        gap[0] = end
                        if gap[1] - end <= 1e-9:
                            del gaps[gi]
                    return end
        tail = self.tail
        if rt > tail:
            if rt - tail > 1e-9:
                gaps.append([tail, rt])
                if len(gaps) > 32:
                    gaps.pop(0)  # bound the memory; oldest gaps matter least
            end = rt + dur
        else:
            end = tail + dur
        self.tail = end
        return end


def _bulk_stats(latencies_us: np.ndarray, record: bool):
    """Build an OpStats from an array in one shot."""
    from .metrics import OpStats

    stats = OpStats(
        count=int(latencies_us.size),
        total_us=float(latencies_us.sum()),
        max_us=float(latencies_us.max()),
        min_us=float(latencies_us.min()),
    )
    if record:
        stats.samples = latencies_us.tolist()
    return stats


def fast_sweep(
    requests: Iterable[IORequest],
    config: SSDConfig,
    strategy_sets: Iterable[Mapping[int, Sequence[int]]],
    page_modes: Mapping[int, PageAllocMode] | None = None,
    *,
    faults: FaultConfig | None = None,
    record_latencies: bool = False,
    obs=None,
) -> list[SimulationResult]:
    """Simulate ``requests`` under each channel-set mapping of ``strategy_sets``.

    The trace is prepared once and each tenant group is simulated once per
    distinct key (see the module docstring); every strategy still gets its
    own :meth:`FastLatencyModel.run` on the full trace, with results equal
    to separate :func:`fast_simulate` calls.  ``strategy_sets`` is consumed
    lazily, one strategy simulated before the next is drawn.
    """
    trace = PreparedTrace(requests)
    return [
        FastLatencyModel(
            config, sets, page_modes, record_latencies=record_latencies,
            obs=obs, faults=faults,
        ).run(trace)
        for sets in strategy_sets
    ]


def fast_simulate(
    requests: Iterable[IORequest],
    config: SSDConfig,
    channel_sets: Mapping[int, Sequence[int]],
    page_modes: Mapping[int, PageAllocMode] | None = None,
    *,
    record_latencies: bool = False,
    obs=None,
    faults: FaultConfig | None = None,
) -> SimulationResult:
    """One-strategy :func:`fast_sweep`."""
    [result] = fast_sweep(
        requests, config, [channel_sets], page_modes,
        faults=faults, record_latencies=record_latencies, obs=obs,
    )
    return result
