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

A :class:`FastLatencyModel` is one trace prepared on one device: its
constructor sorts the trace and expands it to sub-requests, splits it into
(tenant, op) streams and fixes the service times (fault derating included),
once.  :meth:`FastLatencyModel.run` then scores one channel allocation, so a
strategy sweep is one model and one ``run`` per strategy.  A run simulates
the trace *per tenant group*: tenants whose channel sets overlap
(transitively) form a group, and no other group touches the dies and
channels of its channel union.  Every resource is a fresh timeline that
sees only its own group's bookings, in trace order, so a group's page end
times depend only on its tenants, their channel sets relabelled to ranks
within the union (an order-preserving relabelling maps resources
one-to-one and keeps each resource's booking sequence), their page modes
and the service times -- never on which channel ids the strategy hands
out.  The model memoises each group's end times under that key (the trace
and the device are the model's own, so the key needs nothing else) and
every run stitches its groups' end times together, so the 42 strategies of
the four-tenant space cost about 33 group passes (roughly 12 traces' worth
of bookings), and the results equal a single pass of every sub-request over
shared timelines.

Booking is one loop per group pass over the sub-requests, calling each
resource's bound :meth:`_GapTimeline.place`.  Almost every booking lands
at the tail: on an ``offline_label`` pass (seed 7) only 0.7% of the calls
that find remembered gaps fit one.  So ``place`` scans its gaps only when
the last one could hold the job from its request time.  Gap ends ascend and
a candidate start is never before the request time, so when the last gap
fails no earlier gap fits either (rounded subtraction is monotone), and the
skip leaves every booking, tail and gap list as the full scan would.

A run gathers its request latencies in (tenant, op) stream order -- tenants
ascending, READ before WRITE, trace order within a stream -- once and
builds every stream's statistics from a contiguous slice; the streams keep
the insertion order the per-op totals are summed in.

Because a group's end times depend on nothing outside the group, a run's
mean read + mean write latency is a sum of per-group shares: the group's
read-latency total over the trace's read count plus its write-latency
total over the write count.  :meth:`FastLatencyModel.mean_sum_floor_us`
bounds that sum from below without a group pass.  A memoised group adds
its exact share.  Any other group adds its service floor: a read waits
for its die and then its bus, a write for its bus and then its die, and
:meth:`_GapTimeline.place` never ends a booking before its request time
plus its duration, so no read latency is below ``read_die + read_bus``
and no write latency below ``write_bus + write_die`` (the fault-derated
service times the passes book).  The floor is exact up to rounding: it
sums per group where the run sums per stream, so a caller comparing it
with run costs keeps a small relative margin.  :meth:`FastLatencyModel.groups`
derives the group keys once for both the run and the floor.
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

__all__ = ["FastLatencyModel", "fast_simulate"]

#: one tenant of a group: (workload id, channel ranks, page mode)
_GroupTenant = tuple[int, tuple[int, ...], PageAllocMode]


class FastLatencyModel:
    """One trace prepared on one device, simulated per channel allocation.

    ``faults`` derates the service times by their expected values (the
    fast model has no per-block state to sample against; see
    :class:`~repro.ssd.faults.FaultExpectation`).
    """

    def __init__(
        self,
        config: SSDConfig,
        requests: Iterable[IORequest],
        *,
        faults: FaultConfig | None = None,
        record_latencies: bool = False,
    ) -> None:
        self.config = config
        self.geometry = Geometry(config)
        self.record_latencies = record_latencies
        times = ServiceTimes.from_config(config)
        read_die_us, write_die_us = times.read_die_us, times.write_die_us
        if faults is not None:
            expected = FaultExpectation.from_config(faults)
            read_die_us = read_die_us * expected.read_die_multiplier
            write_die_us = write_die_us * expected.write_die_multiplier
        #: per-page service: read die, read bus, write bus, write die
        self._service_us = (read_die_us, times.read_bus_us, times.write_bus_us, write_die_us)
        c = config
        self._dies_per_channel = c.chips_per_channel * c.dies_per_chip
        self._planes_per_channel = self._dies_per_channel * c.planes_per_die

        ordered = sorted(requests, key=lambda r: r.arrival_us)
        self.n_req = n_req = len(ordered)
        lengths = np.array([r.length for r in ordered], dtype=np.int64)
        self.req_arrival_us = np.array([r.arrival_us for r in ordered])
        req_op = np.array([int(r.op) for r in ordered], dtype=np.int8)
        req_wid = np.array([r.workload_id for r in ordered], dtype=np.int64)
        req_lpn = np.array([r.lpn for r in ordered], dtype=np.int64)

        # Expand to sub-requests.
        self.total = total = int(lengths.sum())
        self.starts = np.cumsum(lengths) - lengths
        req_index = np.repeat(np.arange(n_req), lengths)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(self.starts, lengths)
        self.sub_lpn = req_lpn[req_index] + offsets
        self.sub_arrival_us = self.req_arrival_us[req_index]
        self.sub_op = req_op[req_index]
        self.sub_wid = req_wid[req_index]
        self.workload_ids: set[int] = set(np.unique(self.sub_wid).tolist())
        #: group key -> (sub-request positions, end times), filled by runs
        self._memo: dict = {}
        #: group key -> (read, write) latency totals, filled by floors
        self._group_totals: dict = {}

        # (tenant, op) streams in the order their stats are installed
        key = req_wid * 2 + req_op
        self.stream_order = np.argsort(key, kind="stable")
        keys, lows, counts = np.unique(
            key[self.stream_order], return_index=True, return_counts=True
        )
        #: (workload id, op, lo, hi) of each stream's slice
        self.streams: list[tuple[int, OpType, int, int]] = [
            (k // 2, OpType(k % 2), lo, lo + n)
            for k, lo, n in zip(keys.tolist(), lows.tolist(), counts.tolist())
        ]
        #: workload id -> [read count, write count]
        self._op_counts: dict[int, list[int]] = {wid: [0, 0] for wid in self.workload_ids}
        for wid, op, lo, hi in self.streams:
            self._op_counts[wid][int(op)] = hi - lo
        self._op_totals = [sum(c[op] for c in self._op_counts.values()) for op in (0, 1)]

    # ------------------------------------------------------------------
    def run(
        self,
        channel_sets: Mapping[int, Sequence[int]],
        page_modes: Mapping[int, PageAllocMode] | None = None,
    ) -> SimulationResult:
        """Simulate the trace with ``channel_sets`` deployed (a tenant
        missing from ``page_modes`` is STATIC); same result type as the DES.
        """
        groups = self.groups(channel_sets, page_modes)
        n_req = self.n_req
        if n_req == 0:
            return build_result(
                LatencyAccumulator(self.record_latencies),
                makespan_us=0.0,
                requests=0,
                subrequests=0,
            )

        ends_us = np.empty(self.total)
        for group in groups:
            hit = self._memo.get(group)
            if hit is None:
                hit = self._memo[group] = self._group_ends(group)
            positions, group_ends_us = hit
            ends_us[positions] = group_ends_us

        # Request latency = slowest page.
        req_end_us = np.maximum.reduceat(ends_us, self.starts)
        latencies_us = req_end_us - self.req_arrival_us

        acc = LatencyAccumulator(record_latencies=self.record_latencies)
        grouped_us = latencies_us[self.stream_order]
        for wid, op, lo, hi in self.streams:
            acc.set_stats(wid, op, _bulk_stats(grouped_us[lo:hi], self.record_latencies))

        return build_result(
            acc,
            makespan_us=float(req_end_us.max()),
            requests=n_req,
            subrequests=self.total,
        )

    def groups(
        self,
        channel_sets: Mapping[int, Sequence[int]],
        page_modes: Mapping[int, PageAllocMode] | None = None,
    ) -> list[tuple[_GroupTenant, ...]]:
        """The memo keys of the trace's tenant groups under an allocation
        (validated as :meth:`run` takes it)."""
        sets = self.geometry.checked_channel_sets(channel_sets)
        modes = {wid: (page_modes or {}).get(wid, PageAllocMode.STATIC) for wid in sets}
        unknown = self.workload_ids - set(sets)
        if unknown:
            raise KeyError(f"unknown workload ids in trace: {sorted(unknown)}")
        return list(_groups(sets, modes, self.workload_ids))

    def mean_sum_floor_us(
        self,
        channel_sets: Mapping[int, Sequence[int]],
        page_modes: Mapping[int, PageAllocMode] | None = None,
    ) -> float:
        """A floor under :meth:`run`'s mean read + mean write latency,
        found without a group pass.

        A memoised group adds its exact read and write latency totals, any
        other group its service floor: each read at least one die read
        then one bus transfer, each write one transfer then one program.
        The floor can exceed the run's value only by the rounding of
        summing per group rather than per stream.
        """
        read_die_us, read_bus_us, write_bus_us, write_die_us = self._service_us
        read_us = write_us = 0.0
        for group in self.groups(channel_sets, page_modes):
            if group in self._memo:
                group_read_us, group_write_us = self._latency_totals(group)
            else:
                counts = [self._op_counts[wid] for wid, _, _ in group]
                group_read_us = sum(c[0] for c in counts) * (read_die_us + read_bus_us)
                group_write_us = sum(c[1] for c in counts) * (write_bus_us + write_die_us)
            read_us += group_read_us
            write_us += group_write_us
        reads, writes = self._op_totals
        return (read_us / reads if reads else 0.0) + (
            write_us / writes if writes else 0.0
        )

    def _latency_totals(self, group: tuple[_GroupTenant, ...]) -> tuple[float, float]:
        """Read and write latency totals of a memoised group's requests."""
        totals = self._group_totals.get(group)
        if totals is None:
            positions, ends_us = self._memo[group]
            # a request's pages are adjacent among its group's positions
            sub_req = np.searchsorted(self.starts, positions, side="right") - 1
            firsts = np.flatnonzero(np.diff(sub_req, prepend=-1))
            latencies_us = (
                np.maximum.reduceat(ends_us, firsts)
                - self.req_arrival_us[sub_req[firsts]]
            )
            is_write = self.sub_op[positions[firsts]] == int(OpType.WRITE)
            totals = self._group_totals[group] = (
                float(latencies_us[~is_write].sum()),
                float(latencies_us[is_write].sum()),
            )
        return totals

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
    def _group_ends(
        self, group: tuple[_GroupTenant, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Positions and end times of one group's sub-requests, on its own."""
        in_group = self.sub_wid == group[0][0]
        for wid, _, _ in group[1:]:
            in_group |= self.sub_wid == wid
        positions = np.flatnonzero(in_group)
        sub_wid = self.sub_wid[positions]
        sub_op = self.sub_op[positions]
        sub_lpn = self.sub_lpn[positions]
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
            self.sub_arrival_us[positions], sub_op, die_idx, chan_idx, n_channels
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
        read_die, read_bus, write_bus, write_die = self._service_us
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


def _groups(
    channel_sets: dict[int, list[int]],
    page_modes: dict[int, PageAllocMode],
    workload_ids: set[int],
) -> Iterator[tuple[_GroupTenant, ...]]:
    """The trace's tenants grouped by (transitively) overlapping channels.

    Each group is its tenants in id order, every one with its channel set
    relabelled to ranks within the group's channel union.
    """
    groups: list[tuple[list[int], set[int]]] = []
    for wid in sorted(workload_ids):
        members, union = [wid], set(channel_sets[wid])
        for other in [g for g in groups if g[1] & union]:
            groups.remove(other)
            members += other[0]
            union |= other[1]
        groups.append((members, union))
    for members, union in groups:
        rank = {ch: r for r, ch in enumerate(sorted(union))}
        yield tuple(
            (wid, tuple(rank[ch] for ch in channel_sets[wid]), page_modes[wid])
            for wid in sorted(members)
        )


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


def fast_simulate(
    requests: Iterable[IORequest],
    config: SSDConfig,
    channel_sets: Mapping[int, Sequence[int]],
) -> SimulationResult:
    """One-call twin of :func:`~repro.ssd.simulator.simulate` on the fast model."""
    return FastLatencyModel(config, requests).run(channel_sets)
