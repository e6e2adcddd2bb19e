"""Event-driven, trace-driven SSD simulator.

This is the reproduction of the paper's modified SSDSim: requests arrive at
their trace timestamps, split into per-page sub-requests, and contend for two
resource classes — the **channel bus** (page transfers serialise per channel)
and the **die** (flash array operations serialise per die).  Host operations
are serviced FIFO per resource, as SSDSim does — the paper's remark that
reads "have priority to respond because of the lower flash chip accessing
time" is the tR << tPROG service-time asymmetry, which this model captures
directly.  (``read_priority=True`` switches to a preemptive-queue discipline
where reads overtake queued writes, for the scheduling ablation.)  Garbage
collection runs as internal die jobs that jump ahead of queued host writes.

A read occupies its die for ``tR`` then the channel for the transfer out;
a write occupies the channel for the transfer in then its die for ``tPROG``.
The request completes when its slowest sub-request completes.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .buffer import BufferConfig, WriteBuffer
from .config import SSDConfig
from .controller import FTLController
from .engine import PRIO_GC, PRIO_READ, PRIO_WRITE, EventLoop, Resource
from .faults import FaultConfig, FaultInjector
from .ftl.page_alloc import PageAllocMode
from .metrics import LatencyAccumulator, SimulationResult, build_result
from .request import IORequest, OpType
from .timing import ServiceTimes

__all__ = ["SSDSimulator", "simulate"]


class _InFlight:
    """Book-keeping for one host request while its pages are in service."""

    __slots__ = ("request", "remaining", "last_end_us", "failed", "span")

    def __init__(self, request: IORequest) -> None:
        self.request = request
        self.remaining = request.length
        self.last_end_us = request.arrival_us
        self.failed = False
        #: critical-path attribution span (only when attribution is on):
        #: the timeline of the page that completed last
        self.span = None


class SSDSimulator:
    """One simulated device plus its FTL, ready to run one trace.

    The device builds its own event loop; no pre-built loop is passed in.

    Parameters
    ----------
    config:
        Device geometry and timing.
    channel_sets:
        workload id -> channels that workload may occupy.
    page_modes:
        workload id -> page allocation mode (default STATIC for all).
    record_latencies:
        keep raw per-request latency samples (enables percentiles).
    obs:
        optional :class:`repro.obs.Observability`.  The device sees it
        only through one :class:`~repro.obs.probe.DeviceProbe`, which it
        calls at each simulation moment (submit, dispatch, read retry,
        GC grant and end, request done or failed, arm, collect); the
        probe emits the trace, feeds the registry, attribution,
        telemetry and flight recorder, and samples utilization.  A probe
        adds no events and no randomness, so an instrumented run's
        latencies are identical to a bare one's.  ``None`` (the default)
        costs one pointer test per hook.
    """

    def __init__(
        self,
        config: SSDConfig,
        channel_sets: Mapping[int, Sequence[int]],
        page_modes: Mapping[int, PageAllocMode] | None = None,
        *,
        record_latencies: bool = False,
        on_submit=None,
        read_priority: bool = False,
        buffer: "BufferConfig | None" = None,
        obs=None,
        faults: "FaultConfig | FaultInjector | None" = None,
        sanitizer=None,
    ) -> None:
        self.config = config
        #: optional callback fired with each request at its submission time
        #: (the hook the SSDKeeper features collector attaches to).
        self.on_submit = on_submit
        #: queue discipline: FIFO (SSDSim-faithful) unless reads may overtake
        self._read_prio = PRIO_READ if read_priority else PRIO_WRITE
        self.times = ServiceTimes.from_config(config)
        self.loop = EventLoop()
        self.channels = [
            Resource(self.loop, name=f"ch{c}", kind="channel")
            for c in range(config.channels)
        ]
        self.dies = [
            Resource(self.loop, name=f"die{d}", kind="die")
            for d in range(config.dies)
        ]
        self._planes_per_die = config.planes_per_die
        #: optional :class:`repro.analysis.Sanitizer`; when attached the
        #: event loop, every resource, the mapping table and the GC check
        #: their invariants on each step.  ``None`` costs one pointer test.
        self.sanitizer = sanitizer
        if sanitizer is not None:
            self.loop.sanitizer = sanitizer
            for res in (*self.channels, *self.dies):
                res.sanitizer = sanitizer
        #: optional fault injector (seeded NAND error model); ``None`` costs
        #: one ``is not None`` branch per operation
        if faults is None or isinstance(faults, FaultInjector):
            self.faults = faults
        else:
            self.faults = FaultInjector(faults)
        #: the observer seam (:class:`repro.obs.probe.DeviceProbe`);
        #: ``None`` on a bare device
        self._probe = obs.device_probe(self, sanitizer) if obs is not None else None
        self.controller = FTLController(
            config,
            channel_sets,
            page_modes,
            load_fn=self._die_load,
            probe=self._probe,
            faults=self.faults,
            sanitizer=sanitizer,
        )
        #: optional DRAM write-back buffer in front of the FTL
        self.buffer = WriteBuffer(buffer) if buffer is not None else None
        self.acc = LatencyAccumulator(record_latencies=record_latencies)
        self._inflight: dict[int, _InFlight] = {}
        self._next_req_key = 0
        self.requests_done = 0
        self.subrequests_done = 0
        self.failed_reads = 0

    # ------------------------------------------------------------------
    def _die_load(self, plane_index: int) -> tuple:
        """Dynamic-placement load key: combined die+bus queue, then free time.

        A write occupies the channel bus before the die, so an idle die
        behind a congested bus is not actually a good target — both
        resources count.
        """
        die = self.dies[plane_index // self._planes_per_die]
        chan = self.channels[
            plane_index // (self._planes_per_die * self.config.dies_per_chip
                            * self.config.chips_per_channel)
        ]
        pending = (
            die.queue_depth
            + (1 if die.busy else 0)
            + chan.queue_depth
            + (1 if chan.busy else 0)
        )
        return (pending, max(die.free_at, chan.free_at))

    def utilization_report(self) -> dict:
        """Per-resource busy fractions over the simulated makespan.

        Meaningful after :meth:`run`; the report is what the examples print
        to show where an allocation is bottlenecked.
        """
        elapsed_us = self.loop.now
        return {
            "makespan_us": elapsed_us,
            "channels": [c.utilization(elapsed_us) for c in self.channels],
            "dies": [d.utilization(elapsed_us) for d in self.dies],
            "channel_wait_us": sum(c.wait_time_us for c in self.channels),
            "die_wait_us": sum(d.wait_time_us for d in self.dies),
            "gc_busy_us": sum(d.gc_busy_time_us for d in self.dies),
        }

    def _route(self, ppn: int) -> tuple[int, int]:
        """``(channel, die index)`` that serve physical page ``ppn``."""
        geom = self.controller.geometry
        return geom.channel_of(ppn), geom.plane_index(ppn) // self._planes_per_die

    # ------------------------------------------------------------------
    def submit(self, req: IORequest) -> None:
        """Submit one request at the loop's *current* time.

        :meth:`prepare` schedules one call per request at its arrival time.
        """
        if self.on_submit is not None:
            self.on_submit(req)
        if self._probe is not None:
            self._probe.submit(req)
        key = self._next_req_key
        self._next_req_key += 1
        flight = _InFlight(req)
        self._inflight[key] = flight
        for lpn in req.lpns():
            if self.buffer is not None and self._via_buffer(key, req, lpn):
                continue
            if req.op is OpType.READ:
                self._issue_read(key, req.workload_id, lpn)
            else:
                self._issue_write(key, req.workload_id, lpn)

    def prepare(self, requests: Iterable[IORequest]) -> int:
        """Schedule ``requests`` at their arrival times; arm the sampler.

        Returns the number of requests scheduled.  :meth:`prepare`, then
        ``loop.run`` (bounded or not), then :meth:`collect` is :meth:`run`
        taken apart, for callers that drive the loop in slices.  The
        sampler rides weak loop events, so arming never perturbs the run.
        """
        ordered = sorted(requests, key=lambda r: r.arrival_us)
        arrivals_us = [req.arrival_us for req in ordered]
        # fed to the heap one arrival at a time (see EventLoop.schedule_sorted)
        self.loop.schedule_sorted(arrivals_us, self.submit, ordered)  # repro-lint: disable=R004 (trace arrivals are absolute times)
        if ordered and self._probe is not None:
            self._probe.arm()
        return len(ordered)

    def run(self, requests: Iterable[IORequest]) -> SimulationResult:
        """Simulate ``requests`` (any order; sorted internally) to completion."""
        self.prepare(requests)
        try:
            self.loop.run()
        except Exception as exc:
            if self._probe is not None:
                self._probe.run_error(exc)
            raise
        return self.collect()

    def collect(self) -> SimulationResult:
        """Flush the sampler and assemble the :class:`SimulationResult`.

        Requires the device's loop to have drained (every in-flight
        request completed).
        """
        if self._inflight:  # pragma: no cover - engine invariant
            raise RuntimeError(f"{len(self._inflight)} requests never completed")
        result = build_result(
            self.acc,
            makespan_us=self.loop.now,
            requests=self.requests_done,
            subrequests=self.subrequests_done,
            gc_collections=self.controller.gc.collections,
            gc_pages_moved=self.controller.gc.pages_moved,
            failed_reads=self.failed_reads,
            die_wait_us=sum(d.wait_time_us for d in self.dies),
            channel_wait_us=sum(c.wait_time_us for c in self.channels),
            events=self.loop.events_processed,
            extras={
                "seeded_pages": self.controller.seeded_pages,
                "mapped_pages": self.controller.mapped_pages(),
                **(
                    {"faults": self.faults.summary()}
                    if self.faults is not None
                    else {}
                ),
                **(
                    {
                        "buffer_read_hit_rate": self.buffer.stats.read_hit_rate,
                        "buffer_write_absorb_rate": self.buffer.stats.write_absorb_rate,
                        "buffer_dirty_evictions": self.buffer.stats.dirty_evictions,
                    }
                    if self.buffer is not None
                    else {}
                ),
            },
        )
        return self._probe.collect(result) if self._probe is not None else result

    # ------------------------------------------------------------------
    def _via_buffer(self, key: int, req: IORequest, lpn: int) -> bool:
        """Route one page through the DRAM buffer.

        Returns True when the page was fully served by DRAM (completion
        scheduled); False when the page still needs the flash read path.
        Dirty evictions always spawn background flash writes.
        """
        assert self.buffer is not None
        glpn = self.controller.global_lpn(req.workload_id, lpn)
        if req.op is OpType.WRITE:
            outcome = self.buffer.write(glpn)
        else:
            outcome = self.buffer.read(glpn)
        for victim in outcome.flash_writes:
            wid = victim // self.controller.tenant_lpn_space
            victim_lpn = victim % self.controller.tenant_lpn_space
            self._issue_background_write(wid, victim_lpn)
        if req.op is OpType.WRITE or outcome.hit:
            # Absorbed write or DRAM read hit: completes at DRAM latency.
            dram_us = self.buffer.config.dram_latency_us
            done = self.loop.now + dram_us
            span = None
            if self._probe is not None:
                span = self._probe.span(-1, buffer_us=dram_us)
            self.loop.schedule(done, lambda: self._complete_page(key, span=span))
            return True
        return False

    def _issue_background_write(self, wid: int, lpn: int) -> None:
        """Program an evicted dirty page; no host request completion."""
        ppn, gc_items = self.controller.place_write(wid, lpn)
        channel, die_index = self._route(ppn)
        die, bus = self.dies[die_index], self.channels[channel]
        t = self.times
        if gc_items:
            self._charge_gc(gc_items)

        def to_die() -> None:
            die.acquire((PRIO_WRITE, self.loop.now), t.write_die_us, None)

        bus.acquire((PRIO_WRITE, self.loop.now), t.write_bus_us, None, to_die)

    def _issue_read(self, key: int, wid: int, lpn: int) -> None:
        ppn = self.controller.resolve_read(wid, lpn)
        geom = self.controller.geometry
        plane_index = geom.plane_index(ppn)
        channel = geom.channel_of(ppn)
        die_index = plane_index // self._planes_per_die
        die, bus = self.dies[die_index], self.channels[channel]
        t = self.times
        probe = self._probe
        if probe is not None:
            probe.dispatch("read", wid, lpn, ppn, die, bus)
        prio = self._read_prio
        die_us = t.read_die_us
        unrecoverable = False
        if self.faults is not None:
            plane = self.controller.state.planes[plane_index]
            outcome = self.faults.read_outcome(
                channel, plane.erase_count[plane.block_of(ppn)]
            )
            if outcome.retries:
                # Each ECC retry re-senses the array: the die stays busy for
                # one extra command+tR round per retry.
                die_us = t.read_die_with_retries_us(outcome.retries)
                if probe is not None:
                    probe.read_retry(die, ppn, outcome)
            unrecoverable = outcome.unrecoverable
        span = on_die = on_bus = None
        if probe is not None:
            span = probe.span(
                channel, die_index, die,
                t.read_die_us, die_us - t.read_die_us, t.read_bus_us,
            )
        if span is not None:
            on_die, on_bus = span.die_granted, span.bus_granted
            span.die_enqueued(self.loop.now)

        def after_die() -> None:
            if unrecoverable:
                # ECC exhausted: the die time was spent but no data moves
                # over the bus — the request surfaces as a failed read.
                self._complete_page(key, failed=True)
                return
            if span is not None:
                span.bus_enqueued(self.loop.now)
            bus.acquire(
                (prio, self.loop.now), t.read_bus_us, on_bus,
                lambda: self._complete_page(key, span=span),
            )

        die.acquire((prio, self.loop.now), die_us, on_die, after_die)

    def _issue_write(self, key: int, wid: int, lpn: int) -> None:
        ppn, gc_items = self.controller.place_write(wid, lpn)
        channel, die_index = self._route(ppn)
        die, bus = self.dies[die_index], self.channels[channel]
        t = self.times
        probe = self._probe
        if probe is not None:
            probe.dispatch("write", wid, lpn, ppn, die, bus)
        if gc_items:
            self._charge_gc(gc_items)
        span = on_die = on_bus = None
        if probe is not None:
            span = probe.span(channel, die_index, die, t.write_die_us, 0.0, t.write_bus_us)
        if span is not None:
            on_die, on_bus = span.die_granted, span.bus_granted
            span.bus_enqueued(self.loop.now)

        def to_die() -> None:
            if span is not None:
                span.die_enqueued(self.loop.now)
            die.acquire(
                (PRIO_WRITE, self.loop.now), t.write_die_us, on_die,
                lambda: self._complete_page(key, span=span),
            )

        bus.acquire((PRIO_WRITE, self.loop.now), t.write_bus_us, on_bus, to_die)

    def _charge_gc(self, items: list) -> None:
        """Charge die time for FTL background work done on behalf of a write.

        ``items`` mixes :class:`~repro.ssd.ftl.gc.GCWorkItem` (copyback +
        erase of a reclaimed block) and
        :class:`~repro.ssd.faults.FaultWorkItem` (relocation out of a block
        being retired); both expose ``die_us(times)``.
        """
        t = self.times
        probe = self._probe
        for item in items:
            die = self.dies[item.plane_index // self._planes_per_die]
            duration_us = item.die_us(t)

            def on_grant(start, die=die, item=item, duration_us=duration_us):
                # booked at grant time so waiting host jobs can sample
                # the overlap (see Resource.gc_busy_time_us)
                die.gc_busy_time_us += duration_us
                if probe is not None:
                    probe.gc_granted(start, die, item)

            die.acquire((PRIO_GC, self.loop.now), duration_us, on_grant)

    def _complete_page(self, key: int, failed: bool = False, span=None) -> None:
        flight = self._inflight[key]
        flight.remaining -= 1
        self.subrequests_done += 1
        if failed:
            flight.failed = True
        if flight.last_end_us <= self.loop.now:
            flight.last_end_us = self.loop.now
            if span is not None:
                # this page (co-)defines the critical path: any page ending
                # at the request's completion time telescopes, phase by
                # phase, back to its arrival — keep its span
                span.end_us = self.loop.now
                flight.span = span
        if flight.remaining == 0:
            req = flight.request
            req.complete_us = flight.last_end_us
            probe = self._probe
            if flight.failed:
                # Unrecoverable read: the request surfaces as failed, and its
                # latency is excluded from the success statistics.
                self.failed_reads += 1
                if probe is not None:
                    probe.request_failed(req)
            else:
                self.acc.add(req.workload_id, req.op, req.latency_us)
                if probe is not None:
                    probe.request_done(req, flight.span)
            del self._inflight[key]
            self.requests_done += 1


def simulate(
    requests: Iterable[IORequest],
    config: SSDConfig,
    channel_sets: Mapping[int, Sequence[int]],
    page_modes: Mapping[int, PageAllocMode] | None = None,
    *,
    record_latencies: bool = False,
    obs=None,
    faults: "FaultConfig | FaultInjector | None" = None,
    sanitizer=None,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`SSDSimulator`."""
    sim = SSDSimulator(
        config, channel_sets, page_modes, record_latencies=record_latencies,
        obs=obs, faults=faults, sanitizer=sanitizer,
    )
    return sim.run(requests)
