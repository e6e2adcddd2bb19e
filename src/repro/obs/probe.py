"""The device probe: the one observer seam of the event-driven SSD.

:class:`~repro.ssd.simulator.SSDSimulator`, its FTL controller and that
controller's garbage collector share one ``_probe`` (``None`` on a bare
device) and call it at the simulation moments below.  Everything
pillar-specific lives here: latency histograms (per tenant, created on
first use, when telemetry is armed), ``sim.*``/``ftl.*`` counters, trace
records, attribution spans, flight-recorder triggers, the telemetry
sampler and the end-of-run publication.  A probe schedules no events and
draws no randomness, so an instrumented run simulates exactly what a bare
one does.

Each fact is recorded once.  A GC reclaim's ``gc_start`` marks the die
hold whose ``die_acquire`` record carries its duration.  The per-window
busy fraction and queue depth live only in the telemetry sink's
utilization view (``Observability.export()``); the registry gets the
whole-run ``util.<resource>.busy_fraction`` gauges.
"""

from __future__ import annotations

from dataclasses import replace

from .attribution import SubrequestSpan

__all__ = ["DeviceProbe"]


class DeviceProbe:
    """Feeds ``obs``'s pillars from one simulator ``sim`` (whose loop and
    resources must exist; with tracing on, each resource gets the trace
    recorder).  An optional ``sanitizer`` is wired into attribution
    (exact-sum checks) and the flight recorder (events in bundles)."""

    def __init__(self, obs, sim, sanitizer=None) -> None:
        self.obs = obs
        self.sim = sim
        self._loop = sim.loop
        self.registry = registry = obs.registry
        self.trace = obs.trace if obs.trace.enabled else None
        self.attribution = obs.attribution
        self.telemetry = obs.telemetry
        self.flight_recorder = obs.flight_recorder
        if sanitizer is not None:
            if self.attribution is not None:
                self.attribution.sanitizer = sanitizer
            if self.flight_recorder is not None:
                self.flight_recorder.sanitizer = sanitizer
        if self.trace is not None:
            for res in (*sim.channels, *sim.dies):
                res.trace = self.trace
        self._read_latency = registry.histogram("sim.read_latency_us")
        self._write_latency = registry.histogram("sim.write_latency_us")
        #: telemetry adds per-tenant histograms, created on first use
        self._per_tenant = self.telemetry is not None
        self._gc_collections = registry.counter("ftl.gc.collections")
        self._gc_pages_moved = registry.counter("ftl.gc.pages_moved")

    # -- host side ------------------------------------------------------
    def submit(self, req) -> None:
        """A host request arrived."""
        if self.trace is not None:
            self.trace.emit(
                self._loop.now, "request_submit", f"w{req.workload_id}", "host",
                args={"op": req.op.name, "lpn": req.lpn, "len": req.length},
            )

    def dispatch(self, op: str, wid: int, lpn: int, ppn: int, die, bus) -> None:
        """One page of a request was sent to flash."""
        if self.trace is not None:
            self.trace.emit(
                self._loop.now, "subrequest_dispatch", bus.name, "sim",
                args={"wid": wid, "lpn": lpn, "ppn": ppn, "op": op, "die": die.name},
            )

    def read_retry(self, die, ppn: int, outcome) -> None:
        """A read needs ECC retries (``outcome`` from the fault model)."""
        if self.trace is not None:
            self.trace.emit(
                self._loop.now, "read_retry", die.name, "faults",
                args={"ppn": ppn, "retries": outcome.retries,
                      "unrecoverable": outcome.unrecoverable},
            )

    def span(self, *args, **kwargs):
        """The page's :class:`SubrequestSpan` (built from these arguments),
        or ``None`` without attribution."""
        if self.attribution is None:
            return None
        return SubrequestSpan(*args, **kwargs)

    def request_done(self, req, span) -> None:
        """A request completed; ``span`` is its critical page's, if any."""
        latency_us = req.latency_us
        is_read = req.is_read
        (self._read_latency if is_read else self._write_latency).observe(latency_us)
        if self._per_tenant:
            kind = "read" if is_read else "write"
            name = f"sim.tenant.{req.workload_id}.{kind}_latency_us"
            self.registry.histogram(name).observe(latency_us)
        if self.attribution is not None and span is not None:
            self.attribution.record(req, span)
        self.registry.counter("sim.requests").inc()

    def request_failed(self, req) -> None:
        """A read came back unrecoverable; the request surfaces as failed."""
        self.registry.counter("sim.failed_reads").inc()
        if self.flight_recorder is not None:
            self.flight_recorder.dump_once(
                "unrecoverable-read",
                detail=f"wid={req.workload_id} lpn={req.lpn} len={req.length}",
                time_us=self._loop.now,
            )
        self.registry.counter("sim.requests").inc()

    def run_error(self, exc: BaseException) -> None:
        """The run raised; a sanitizer trap or any other exception."""
        if self.flight_recorder is not None:
            trigger = "sanitizer-invariant" if getattr(exc, "invariant", None) else "exception"
            self.flight_recorder.dump_once(trigger, detail=str(exc), time_us=self._loop.now)

    # -- FTL side -------------------------------------------------------
    def gc_trigger(self, workload_id: int, work_items: int) -> None:
        """A write of ``workload_id`` was charged ``work_items`` of GC work."""
        if self.attribution is not None:
            self.attribution.note_gc_trigger(workload_id, work_items)

    def gc_reclaim(self, channel: int, moves: int, retired: bool) -> None:
        """GC reclaimed a block on ``channel`` (``retired``: erase failed)."""
        if not retired:
            self._gc_collections.inc()
        self._gc_pages_moved.inc(moves)
        if self.attribution is not None:
            self.attribution.note_gc_reclaim(channel, moves, retired)

    def reallocated(self) -> None:
        """The controller switched to a new channel allocation."""
        self.registry.counter("ftl.reallocations").inc()

    def gc_granted(self, start_us: float, die, item) -> None:
        """A die began a GC reclaim or a block retirement (``item``)."""
        if self.trace is None:
            return
        is_gc = _is_gc_item(item)
        if is_gc:
            self.trace.emit(start_us, "gc_start", die.name, "gc", args=_item_args(item))
        if not is_gc or item.retired:
            self.trace.emit(
                start_us, "block_retired", die.name, "faults", args=_item_args(item)
            )

    # -- run boundaries -------------------------------------------------
    def arm(self) -> None:
        """Attach the telemetry sampler (weak loop events)."""
        if self.telemetry is not None:
            sim = self.sim
            self.telemetry.attach(
                self._loop, self.registry, channels=sim.channels, dies=sim.dies,
            )

    def collect(self, result):
        """Flush the sampler's final partial window, add the attribution
        breakdown and SLO alerts to ``result``, and publish the run."""
        obs, sim, reg = self.obs, self.sim, self.registry
        if self.telemetry is not None:
            self.telemetry.flush()
        result = replace(
            result,
            breakdown=self.attribution.breakdown() if self.attribution is not None else None,
            alerts=[a.to_dict() for a in obs.slo.alerts] if obs.slo is not None else None,
        )
        reg.counter("sim.requests").value = sim.requests_done
        reg.counter("sim.subrequests").value = sim.subrequests_done
        reg.counter("sim.events").value = self._loop.events_processed
        reg.counter("ftl.seeded_pages").value = sim.controller.seeded_pages
        reg.gauge("sim.makespan_us").set(result.makespan_us)
        reg.gauge("sim.total_latency_us").set(result.total_latency_us)
        reg.gauge("sim.channel_wait_us").set(result.channel_wait_us)
        reg.gauge("sim.die_wait_us").set(result.die_wait_us)
        for res in (*sim.channels, *sim.dies):
            reg.gauge(f"util.{res.name}.busy_fraction").set(res.utilization(result.makespan_us))
        if sim.buffer is not None:
            sim.buffer.stats.publish(reg)
        if sim.faults is not None:
            sim.faults.publish(reg)
        if result.breakdown is not None:
            reg.counter("attr.requests").value = result.breakdown.requests
            for phase, total_us in result.breakdown.phase_totals_us.items():
                reg.gauge(f"attr.{phase}").set(total_us)
        return result


def _is_gc_item(item) -> bool:
    """GC reclaim (rather than a program-failure retirement)?"""
    from ..ssd.ftl.gc import GCWorkItem  # lazy: obs must not import ssd at module load

    return isinstance(item, GCWorkItem)


def _item_args(item) -> dict:
    return {"plane": item.plane_index, "block": item.block, "moves": item.moves}
