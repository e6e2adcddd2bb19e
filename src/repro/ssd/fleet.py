"""Multi-device fleet substrate: N simulators under one composed loop.

A :class:`Fleet` interleaves N :class:`~repro.ssd.simulator.SSDSimulator`
instances through a :class:`~repro.ssd.engine.ComposedLoop`.  Each device
keeps its own event loop (so ``device.loop.now`` remains that device's
makespan, byte-identical to a solo run of the same per-device request
stream), while a dedicated *control loop* — always member 0, so it wins
timestamp ties — owns fleet-level actions:

* **arrival forwarding** — tenant requests are not pre-scheduled on any
  device; each arrival is a control event that looks up the tenant's
  *current* placement and bounces the request onto that device's loop at
  the same timestamp.  The bounce is what advances the device clock to
  the arrival time before :meth:`SSDSimulator.submit` runs.
* **migration** — :meth:`Fleet.migrate` flips the placement map entry, so
  every not-yet-forwarded request of the tenant replays on the
  destination device; requests already in flight on the source drain
  there.  The fleet records drain-start and first-completion-on-
  destination times for each migration (the ``tenant_migration`` span the
  observability plane emits).

The substrate is observability-free: it exposes ``on_complete`` /
``on_migration`` / ``on_migration_complete`` hooks that
:class:`repro.obs.fleet.FleetObserver` attaches to, keeping the
``repro.ssd`` layer import-clean.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .engine import ComposedLoop, EventLoop
from .metrics import SimulationResult
from .request import IORequest
from .simulator import SSDSimulator

__all__ = ["Fleet", "FleetResult", "MigrationPlan", "MigrationRecord", "seeded_placement"]


def seeded_placement(n_tenants: int, n_devices: int, seed: int) -> dict[int, int]:
    """Deterministic seeded tenant -> device map (balanced round-robin).

    Tenants are shuffled by ``seed`` then dealt round-robin, so placements
    are balanced (device loads differ by at most one tenant) yet vary with
    the seed.  Same inputs always produce the same map.
    """
    if n_tenants < 1:
        raise ValueError("need at least one tenant")
    if n_devices < 1:
        raise ValueError("need at least one device")
    order = list(range(n_tenants))
    random.Random(seed).shuffle(order)
    placement = {tenant: i % n_devices for i, tenant in enumerate(order)}
    return dict(sorted(placement.items()))


@dataclass(frozen=True)
class MigrationPlan:
    """One scheduled migration: move ``tenant`` to ``dst`` at ``time_us``.

    The source device is whatever the placement map says when the plan
    fires, so chained migrations of one tenant compose naturally.
    """

    time_us: float
    tenant: int
    dst: int

    def __post_init__(self) -> None:
        if self.time_us < 0:
            raise ValueError("time_us must be non-negative")
        if self.tenant < 0:
            raise ValueError("tenant must be non-negative")
        if self.dst < 0:
            raise ValueError("dst must be non-negative")


@dataclass
class MigrationRecord:
    """What actually happened for one migration.

    ``start_us`` is drain-start (the instant the placement flipped);
    ``first_dst_complete_us`` is the first completion of the tenant on the
    destination device, or ``None`` if the tenant had no remaining
    requests.  Their difference is the ``tenant_migration`` span.
    """

    tenant: int
    src: int
    dst: int
    start_us: float
    requests_replayed: int = 0
    first_dst_complete_us: float | None = None

    @property
    def span_us(self) -> float | None:
        """Drain-start to first-destination-completion, if it happened."""
        if self.first_dst_complete_us is None:
            return None
        return self.first_dst_complete_us - self.start_us

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "src": self.src,
            "dst": self.dst,
            "start_us": self.start_us,
            "requests_replayed": self.requests_replayed,
            "first_dst_complete_us": self.first_dst_complete_us,
            "span_us": self.span_us,
        }


@dataclass
class FleetResult:
    """Everything a fleet run produced, per device and fleet-wide."""

    results: list[SimulationResult]
    placement_initial: dict[int, int]
    placement_final: dict[int, int]
    migrations: list[MigrationRecord]
    #: completions[device][tenant] -> number of that tenant's requests
    #: that completed on that device (conservation: sums to the tenant's
    #: trace length across devices)
    completions: list[dict[int, int]]
    makespan_us: float = 0.0
    events: int = 0


class Fleet:
    """N simulators, a placement map, and a migration primitive.

    Parameters
    ----------
    sims:
        the device simulators, index = device id.  Each must still own an
        idle loop (fresh instances); the fleet composes their loops.
    placement:
        tenant -> device map.  Defaults to :func:`seeded_placement` over
        the tenants seen in ``run``'s traces.
    seed:
        seed for the default placement map.
    """

    def __init__(
        self,
        sims: Sequence[SSDSimulator],
        *,
        placement: Mapping[int, int] | None = None,
        seed: int = 0,
    ) -> None:
        if not sims:
            raise ValueError("a fleet needs at least one device")
        self.sims = list(sims)
        self.seed = seed
        self.placement: dict[int, int] = (
            dict(placement) if placement is not None else {}
        )
        for tenant, dev in self.placement.items():
            if not 0 <= dev < len(self.sims):
                raise ValueError(
                    f"tenant {tenant} placed on unknown device {dev}"
                )
        self.control = EventLoop()
        self.composed = ComposedLoop([self.control] + [s.loop for s in self.sims])
        self.migrations: list[MigrationRecord] = []
        #: per-device {tenant: completed-request count}
        self.completions: list[dict[int, int]] = [{} for _ in self.sims]
        # ---- hooks the observability plane attaches to (all optional) ----
        #: called with ``(device_id, request)`` after each request completes
        self.on_complete = None
        #: called with the :class:`MigrationRecord` at drain-start
        self.on_migration = None
        #: called with the record when its destination span closes
        self.on_migration_complete = None
        # migrations whose destination has not completed a request yet
        self._open_spans: dict[int, MigrationRecord] = {}
        self._traces: dict[int, list[IORequest]] = {}
        self._ran = False
        for dev_id, sim in enumerate(self.sims):
            sim.on_complete = self._completion_hook(dev_id)

    # ------------------------------------------------------------------
    def _completion_hook(self, dev_id: int):
        def hook(req: IORequest) -> None:
            per = self.completions[dev_id]
            per[req.workload_id] = per.get(req.workload_id, 0) + 1
            rec = self._open_spans.get(req.workload_id)
            if rec is not None and rec.dst == dev_id:
                rec.first_dst_complete_us = self.sims[dev_id].loop.now
                del self._open_spans[req.workload_id]
                if self.on_migration_complete is not None:
                    self.on_migration_complete(rec)
            if self.on_complete is not None:
                self.on_complete(dev_id, req)

        return hook

    def _forward(self, arrival: tuple[int, IORequest]) -> None:
        tenant, req = arrival
        sim = self.sims[self.placement[tenant]]
        # bounce: advance the device clock to the arrival time with a
        # device-loop event, then submit at that instant
        sim.loop.schedule(req.arrival_us, lambda: sim.submit(req))  # repro-lint: disable=R004 (trace arrivals are absolute times)

    def migrate(self, tenant: int, dst: int) -> MigrationRecord:
        """Move ``tenant`` to device ``dst`` *now* (at control-loop time).

        Flips the placement entry so every not-yet-forwarded request of
        the tenant replays on the destination; in-flight work drains on
        the source.  Returns the record whose span closes at the tenant's
        first completion on the destination.
        """
        if not 0 <= dst < len(self.sims):
            raise ValueError(f"unknown destination device {dst}")
        if tenant not in self.placement:
            raise ValueError(f"tenant {tenant} has no placement")
        src = self.placement[tenant]
        now = self.control.now
        remaining = sum(
            1 for r in self._traces.get(tenant, ()) if r.arrival_us >= now
        )
        rec = MigrationRecord(
            tenant=tenant, src=src, dst=dst, start_us=now,
            requests_replayed=remaining,
        )
        self.placement[tenant] = dst
        self.migrations.append(rec)
        if remaining:
            self._open_spans[tenant] = rec
        if self.on_migration is not None:
            self.on_migration(rec)
        return rec

    # ------------------------------------------------------------------
    def run(
        self,
        tenant_traces: Mapping[int, Sequence[IORequest]],
        migrations: Sequence[MigrationPlan] = (),
    ) -> FleetResult:
        """Run every tenant trace to completion under the composed loop."""
        if self._ran:
            raise RuntimeError("a Fleet instance runs exactly once")
        self._ran = True
        self._traces = {
            t: sorted(reqs, key=lambda r: r.arrival_us)
            for t, reqs in tenant_traces.items()
        }
        if not self.placement:
            n_tenants = max(self._traces, default=0) + 1
            self.placement = seeded_placement(
                n_tenants, len(self.sims), self.seed
            )
        for tenant in self._traces:
            if tenant not in self.placement:
                raise ValueError(f"tenant {tenant} has no placement")
        placement_initial = dict(self.placement)
        # migrations first so a tie with an arrival applies the new home
        for plan in sorted(migrations, key=lambda p: (p.time_us, p.tenant)):
            self.control.schedule(
                plan.time_us,
                lambda p=plan: self.migrate(p.tenant, p.dst),
            )
        # one stable sort keeps tenant-major order among equal arrival
        # times: the order scheduling tenant by tenant would give
        arrivals = sorted(
            ((tenant, req) for tenant in sorted(self._traces)
             for req in self._traces[tenant]),
            key=lambda arrival: arrival[1].arrival_us,
        )
        self.control.schedule_sorted(
            [req.arrival_us for _, req in arrivals], self._forward, arrivals
        )
        for sim in self.sims:
            sim.arm_observers()
        self.composed.run()
        results = [sim.collect() for sim in self.sims]
        return FleetResult(
            results=results,
            placement_initial=placement_initial,
            placement_final=dict(self.placement),
            migrations=list(self.migrations),
            completions=[dict(per) for per in self.completions],
            makespan_us=self.composed.now,
            events=self.composed.events_processed,
        )
