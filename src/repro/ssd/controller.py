"""FTL controller: ties channel allocation, page placement, mapping and GC.

The controller is the policy layer between host requests and the flash
array.  It is configured with

* ``channel_sets`` — workload id → list of channel indices that workload may
  occupy (produced by a :mod:`repro.core.strategies` allocation, or "all
  channels" for a traditional shared SSD);
* ``page_modes`` — workload id → :class:`~repro.ssd.ftl.page_alloc.PageAllocMode`
  (the hybrid page allocator of the paper assigns STATIC to read-dominated
  and DYNAMIC to write-dominated tenants).

Each tenant gets a private logical address space (``tenant_lpn_space`` pages)
so tenants never alias each other's data — the multi-tenant setting of the
paper, where a ``workloadID`` travels with every request.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .config import SSDConfig
from .faults import FaultInjector, FaultWorkItem
from .ftl.gc import GarbageCollector
from .ftl.mapping import FlashArrayState, PlaneState
from .ftl.page_alloc import LoadFn, PageAllocMode, StaticPagePlacer, make_placer

__all__ = ["FTLController"]

#: Consecutive program failures tolerated on one plane before the write is
#: re-dispatched to a different plane of the tenant's channel set.
_MAX_PROGRAM_ATTEMPTS = 4


def _idle_load(_plane_index: int) -> tuple:
    """Load probe used when no simulator is attached (everything idle)."""
    return (0,)


class FTLController:
    """Per-device FTL instance."""

    def __init__(
        self,
        config: SSDConfig,
        channel_sets: Mapping[int, Sequence[int]],
        page_modes: Mapping[int, PageAllocMode] | None = None,
        *,
        load_fn: LoadFn | None = None,
        tenant_lpn_space: int | None = None,
        probe=None,
        faults: FaultInjector | None = None,
        sanitizer=None,
    ) -> None:
        if not channel_sets:
            raise ValueError("channel_sets must name at least one workload")
        self.config = config
        self.state = FlashArrayState(config)
        self.geometry = self.state.geometry
        #: optional :class:`repro.obs.probe.DeviceProbe` shared with the
        #: simulator; told of GC triggers and reallocations
        self._probe = probe
        #: optional :class:`repro.ssd.faults.FaultInjector`; when attached,
        #: programs and erases may fail and retire blocks
        self.faults = faults
        #: optional :class:`repro.analysis.Sanitizer`; when attached, block
        #: retirements and GC passes re-check conservation and bijectivity
        self.sanitizer = sanitizer
        if sanitizer is not None:
            self.state.mapping.attach_sanitizer(sanitizer)
        self._planes_per_channel = (
            config.chips_per_channel * config.dies_per_chip * config.planes_per_die
        )
        self.gc = GarbageCollector(
            self.state, faults=faults, sanitizer=sanitizer, probe=probe
        )
        self.load_fn = load_fn or _idle_load
        self.page_modes: dict[int, PageAllocMode] = {}
        self._install(channel_sets, page_modes)
        if tenant_lpn_space is None:
            tenant_lpn_space = config.logical_pages // max(1, len(self.channel_sets))
        self.tenant_lpn_space = tenant_lpn_space
        #: pages pre-seeded on behalf of reads of cold data
        self.seeded_pages = 0

    # ------------------------------------------------------------------
    def _placement_load(self, plane_index: int) -> tuple:
        """Dynamic-placement load key: simulator load, then plane fullness."""
        return (*self.load_fn(plane_index), -self.state.planes[plane_index].free_pages)

    def _plane_viable(self, plane_index: int) -> bool:
        """Placement health filter: planes retired down to nothing are out."""
        return self.state.planes[plane_index].usable_pages > 0

    def channel_of_plane(self, plane_index: int) -> int:
        """Channel whose bus serves ``plane_index``."""
        return plane_index // self._planes_per_channel

    def global_lpn(self, workload_id: int, lpn: int) -> int:
        """Namespace a tenant-relative LPN into the device-wide LPN space."""
        if lpn >= self.tenant_lpn_space:
            raise ValueError(
                f"workload {workload_id} LPN {lpn} exceeds tenant space "
                f"{self.tenant_lpn_space}"
            )
        return workload_id * self.tenant_lpn_space + lpn

    # ------------------------------------------------------------------
    def place_write(self, workload_id: int, lpn: int) -> tuple[int, list]:
        """Allocate a physical page for a write; run GC if needed.

        Returns ``(ppn, work)`` where ``work`` carries the timing cost of
        any blocks reclaimed by GC — and, under fault injection, of any
        blocks retired by program failures — as a consequence of this write.
        """
        placer = self._placers.get(workload_id)
        if placer is None:
            raise KeyError(f"unknown workload id {workload_id}")
        glpn = self.global_lpn(workload_id, lpn)
        plane_index = placer.place(lpn)
        plane = self.state.planes[plane_index]
        work: list = []
        if not plane.has_free_page():
            work.extend(self.gc.collect(plane))
            if not plane.has_free_page():
                plane_index, plane = self._fallback_plane(workload_id, plane_index)
        if self.faults is not None:
            ppn, plane = self._program_with_faults(
                glpn, workload_id, plane_index, plane, work
            )
        else:
            ppn = self.state.write(glpn, plane)
        work.extend(self.gc.maybe_collect(plane))
        if work and self._probe is not None:
            self._probe.gc_trigger(workload_id, len(work))
        return ppn, work

    # ------------------------------------------------------------------
    def _program_with_faults(
        self,
        glpn: int,
        workload_id: int,
        plane_index: int,
        plane: PlaneState,
        work: list,
    ) -> tuple[int, PlaneState]:
        """Program ``glpn`` with the injector in the loop.

        Each failed program retires the target block (valid data relocated,
        capacity written off) and the page is re-dispatched to the plane's
        next block; after ``_MAX_PROGRAM_ATTEMPTS`` consecutive failures —
        or when the plane can no longer spare a replacement block — the
        write moves to another plane of the tenant's channel set.
        """
        assert self.faults is not None  # only dispatched on the faulted path
        attempts = 0
        while True:
            channel = self.channel_of_plane(plane_index)
            block = plane.next_program_block()
            if not self.faults.program_fails(channel, plane.erase_count[block]):
                return self.state.write(glpn, plane), plane
            work.append(self._retire_program_block(plane, block, work))
            attempts += 1
            if attempts >= _MAX_PROGRAM_ATTEMPTS or not plane.has_free_page():
                plane_index, plane = self._fallback_plane(workload_id, plane_index)
                # Final dispatch is not re-drawn: the failure budget for this
                # page is spent, and unbounded re-draws could starve a write.
                return self.state.write(glpn, plane), plane

    def _retire_program_block(
        self, plane: PlaneState, block: int, work: list
    ) -> FaultWorkItem:
        """Retire ``block`` after a program failure; relocate its valid data."""
        assert self.faults is not None  # only reached from the faulted path
        if block != plane.active_block:
            # The failure hit the head of the free pool (active was full):
            # the block is erased and empty — retire it outright.
            plane.retire_free_block(block)
            self.faults.note_retirement(plane.pages_per_block)
            if self.sanitizer is not None:
                self.sanitizer.after_retire(self.state, plane, block)
            return FaultWorkItem(plane.plane_index, block, 0)
        if plane.free_blocks == 0:
            # Need a replacement active block before we can retire this one.
            work.extend(self.gc.collect(plane))
        programmed = plane.next_page
        plane.begin_retire_active()  # raises if the plane is out of spares
        moves = self.state.relocate(plane, block)
        plane.retire_block(block, programmed_pages=programmed)
        self.faults.note_retirement(plane.pages_per_block)
        if self.sanitizer is not None:
            self.sanitizer.after_retire(self.state, plane, block)
        return FaultWorkItem(plane.plane_index, block, moves)

    def resolve_read(self, workload_id: int, lpn: int) -> int:
        """Physical location of a read; pre-seeds cold data at zero time cost.

        Data never written inside the trace window is assumed to pre-exist on
        flash, striped statically across the tenant's channels (so the
        placement — which is all that matters for conflicts — is realistic),
        but no programming time is charged.
        """
        if workload_id not in self.channel_sets:
            raise KeyError(f"unknown workload id {workload_id}")
        glpn = self.global_lpn(workload_id, lpn)
        ppn = self.state.mapping.lookup(glpn)
        if ppn is not None:
            return ppn
        plane_index = self._seed_placers[workload_id].place(lpn)
        plane = self.state.planes[plane_index]
        if not plane.has_free_page():
            self.gc.collect(plane)
            if not plane.has_free_page():
                plane_index, plane = self._fallback_plane(workload_id, plane_index)
        ppn = self.state.write(glpn, plane)
        self.seeded_pages += 1
        return ppn

    def _fallback_plane(self, workload_id: int, avoid: int) -> tuple[int, PlaneState]:
        """Any plane in the tenant's channel set with space (last resort)."""
        for plane_index in self.geometry.planes_in_channels(self.channel_sets[workload_id]):
            if plane_index == avoid:
                continue
            plane = self.state.planes[plane_index]
            if plane.has_free_page():
                return plane_index, plane
            self.gc.collect(plane)
            if plane.has_free_page():
                return plane_index, plane
        raise RuntimeError(
            f"workload {workload_id}: no free pages in channels "
            f"{self.channel_sets[workload_id]} — footprint exceeds capacity"
        )

    # ------------------------------------------------------------------
    def reallocate(
        self,
        channel_sets: Mapping[int, Sequence[int]],
        page_modes: Mapping[int, PageAllocMode] | None = None,
    ) -> None:
        """Apply a new channel allocation mid-run (Algorithm 2's switch).

        Data already on flash stays where it is — reads keep resolving
        through the mapping table — but new writes and newly-seeded cold
        reads follow the new allocation.  The set of workload ids must not
        change (tenant address spaces are sized at construction).
        """
        if set(channel_sets) != set(self.channel_sets):
            raise ValueError("reallocation must cover exactly the same workloads")
        self._install(channel_sets, page_modes)
        if self._probe is not None:
            self._probe.reallocated()

    def _install(self, channel_sets: Mapping[int, Sequence[int]],
                 page_modes: Mapping[int, PageAllocMode] | None) -> None:
        """Validate a channel allocation, then make it current; a tenant
        missing from ``page_modes`` keeps its mode (STATIC at first).  Seed
        placers stripe never-written data statically whatever the mode."""
        sets = self.geometry.checked_channel_sets(channel_sets)
        modes = dict(page_modes or {})
        self.channel_sets = sets
        self.page_modes = {
            wid: modes.get(wid, self.page_modes.get(wid, PageAllocMode.STATIC))
            for wid in sets
        }
        viable = self._plane_viable if self.faults is not None else None
        self._placers = {
            wid: make_placer(
                self.page_modes[wid], self.geometry, chs, self._placement_load, viable
            )
            for wid, chs in sets.items()
        }
        self._seed_placers = {
            wid: StaticPagePlacer(self.geometry, chs) for wid, chs in sets.items()
        }

    def mapped_pages(self) -> int:
        return self.state.mapped_pages()

    def describe(self) -> str:
        parts = [
            f"wid {wid}: ch{chs} {self.page_modes[wid].value}"
            for wid, chs in sorted(self.channel_sets.items())
        ]
        return "; ".join(parts)
