"""DRAM write-back buffer with read hits.

Figure 1 of the paper shows the controller's DRAM buffer; SSDSim models one
in front of the FTL.  This module adds the same layer as an *optional*
simulator feature (the paper's experiments run without it, and so do this
repository's reproduction benches — the buffer has its own ablation bench).

Semantics (classic write-back, LRU):

* a **write** lands in DRAM and completes at DRAM latency; the page is
  dirty.  If the buffer is full, the least-recently-used page is evicted
  first — a dirty eviction emits a flash write the device must perform.
* a **read** of a buffered page (dirty or clean) completes at DRAM latency;
  a miss goes to flash, and the page is *read-allocated* into the buffer
  as clean.

The buffer tracks hit/miss/eviction statistics; the simulator charges
timing.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

__all__ = ["BufferConfig", "BufferStats", "AccessResult", "WriteBuffer"]


@dataclass(frozen=True)
class BufferConfig:
    """Capacity and timing of the DRAM buffer."""

    #: buffer capacity in flash pages
    capacity_pages: int = 1024
    #: DRAM access latency charged for hits/absorbed writes (microseconds)
    dram_latency_us: float = 2.0

    def __post_init__(self) -> None:
        if self.capacity_pages < 1:
            raise ValueError("capacity_pages must be >= 1")
        if self.dram_latency_us < 0:
            raise ValueError("dram_latency_us must be non-negative")


@dataclass
class BufferStats:
    """Counters of buffer behaviour."""

    write_hits: int = 0
    write_misses: int = 0
    read_hits: int = 0
    read_misses: int = 0
    clean_evictions: int = 0
    dirty_evictions: int = 0

    @property
    def read_hit_rate(self) -> float:
        total = self.read_hits + self.read_misses
        return self.read_hits / total if total else 0.0

    @property
    def write_absorb_rate(self) -> float:
        """Writes coalesced onto an already-buffered page."""
        total = self.write_hits + self.write_misses
        return self.write_hits / total if total else 0.0

    def publish(self, registry) -> None:
        """Copy the counters into a metrics registry under ``buffer.*``."""
        for name in (
            "write_hits", "write_misses", "read_hits", "read_misses",
            "clean_evictions", "dirty_evictions",
        ):
            counter = registry.counter(f"buffer.{name}")
            counter.value = getattr(self, name)
        registry.gauge("buffer.read_hit_rate").set(self.read_hit_rate)
        registry.gauge("buffer.write_absorb_rate").set(self.write_absorb_rate)


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one buffer access.

    ``hit`` — served from DRAM; ``flash_writes`` — global LPNs whose dirty
    contents must be programmed to flash as a consequence of this access
    (evictions).
    """

    hit: bool
    flash_writes: tuple[int, ...] = field(default_factory=tuple)


class WriteBuffer:
    """LRU write-back buffer keyed by global LPN."""

    def __init__(self, config: BufferConfig) -> None:
        self.config = config
        #: LPN -> dirty flag; OrderedDict keeps LRU order (oldest first)
        self._entries: OrderedDict[int, bool] = OrderedDict()
        self.stats = BufferStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, glpn: int) -> bool:
        return glpn in self._entries

    # ------------------------------------------------------------------
    def write(self, glpn: int) -> AccessResult:
        """Buffer a host write; returns evicted dirty pages to program."""
        hit = glpn in self._entries
        if hit:
            self.stats.write_hits += 1
            self._entries.move_to_end(glpn)
            self._entries[glpn] = True
            return AccessResult(hit=True)
        self.stats.write_misses += 1
        evictions = self._make_room()
        self._entries[glpn] = True
        return AccessResult(hit=False, flash_writes=evictions)

    def read(self, glpn: int) -> AccessResult:
        """Look up a host read; a miss allocates a clean entry."""
        if glpn in self._entries:
            self.stats.read_hits += 1
            self._entries.move_to_end(glpn)
            return AccessResult(hit=True)
        self.stats.read_misses += 1
        evictions = self._make_room()
        self._entries[glpn] = False
        return AccessResult(hit=False, flash_writes=evictions)

    def flush(self) -> tuple[int, ...]:
        """Evict everything; returns the dirty LPNs to program."""
        dirty = tuple(lpn for lpn, is_dirty in self._entries.items() if is_dirty)
        self.stats.dirty_evictions += len(dirty)
        self.stats.clean_evictions += len(self._entries) - len(dirty)
        self._entries.clear()
        return dirty

    # ------------------------------------------------------------------
    def _make_room(self) -> tuple[int, ...]:
        """Evict LRU entries until one slot is free; return dirty LPNs."""
        flash_writes: list[int] = []
        while len(self._entries) >= self.config.capacity_pages:
            lpn, dirty = self._entries.popitem(last=False)
            if dirty:
                self.stats.dirty_evictions += 1
                flash_writes.append(lpn)
            else:
                self.stats.clean_evictions += 1
        return tuple(flash_writes)
