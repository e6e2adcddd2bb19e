"""Flash translation layer: address mapping, page allocation, GC.

The FTL in this package is page-mapped and log-structured per plane: each
plane has one active block whose pages are consumed in order; overwrites
invalidate the old physical page; greedy garbage collection reclaims the
block with the fewest valid pages when the plane's free-block pool drops
below the configured threshold.  Freed blocks are reused FIFO.  Wear is
accounted as each plane's per-block erase counts
(:attr:`PlaneState.erase_count`), which the fault model's wear coupling
reads.
"""

from .gc import GarbageCollector, GCWorkItem
from .mapping import FlashArrayState, MappingTable, PlaneState
from .page_alloc import DynamicPagePlacer, PageAllocMode, StaticPagePlacer, make_placer

__all__ = [
    "MappingTable",
    "PlaneState",
    "FlashArrayState",
    "PageAllocMode",
    "StaticPagePlacer",
    "DynamicPagePlacer",
    "make_placer",
    "GarbageCollector",
    "GCWorkItem",
]
