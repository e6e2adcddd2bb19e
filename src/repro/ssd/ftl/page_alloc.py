"""Static and dynamic page-allocation placers.

A *placer* answers one question for each write: **which plane** receives the
page, given the tenant's allowed channel set.

``STATIC``
    The target channel/chip/die/plane is a pure function of the logical page
    number, striping successive LPNs channel-first across the allowed set.
    Consecutive logical pages land on different channels, so a later
    sequential *read* of those pages enjoys full channel parallelism —
    exactly why the paper assigns static mode to read-dominated tenants.

``DYNAMIC``
    The write goes to the least-busy plane of the allowed set at the moment
    of dispatch (earliest-free die, shortest queue), so writes never wait for
    a busy die while an idle one exists — why the paper assigns dynamic mode
    to write-dominated tenants.

Reads are never placed: they go wherever the mapping table says the data
lives.
"""

from __future__ import annotations

import enum
from itertools import chain
from typing import Callable, Sequence

from ..geometry import Geometry

__all__ = ["PageAllocMode", "StaticPagePlacer", "DynamicPagePlacer", "make_placer"]

#: Load probe: plane_index -> sortable load key of the plane's die, equal for
#: every plane of a die (lower = less busy).
LoadFn = Callable[[int], tuple]

#: Viability probe: plane_index -> False when the plane must not receive
#: writes (e.g. all usable capacity lost to retired blocks).
ViableFn = Callable[[int], bool]

#: Fill probe: plane_index -> sortable key ranking the planes of one die
#: (lower = preferred).
FillFn = Callable[[int], int]


class PageAllocMode(enum.Enum):
    """Per-tenant page-allocation mode."""

    STATIC = "static"
    DYNAMIC = "dynamic"


class StaticPagePlacer:
    """LPN-striped placement over an allowed channel set."""

    def __init__(self, geometry: Geometry, allowed_channels: Sequence[int]) -> None:
        if not allowed_channels:
            raise ValueError("allowed_channels must be non-empty")
        self.geometry = geometry
        self.channels = sorted(set(allowed_channels))
        cfg = geometry.config
        self._chips = cfg.chips_per_channel
        self._dies = cfg.dies_per_chip
        self._planes = cfg.planes_per_die
        self._planes_per_channel = self._chips * self._dies * self._planes

    def place(self, lpn: int) -> int:
        """Flat plane index for ``lpn`` (channel-first striping)."""
        n = len(self.channels)
        channel = self.channels[lpn % n]
        rest = lpn // n
        chip = rest % self._chips
        rest //= self._chips
        die = rest % self._dies
        rest //= self._dies
        plane = rest % self._planes
        return (
            channel * self._planes_per_channel
            + chip * self._dies * self._planes
            + die * self._planes
            + plane
        )


class DynamicPagePlacer:
    """Least-busy placement over an allowed channel set.

    A plane's key is ``(load_fn(plane), fill_fn(plane))``: ``load_fn`` is a
    die-level probe (equal for every plane of a die), asked once per die
    per scan, and ``fill_fn`` ranks a die's planes (lower first).  The
    placer picks the minimum and breaks ties round-robin so that an idle
    device still spreads writes across every plane.
    """

    def __init__(
        self,
        geometry: Geometry,
        allowed_channels: Sequence[int],
        load_fn: LoadFn,
        fill_fn: FillFn,
        viable_fn: ViableFn | None = None,
    ) -> None:
        if not allowed_channels:
            raise ValueError("allowed_channels must be non-empty")
        self.geometry = geometry
        self.channels = sorted(set(allowed_channels))
        # Candidates interleaved channel-first: consecutive tie-broken picks
        # land on *different channels*, so equal-load writes spread across
        # buses instead of serialising on one channel's planes.
        per_channel = [geometry.planes_in_channels([ch]) for ch in self.channels]
        self.candidates = [
            planes[k]
            for k in range(len(per_channel[0]))
            for planes in per_channel
        ]
        self.load_fn = load_fn
        self.fill_fn = fill_fn
        #: per candidate, its die: the key ``load_fn`` is asked once per scan for
        planes_per_die = geometry.config.planes_per_die
        self._dies = [plane // planes_per_die for plane in self.candidates]
        #: optional health filter; non-viable planes (capacity retired away
        #: under fault injection) are skipped unless every candidate is out
        self.viable_fn = viable_fn
        self._rr = 0

    def place(self, lpn: int) -> int:
        """Flat plane index of the least-busy viable candidate plane."""
        best_index = self._least_loaded(self.viable_fn)
        if best_index < 0:
            # Every plane filtered out: fall back to raw least-busy so the
            # controller's own fallback/GC machinery gets to decide.
            best_index = self._least_loaded(None)
        self._rr = (best_index + 1) % len(self.candidates)
        return self.candidates[best_index]

    def _least_loaded(self, viable: ViableFn | None) -> int:
        """First minimum-key candidate scanning from the rotation start
        (so equal-load candidates alternate); -1 when none is viable."""
        candidates, dies = self.candidates, self._dies
        load_fn, fill_fn = self.load_fn, self.fill_fn
        loads: dict[int, tuple] = {}
        best_index, best_load, best_fill = -1, None, None
        n = len(candidates)
        for i in chain(range(self._rr, n), range(self._rr)):
            plane = candidates[i]
            if viable is not None and not viable(plane):
                continue
            load = loads.get(dies[i])
            if load is None:
                load = loads[dies[i]] = load_fn(plane)
            if best_load is None or load < best_load:
                best_index, best_load, best_fill = i, load, fill_fn(plane)
            elif load == best_load:
                fill = fill_fn(plane)
                if fill < best_fill:
                    best_index, best_fill = i, fill
        return best_index


def make_placer(
    mode: PageAllocMode,
    geometry: Geometry,
    allowed_channels: Sequence[int],
    load_fn: LoadFn,
    fill_fn: FillFn,
    viable_fn: ViableFn | None = None,
) -> StaticPagePlacer | DynamicPagePlacer:
    """Build the placer for one tenant."""
    if mode is PageAllocMode.STATIC:
        return StaticPagePlacer(geometry, allowed_channels)
    if mode is PageAllocMode.DYNAMIC:
        return DynamicPagePlacer(geometry, allowed_channels, load_fn, fill_fn, viable_fn)
    raise ValueError(f"unknown mode {mode!r}")
