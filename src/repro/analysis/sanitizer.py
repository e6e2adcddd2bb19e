"""Runtime simulation sanitizer (TSan/ASan-style, opt-in).

The :class:`Sanitizer` is threaded through the simulator exactly like
``obs`` / ``faults``: every instrumented component stores it as an
attribute defaulting to ``None`` and pays one ``is not None`` branch per
hook site when disabled.  When enabled it keeps *shadow state* — it does
not trust the bookkeeping of the objects it watches — and checks, on
every step:

* **event-time monotonicity** — the event loop never dispatches an event
  earlier than the current simulated time (``repro.ssd.engine`` clamps
  float residue up to ``TIME_EPSILON``; anything beyond that is a
  corrupted heap or a negative-time bug);
* **resource mutual exclusion** — a :class:`~repro.ssd.engine.Resource`
  (channel bus, die) is never granted to a second job before the
  previous grant's service interval has elapsed (no double-grants);
* **mapping-table bijectivity** — every ``LPN→PPN`` entry has the
  matching ``PPN→LPN`` entry and vice versa, checked incrementally on
  ``bind``/``unbind`` and in full after every GC pass;
* **capacity conservation** — per plane,
  ``live + dead + retired + free == total`` pages and block-level validity
  counts sum to the live count after every host program, retire and GC
  step; no retired block is active after a program, nor sealed, free or
  active after a retire or GC step.

A failed check raises :class:`SanitizerError` naming the invariant,
with the most recent hook events appended so the report is correlated
with the simulated timeline.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ssd.engine import Resource
    from ..ssd.ftl.mapping import FlashArrayState, MappingTable, PlaneState

__all__ = ["Sanitizer", "SanitizerError"]

#: float-rounding slack mirrored from ``EventLoop.TIME_EPSILON``
_EPSILON = 1e-9


class SanitizerError(RuntimeError):
    """An invariant the sanitizer watches was violated.

    ``invariant`` is the stable machine-readable name
    (``event-time-monotonicity``, ``resource-mutual-exclusion``,
    ``mapping-bijectivity``, ``capacity-conservation``,
    ``attribution-exact-sum``, ``critpath-exact-sum``).
    """

    def __init__(self, invariant: str, detail: str, trace: list[str]) -> None:
        self.invariant = invariant
        self.detail = detail
        self.trace = list(trace)
        message = f"[{invariant}] {detail}"
        if trace:
            message += "\n  recent events:\n    " + "\n    ".join(trace)
        super().__init__(message)


class Sanitizer:
    """Opt-in invariant checker for one simulation run."""

    __slots__ = (
        "_ring",
        "_clock_us",
        "_resource_free_at",
        "events_checked",
        "grants_checked",
        "mapping_ops",
        "conservation_checks",
        "attribution_checks",
        "critpath_checks",
    )

    def __init__(self) -> None:
        #: ring buffer of the last 32 hook records for trace-correlated
        #: reports
        self._ring: deque[str] = deque(maxlen=32)
        self._clock_us = 0.0
        #: shadow grant bookkeeping: id(resource) -> (name, free_at_us)
        self._resource_free_at: dict[int, tuple[str, float]] = {}
        self.events_checked = 0
        self.grants_checked = 0
        self.mapping_ops = 0
        self.conservation_checks = 0
        self.attribution_checks = 0
        self.critpath_checks = 0

    # ------------------------------------------------------------------
    def _record(self, entry: str) -> None:
        self._ring.append(f"t={self._clock_us:.3f}us {entry}")

    def _fail(self, invariant: str, detail: str) -> None:
        raise SanitizerError(invariant, detail, list(self._ring))

    def stats(self) -> dict[str, int]:
        """Counters proving the sanitizer actually ran its checks.

        ``attribution_checks`` / ``critpath_checks`` appear only when
        latency attribution (resp. critical-path extraction) was enabled
        for the run — an unattributed run legitimately performs zero of
        them, and consumers assert every reported counter is positive.
        """
        out = {
            "events_checked": self.events_checked,
            "grants_checked": self.grants_checked,
            "mapping_ops": self.mapping_ops,
            "conservation_checks": self.conservation_checks,
        }
        if self.attribution_checks:
            out["attribution_checks"] = self.attribution_checks
        if self.critpath_checks:
            out["critpath_checks"] = self.critpath_checks
        return out

    def recent_events(self) -> list[str]:
        """The recent-event ring, oldest first (flight-recorder bundles
        embed it so a trap arrives with its immediate history attached)."""
        return list(self._ring)

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def on_event(self, when_us: float, now_us: float) -> None:
        """Called by the loop just before dispatching an event at ``when_us``."""
        self.events_checked += 1
        if when_us < now_us - _EPSILON or when_us < self._clock_us - _EPSILON:
            self._fail(
                "event-time-monotonicity",
                f"event dispatched at t={when_us} but simulated time already "
                f"reached t={max(now_us, self._clock_us)}",
            )
        self._clock_us = max(self._clock_us, when_us)

    # ------------------------------------------------------------------
    # Resources (channel buses, dies)
    # ------------------------------------------------------------------
    def on_grant(self, resource: "Resource", start_us: float, duration_us: float) -> None:
        """Called when ``resource`` grants a job [start_us, start_us+duration_us)."""
        self.grants_checked += 1
        if duration_us < 0:
            self._fail(
                "resource-mutual-exclusion",
                f"{resource.kind} '{resource.name}' granted a negative "
                f"duration ({duration_us})",
            )
        key = id(resource)
        previous = self._resource_free_at.get(key)
        if previous is not None:
            name, free_at_us = previous
            if start_us < free_at_us - _EPSILON:
                self._fail(
                    "resource-mutual-exclusion",
                    f"{resource.kind} '{name}' double-granted: new grant "
                    f"starts at t={start_us} before the previous grant "
                    f"releases at t={free_at_us}",
                )
        self._resource_free_at[key] = (resource.name, start_us + duration_us)
        self._record(
            f"grant {resource.kind}/{resource.name} "
            f"[{start_us:.3f}, {start_us + duration_us:.3f}]"
        )

    # ------------------------------------------------------------------
    # Latency attribution
    # ------------------------------------------------------------------
    def on_attribution(
        self,
        workload_id: int,
        op: str,
        phase_sum_us: float,
        latency_us: float,
        tolerance_us: float,
    ) -> None:
        """Called per recorded request: phases must reproduce the latency."""
        self.attribution_checks += 1
        gap_us = phase_sum_us - latency_us
        if gap_us > tolerance_us or gap_us < -tolerance_us:
            self._fail(
                "attribution-exact-sum",
                f"w{workload_id} {op}: attributed phases sum to "
                f"{phase_sum_us!r}us but the recorded latency is "
                f"{latency_us!r}us (gap {gap_us:g}, tolerance {tolerance_us:g})",
            )
        self._record(f"attribution w{workload_id} {op} {latency_us:.3f}us")

    def on_critpath(
        self,
        covered_us: float,
        makespan_us: float,
        tolerance_us: float,
    ) -> None:
        """Called per bottleneck report: the per-resource critical-path
        times must reproduce the run makespan."""
        self.critpath_checks += 1
        gap_us = covered_us - makespan_us
        if gap_us > tolerance_us or gap_us < -tolerance_us:
            self._fail(
                "critpath-exact-sum",
                f"critical-path segments sum to {covered_us!r}us but the "
                f"run makespan is {makespan_us!r}us (gap {gap_us:g}, "
                f"tolerance {tolerance_us:g})",
            )
        self._record(f"critpath {covered_us:.3f}us over {makespan_us:.3f}us")

    # ------------------------------------------------------------------
    # Mapping table
    # ------------------------------------------------------------------
    def on_bind(self, mapping: "MappingTable", lpn: int, ppn: int) -> None:
        """Called after ``mapping.bind(lpn, ppn)`` committed."""
        self.mapping_ops += 1
        self._record(f"bind lpn={lpn} -> ppn={ppn}")
        if mapping.lookup(lpn) != ppn or mapping.reverse(ppn) != lpn:
            self._fail(
                "mapping-bijectivity",
                f"bind(lpn={lpn}, ppn={ppn}) did not commit symmetrically: "
                f"l2p[{lpn}]={mapping.lookup(lpn)} p2l[{ppn}]={mapping.reverse(ppn)}",
            )

    def on_unbind(self, mapping: "MappingTable", lpn: int, ppn: int) -> None:
        """Called after ``mapping.unbind_ppn(ppn)`` removed ``lpn``."""
        self.mapping_ops += 1
        self._record(f"unbind ppn={ppn} (held lpn={lpn})")
        if mapping.lookup(lpn) is not None or mapping.reverse(ppn) is not None:
            self._fail(
                "mapping-bijectivity",
                f"unbind_ppn({ppn}) left a dangling half-entry: "
                f"l2p[{lpn}]={mapping.lookup(lpn)} p2l[{ppn}]={mapping.reverse(ppn)}",
            )

    def check_mapping(self, mapping: "MappingTable") -> None:
        """Full bijection scan (used after GC passes and in tests)."""
        forward = mapping._l2p  # shadow check reads the raw tables on purpose
        backward = mapping._p2l
        if len(forward) != len(backward):
            self._fail(
                "mapping-bijectivity",
                f"table sizes diverged: {len(forward)} LPN entries vs "
                f"{len(backward)} PPN entries",
            )
        for lpn, ppn in forward.items():
            if backward.get(ppn) != lpn:
                self._fail(
                    "mapping-bijectivity",
                    f"l2p[{lpn}]={ppn} but p2l[{ppn}]={backward.get(ppn)}",
                )

    # ------------------------------------------------------------------
    # Plane capacity conservation
    # ------------------------------------------------------------------
    def check_plane(self, plane: "PlaneState") -> None:
        """Assert ``plane``'s page books (:meth:`_check_books`) and that no
        retired (bad) block is sealed, free or active."""
        self._check_books(plane)
        # shadow check reads the raw free pool on purpose
        for block in plane.bad_blocks:
            for pool, where in ((plane.sealed_blocks(), "sealed"),
                                (plane._free_blocks, "in the free pool"),
                                ((plane.active_block,), "the active block")):
                if block in pool:
                    self._retired_block_in(plane, block, where)

    def _check_books(self, plane: "PlaneState") -> None:
        """Assert ``live + dead + retired + free == total`` for ``plane``
        and that its block valid counts sum to its live pages."""
        self.conservation_checks += 1
        live, dead = plane.live_pages, plane.dead_pages
        retired, free = plane.retired_pages, plane.free_pages
        total = plane.total_pages
        if live + dead + retired + free != total:
            self._fail(
                "capacity-conservation",
                f"plane {plane.plane_index}: live {live} + dead {dead} + "
                f"retired {retired} + free {free} != total {total}",
            )
        valid_sum = sum(plane.valid_count)
        if valid_sum != live:
            self._fail(
                "capacity-conservation",
                f"plane {plane.plane_index}: per-block valid counts sum to "
                f"{valid_sum} but live_pages is {live}",
            )

    def _retired_block_in(self, plane: "PlaneState", block: int, where: str) -> None:
        self._fail(
            "capacity-conservation",
            f"plane {plane.plane_index}: retired block {block} is {where}",
        )

    def after_program(self, plane: "PlaneState") -> None:
        """Books of the plane a host write was just programmed into, and
        its active block not retired.  Only retires and GC passes move
        blocks between the bad-block table and the pools, and both run the
        full :meth:`check_plane`; a program can at most activate a retired
        block, so the pool scans are left to those sweeps."""
        self._record(f"program plane={plane.plane_index}")
        self._check_books(plane)
        if plane.active_block in plane.bad_blocks:
            self._retired_block_in(plane, plane.active_block, "the active block")

    def after_gc(self, state: "FlashArrayState", plane: "PlaneState") -> None:
        """Full sweep after one GC pass: plane conservation + bijection."""
        self._record(f"gc-pass plane={plane.plane_index}")
        self.check_plane(plane)
        self.check_mapping(state.mapping)

    def after_retire(self, state: "FlashArrayState", plane: "PlaneState", block: int) -> None:
        """Sweep after a block retirement committed."""
        self._record(f"retire plane={plane.plane_index} block={block}")
        self.check_plane(plane)
        self.check_mapping(state.mapping)
