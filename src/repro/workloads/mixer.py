"""Mixing tenant streams into one multi-tenant trace.

The paper's evaluation "first mix[es] the four workloads in chronological
order and then take[s] one million traces" (Section V-C).  :func:`mix`
reproduces exactly that: merge per-tenant request lists by arrival time and
truncate to the first ``limit`` requests.

:class:`MixedWorkload` couples the merged trace with the specs that produced
it, which is what the features collector and the experiment harness consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import heapq
from typing import Sequence

from ..ssd.request import IORequest
from .spec import WorkloadSpec
from .synthetic import generate

__all__ = ["MixedWorkload", "mix", "synthesize_mix"]


@dataclass
class MixedWorkload:
    """A merged multi-tenant trace plus its generating specs."""

    specs: list[WorkloadSpec]
    requests: list[IORequest]
    name: str = "mix"
    metadata: dict = field(default_factory=dict)

    @property
    def n_tenants(self) -> int:
        return len(self.specs)

    def proportions(self) -> list[float]:
        """Per-tenant share of the merged request count (sums to 1)."""
        total = len(self.requests)
        if total == 0:
            return [0.0] * self.n_tenants
        counts = [0] * self.n_tenants
        for r in self.requests:
            counts[r.workload_id] += 1
        return [c / total for c in counts]

    def duration_us(self) -> float:
        if not self.requests:
            return 0.0
        return self.requests[-1].arrival_us - self.requests[0].arrival_us

    def write_fraction(self) -> float:
        """Share of writes over the whole merged trace."""
        if not self.requests:
            return 0.0
        writes = sum(1 for r in self.requests if not r.is_read)
        return writes / len(self.requests)


def mix(
    streams: Sequence[list[IORequest]],
    specs: Sequence[WorkloadSpec],
    *,
    limit: int | None = None,
    name: str = "mix",
) -> MixedWorkload:
    """Merge per-tenant streams chronologically; keep the first ``limit``.

    Each stream's requests must already carry the correct ``workload_id``
    (its index in ``streams``) and be sorted by arrival.
    """
    if len(streams) != len(specs):
        raise ValueError("streams and specs must align")
    for wid, stream in enumerate(streams):
        for r in stream:
            if r.workload_id != wid:
                raise ValueError(
                    f"stream {wid} contains request tagged workload {r.workload_id}"
                )
    merged = list(heapq.merge(*streams, key=lambda r: r.arrival_us))
    if limit is not None:
        merged = merged[:limit]
    return MixedWorkload(specs=list(specs), requests=merged, name=name)


def synthesize_mix(
    specs: Sequence[WorkloadSpec],
    *,
    total_requests: int,
    seed: int = 0,
    name: str = "mix",
) -> MixedWorkload:
    """Generate one merged trace of ``total_requests`` from per-tenant specs.

    Per-tenant request counts are proportional to the specs' arrival rates
    (the natural outcome of running the tenants concurrently), oversampled
    slightly before the chronological truncation so the head of the merge is
    dense.
    """
    if total_requests < 0:
        raise ValueError("total_requests must be non-negative")
    if not specs:
        raise ValueError("need at least one spec")
    total_rate = sum(s.rate_rps for s in specs)
    streams = []
    for wid, spec in enumerate(specs):
        share = spec.rate_rps / total_rate
        count = max(1, int(round(total_requests * share * 1.15)))
        streams.append(
            generate(spec, count, workload_id=wid, seed=seed * 7919 + wid)
        )
    return mix(streams, specs, limit=total_requests, name=name)
