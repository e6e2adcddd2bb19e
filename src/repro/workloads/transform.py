"""Fresh copies of a request list.

Simulation results attach to request instances (completion times, latency),
so a trace replayed on two devices or under two allocations needs its own
request objects each time.  :func:`clone` builds them; the input is never
mutated.
"""

from __future__ import annotations

from typing import Sequence

from ..ssd.request import IORequest

__all__ = ["clone"]


def clone(requests: Sequence[IORequest]) -> list[IORequest]:
    """Fresh request objects with identical fields (completion state reset)."""
    return [
        IORequest(
            arrival_us=r.arrival_us,
            workload_id=r.workload_id,
            op=r.op,
            lpn=r.lpn,
            length=r.length,
        )
        for r in requests
    ]
