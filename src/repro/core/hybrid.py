"""Hybrid page allocator (Section IV-E).

The policy layer deciding each tenant's page-allocation mode:

* **static** for read-dominated tenants — successive logical pages land on
  different channels/chips, so later sequential reads exploit channel
  parallelism;
* **dynamic** for write-dominated tenants — writes go to whichever
  channel/chip is idle, so they never queue behind a busy die while an idle
  one exists.

``ALL_STATIC`` and ``ALL_DYNAMIC`` are the single-mode baselines used by the
hybrid ablation bench (the paper's "+2.1 % average overall performance"
claim for hybrid).
"""

from __future__ import annotations

import enum
from typing import Sequence

from ..ssd.ftl.page_alloc import PageAllocMode
from .features import FeatureVector

__all__ = ["PagePolicy", "page_modes_for"]


class PagePolicy(enum.Enum):
    """Device-wide page-allocation policy."""

    ALL_STATIC = "all-static"
    ALL_DYNAMIC = "all-dynamic"
    HYBRID = "hybrid"


def page_modes_for(
    policy: PagePolicy,
    characteristics: Sequence[int] | FeatureVector,
) -> dict[int, PageAllocMode]:
    """Per-tenant page modes under ``policy``.

    ``characteristics`` follows the collector's encoding (0 write-dominated,
    1 read-dominated) or may be a full :class:`FeatureVector`.
    """
    if isinstance(characteristics, FeatureVector):
        characteristics = characteristics.characteristics
    if any(c not in (0, 1) for c in characteristics):
        raise ValueError("characteristics must be 0 (write) or 1 (read)")
    if policy is PagePolicy.ALL_STATIC:
        return {wid: PageAllocMode.STATIC for wid in range(len(characteristics))}
    if policy is PagePolicy.ALL_DYNAMIC:
        return {wid: PageAllocMode.DYNAMIC for wid in range(len(characteristics))}
    return {
        wid: PageAllocMode.STATIC if c == 1 else PageAllocMode.DYNAMIC
        for wid, c in enumerate(characteristics)
    }
