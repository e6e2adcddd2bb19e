"""Features collector (Section IV-B / V-A).

The collector watches the mixed request stream over a window and produces
the paper's nine-dimensional feature vector (for four tenants):

* **overall intensity level** (1-D) — total request count over the window,
  quantised into twenty levels;
* **R/W characteristic of each workload** (4-D) — 0 for write-dominated,
  1 for read-dominated;
* **request proportion of each workload** (4-D) — each tenant's share of
  the merged request count; the shares sum to 1.

Example from the paper: ``[5] [1, 0, 1, 0] [0.1, 0.2, 0.3, 0.4]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ssd.request import IORequest
from ..workloads.mixer import MixedWorkload

__all__ = ["FeatureVector", "FeaturesCollector", "features_of_mix", "N_INTENSITY_LEVELS"]

#: The paper divides overall intensity into twenty levels.
N_INTENSITY_LEVELS = 20


@dataclass(frozen=True)
class FeatureVector:
    """The 2n+1-dimensional input of the strategy learner."""

    intensity_level: int
    #: per tenant: 0 = write-dominated, 1 = read-dominated
    characteristics: tuple[int, ...]
    #: per tenant: share of total requests, sums to ~1
    proportions: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.characteristics) != len(self.proportions):
            raise ValueError("characteristics and proportions must align")
        if not 0 <= self.intensity_level < N_INTENSITY_LEVELS:
            raise ValueError(
                f"intensity level {self.intensity_level} outside "
                f"[0, {N_INTENSITY_LEVELS})"
            )
        if any(c not in (0, 1) for c in self.characteristics):
            raise ValueError("characteristics must be 0 (write) or 1 (read)")
        if any(p < 0 for p in self.proportions):
            raise ValueError("proportions must be non-negative")
        total = sum(self.proportions)
        if total > 0 and abs(total - 1.0) > 1e-6:
            raise ValueError(f"proportions must sum to 1, got {total}")

    @property
    def n_tenants(self) -> int:
        return len(self.characteristics)

    def write_dominated(self) -> list[bool]:
        """Group membership used by two-part strategies."""
        return [c == 0 for c in self.characteristics]

    def total_write_proportion(self) -> float:
        """Figure 6's Y axis: summed shares of the write-dominated tenants."""
        return sum(
            p for c, p in zip(self.characteristics, self.proportions) if c == 0
        )

    def to_array(self) -> np.ndarray:
        """Flatten to the network's input layout: [level, chars..., props...]."""
        return np.array(
            [float(self.intensity_level), *map(float, self.characteristics), *self.proportions]
        )

    @classmethod
    def from_array(cls, data: np.ndarray, n_tenants: int) -> "FeatureVector":
        data = np.asarray(data, dtype=float).ravel()
        if data.size != 1 + 2 * n_tenants:
            raise ValueError(
                f"expected {1 + 2 * n_tenants} dims for {n_tenants} tenants, "
                f"got {data.size}"
            )
        return cls(
            intensity_level=int(round(data[0])),
            characteristics=tuple(int(round(v)) for v in data[1 : 1 + n_tenants]),
            proportions=tuple(data[1 + n_tenants :]),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        chars = ",".join(str(c) for c in self.characteristics)
        props = ",".join(f"{p:.2f}" for p in self.proportions)
        return f"[{self.intensity_level}] [{chars}] [{props}]"


class FeaturesCollector:
    """Online per-window statistics over the mixed request stream.

    ``intensity_quantum`` is the request count per intensity level: a window
    with ``total`` requests lands in level ``min(total // quantum, 19)``.
    The experiments derive the quantum from the trace scale so the observed
    mixes span all twenty levels.
    """

    def __init__(self, n_tenants: int, *, intensity_quantum: float) -> None:
        if n_tenants < 1:
            raise ValueError("need at least one tenant")
        if intensity_quantum <= 0:
            raise ValueError("intensity_quantum must be positive")
        self.n_tenants = n_tenants
        self.intensity_quantum = intensity_quantum
        self._reads = [0] * n_tenants
        self._writes = [0] * n_tenants

    # ------------------------------------------------------------------
    def observe(self, request: IORequest) -> None:
        """Record one submitted request."""
        wid = request.workload_id
        if not 0 <= wid < self.n_tenants:
            raise ValueError(f"workload id {wid} outside [0, {self.n_tenants})")
        if request.is_read:
            self._reads[wid] += 1
        else:
            self._writes[wid] += 1

    @property
    def total_observed(self) -> int:
        return sum(self._reads) + sum(self._writes)

    def reset(self) -> None:
        self._reads = [0] * self.n_tenants
        self._writes = [0] * self.n_tenants

    # ------------------------------------------------------------------
    def collect(self) -> FeatureVector:
        """Produce the feature vector for the current window."""
        total = self.total_observed
        if total == 0:
            raise RuntimeError("no requests observed in this window")
        level = min(int(total / self.intensity_quantum), N_INTENSITY_LEVELS - 1)
        characteristics = []
        proportions = []
        for wid in range(self.n_tenants):
            reads, writes = self._reads[wid], self._writes[wid]
            # A tenant with no traffic defaults to read-dominated (harmless:
            # its proportion is 0 so allocation barely depends on it).
            characteristics.append(0 if writes > reads else 1)
            proportions.append((reads + writes) / total)
        # Normalise away float dust so the invariant sum==1 holds exactly.
        scale = sum(proportions)
        proportions = [p / scale for p in proportions]
        return FeatureVector(
            intensity_level=level,
            characteristics=tuple(characteristics),
            proportions=tuple(proportions),
        )


def features_of_mix(
    mixed: MixedWorkload, *, intensity_quantum: float
) -> FeatureVector:
    """Feature vector of a whole pre-built mixed workload."""
    collector = FeaturesCollector(
        mixed.n_tenants, intensity_quantum=intensity_quantum
    )
    for request in mixed.requests:
        collector.observe(request)
    return collector.collect()
