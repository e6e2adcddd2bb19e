"""Workload specifications.

A :class:`WorkloadSpec` is the statistical description of one tenant's I/O
stream: read/write mix, arrival intensity, request sizes, and address
behaviour.  The synthetic generator (:mod:`repro.workloads.synthetic`) turns
a spec into a concrete list of :class:`~repro.ssd.request.IORequest`.

The paper's tenants are either *read-dominated* or *write-dominated*
(Section IV-B); :attr:`WorkloadSpec.is_write_dominated` encodes that
classification the same way the features collector does (write ratio > 0.5).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["WorkloadSpec"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Statistical description of one tenant's request stream."""

    #: Human-readable identifier (e.g. "mds_0" or "synthetic-w80").
    name: str
    #: Fraction of requests that are writes, in [0, 1].
    write_ratio: float
    #: Mean request arrival rate in requests per second.
    rate_rps: float = 2000.0
    #: Mean request size in pages (geometric distribution, min 1).
    mean_request_pages: float = 2.0
    #: Largest request size in pages.
    max_request_pages: int = 16
    #: Number of distinct logical pages this tenant touches.
    footprint_pages: int = 1 << 16
    #: Fraction of requests that continue a sequential run.
    sequential_fraction: float = 0.3
    #: Zipf-like skew of random accesses: 0 = uniform, higher = hotter head.
    skew: float = 0.0
    #: Burstiness knob: 1.0 = Poisson; >1 stretches the arrival tail
    #: (hyper-exponential mix), producing the on/off bursts real traces show.
    burstiness: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ValueError("write_ratio must be in [0, 1]")
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if self.mean_request_pages < 1:
            raise ValueError("mean_request_pages must be >= 1")
        if self.max_request_pages < 1:
            raise ValueError("max_request_pages must be >= 1")
        if self.footprint_pages < 1:
            raise ValueError("footprint_pages must be >= 1")
        if not 0.0 <= self.sequential_fraction <= 1.0:
            raise ValueError("sequential_fraction must be in [0, 1]")
        if self.skew < 0:
            raise ValueError("skew must be non-negative")
        if self.burstiness < 1.0:
            raise ValueError("burstiness must be >= 1")

    @property
    def is_write_dominated(self) -> bool:
        """The paper's binary R/W characteristic (0=write, 1=read)."""
        return self.write_ratio > 0.5

    @property
    def mean_interarrival_us(self) -> float:
        return 1e6 / self.rate_rps  # repro-lint: disable=R001 (1/rps is seconds, so 1e6/rps is microseconds)

    def with_name(self, name: str) -> "WorkloadSpec":
        return replace(self, name=name)

    def describe(self) -> str:
        kind = "write" if self.is_write_dominated else "read"
        return (
            f"{self.name}: {self.write_ratio:.0%} writes ({kind}-dominated), "
            f"{self.rate_rps:.0f} req/s, mean {self.mean_request_pages:.1f} pages, "
            f"footprint {self.footprint_pages} pages, "
            f"{self.sequential_fraction:.0%} sequential"
        )
