"""I/O request model.

An :class:`IORequest` is one host command from one tenant: read or write,
starting LPN, length in pages, arrival time.  The controller splits it into
per-page units; the request completes when its slowest page access
completes (the paper's Section III observation: "the latency of
the request depends on the slowest chip access").
"""

from __future__ import annotations

from dataclasses import dataclass, field
import enum

__all__ = ["OpType", "IORequest"]


class OpType(enum.IntEnum):
    """Host operation type."""

    READ = 0
    WRITE = 1

    @classmethod
    def from_str(cls, text: str) -> "OpType":
        key = text.strip().lower()
        if key in ("r", "read", "0"):
            return cls.READ
        if key in ("w", "write", "1"):
            return cls.WRITE
        raise ValueError(f"unknown op type {text!r}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "R" if self is OpType.READ else "W"


@dataclass
class IORequest:
    """One host I/O command.

    Attributes
    ----------
    arrival_us:
        Host submission time in microseconds from trace start.
    workload_id:
        Tenant identifier (0-based).  The paper distinguishes tenants via a
        ``workloadID`` obtained with FlashShare/MQSim-style tagging; in the
        simulator it travels with the request.
    op:
        Read or write.
    lpn:
        First logical page number touched.
    length:
        Number of consecutive logical pages (>= 1).
    """

    arrival_us: float
    workload_id: int
    op: OpType
    lpn: int
    length: int = 1

    #: Completion time filled in by the simulator (microseconds).
    complete_us: float = field(default=-1.0, compare=False)

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("request length must be >= 1 page")
        if self.lpn < 0:
            raise ValueError("lpn must be non-negative")
        if self.arrival_us < 0:
            raise ValueError("arrival_us must be non-negative")
        if self.workload_id < 0:
            raise ValueError("workload_id must be non-negative")
        if not isinstance(self.op, OpType):
            self.op = OpType(self.op)

    @property
    def latency_us(self) -> float:
        """Response latency; valid only after simulation."""
        if self.complete_us < 0:
            raise RuntimeError("request has not completed")
        return self.complete_us - self.arrival_us

    def lpns(self) -> range:
        """Logical pages touched by this request."""
        return range(self.lpn, self.lpn + self.length)

    @property
    def is_read(self) -> bool:
        return self.op is OpType.READ
