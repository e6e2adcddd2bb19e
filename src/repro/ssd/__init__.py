"""Multi-channel SSD simulator substrate (SSDSim-style).

Public surface:

* :class:`SSDConfig` — device geometry and timing (Table I defaults);
* :class:`SSDSimulator` / :func:`simulate` — exact event-driven simulation;
* :class:`FastLatencyModel` — one trace prepared once on one device and
  run per channel allocation, the vectorised approximation behind strategy
  sweeps; :func:`fast_simulate` is its one-call twin of :func:`simulate`;
* :class:`IORequest` / :class:`OpType` — the trace record consumed by both;
* :class:`SimulationResult` — latency summary both engines return;
* :class:`PageAllocMode` — static vs dynamic page allocation per tenant.
"""

from .buffer import AccessResult, BufferConfig, BufferStats, WriteBuffer
from .config import GiB, KiB, MiB, SSDConfig
from .controller import FTLController
from .engine import EventLoop
from .fastmodel import FastLatencyModel, fast_simulate
from .faults import FaultConfig, FaultExpectation, FaultInjector
from .ftl import PageAllocMode
from .geometry import Geometry, PhysicalAddress
from .metrics import LatencyAccumulator, OpStats, SimulationResult
from .request import IORequest, OpType
from .simulator import SSDSimulator, simulate
from .timing import ServiceTimes

__all__ = [
    "AccessResult",
    "BufferConfig",
    "BufferStats",
    "WriteBuffer",
    "SSDConfig",
    "FaultConfig",
    "FaultExpectation",
    "FaultInjector",
    "KiB",
    "MiB",
    "GiB",
    "Geometry",
    "PhysicalAddress",
    "IORequest",
    "OpType",
    "ServiceTimes",
    "LatencyAccumulator",
    "OpStats",
    "SimulationResult",
    "FTLController",
    "SSDSimulator",
    "simulate",
    "EventLoop",
    "FastLatencyModel",
    "fast_simulate",
    "PageAllocMode",
]
