"""Multi-channel SSD simulator substrate (SSDSim-style).

Public surface:

* :class:`SSDConfig` — device geometry and timing (Table I defaults);
* :class:`SSDSimulator` / :func:`simulate` — exact event-driven simulation;
* :class:`FastLatencyModel` / :func:`fast_simulate` / :func:`fast_sweep` —
  vectorised approximation for bulk strategy sweeps;
* :class:`IORequest` / :class:`OpType` — the trace record consumed by both;
* :class:`SimulationResult` — latency summary both engines return;
* :class:`PageAllocMode` — static vs dynamic page allocation per tenant.
"""

from .buffer import AccessResult, BufferConfig, BufferStats, WriteBuffer
from .config import GiB, KiB, MiB, SSDConfig
from .controller import FTLController
from .engine import ComposedLoop, EventLoop
from .fastmodel import FastLatencyModel, fast_simulate, fast_sweep
from .faults import FaultConfig, FaultExpectation, FaultInjector
from .fleet import Fleet, FleetResult, MigrationPlan, MigrationRecord, seeded_placement
from .ftl import PageAllocMode
from .geometry import Geometry, PhysicalAddress
from .metrics import LatencyAccumulator, OpStats, SimulationResult
from .request import IORequest, OpType, SubRequest
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
    "SubRequest",
    "ServiceTimes",
    "LatencyAccumulator",
    "OpStats",
    "SimulationResult",
    "FTLController",
    "SSDSimulator",
    "simulate",
    "ComposedLoop",
    "EventLoop",
    "Fleet",
    "FleetResult",
    "MigrationPlan",
    "MigrationRecord",
    "seeded_placement",
    "FastLatencyModel",
    "fast_simulate",
    "fast_sweep",
    "PageAllocMode",
]
