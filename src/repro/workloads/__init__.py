"""Workload substrate: specs, synthetic generation, MSR stand-ins, mixing.

Typical flow::

    from repro.workloads import msr, synthesize_mix

    specs = [msr.spec(n, rate_scale=2e4) for n in
             ("mds_0", "mds_1", "rsrch_0", "prxy_0")]
    mixed = synthesize_mix(specs, total_requests=10_000, seed=1)
"""

from . import msr, traces
from .adversarial import (
    SCENARIOS,
    build_scenario,
    migrating_hotspot,
    noisy_neighbor,
    phase_change,
)
from .mixer import MixedWorkload, mix, synthesize_mix
from .spec import WorkloadSpec
from .stats import TraceStats, analyze, per_workload
from .synthetic import generate, generate_arrays
from .transform import clone

__all__ = [
    "WorkloadSpec",
    "SCENARIOS",
    "build_scenario",
    "migrating_hotspot",
    "noisy_neighbor",
    "phase_change",
    "generate",
    "generate_arrays",
    "MixedWorkload",
    "mix",
    "synthesize_mix",
    "TraceStats",
    "analyze",
    "per_workload",
    "clone",
    "msr",
    "traces",
]
