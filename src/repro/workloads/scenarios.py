"""The seeded device scenarios the ``repro`` labs share.

``repro bench`` times every scenario, ``repro explain`` and ``repro
profile`` take one apart, ``repro diff run`` re-simulates one under two
configurations, and ``repro fleet`` sizes its trace the same way.  Each
builder takes a request count and returns ``(kind, requests, config,
channel_sets, faults)``, where ``kind`` names the backend the scenario
runs on (``"simulator"`` or ``"fastmodel"``).  Everything is seeded: two
builds produce identical traces, so only host wall-clock carries noise.

The adversarial families of :mod:`repro.workloads.adversarial` enter
here truncated to the requested size on a fully shared device; they
return a different shape (a :class:`~repro.workloads.mixer.MixedWorkload`)
and keep their own registry there.
"""

from __future__ import annotations

from typing import Callable

__all__ = [
    "FULL_REQUESTS",
    "QUICK_REQUESTS",
    "SCENARIOS",
    "lookup",
    "build",
]

#: request counts per scenario (full / --quick)
FULL_REQUESTS = 3000
QUICK_REQUESTS = 600


def _mix(specs, total_requests: int, seed: int):
    from .mixer import synthesize_mix

    return synthesize_mix(specs, total_requests=total_requests, seed=seed).requests


def _spec(name: str, write_ratio: float, rate_rps: float, footprint_pages: int):
    from .spec import WorkloadSpec

    return WorkloadSpec(
        name=name,
        write_ratio=write_ratio,
        rate_rps=rate_rps,
        mean_request_pages=2.0,
        sequential_fraction=0.3,
        skew=0.5,
        footprint_pages=footprint_pages,
    )


def _scenario_mix2(total: int):
    from ..ssd.config import SSDConfig

    cfg = SSDConfig.small()
    requests = _mix(
        [
            _spec("writer", 0.9, 8000.0, 4096),
            _spec("reader", 0.1, 6000.0, 4096),
        ],
        total,
        seed=101,
    )
    sets = {0: list(range(cfg.channels)), 1: list(range(cfg.channels))}
    return "simulator", requests, cfg, sets, None


def _scenario_mix4(total: int):
    from ..ssd.config import SSDConfig

    cfg = SSDConfig.small()
    requests = _mix(
        [
            _spec("writer-a", 0.9, 4000.0, 2048),
            _spec("writer-b", 0.8, 4000.0, 2048),
            _spec("reader-a", 0.1, 3000.0, 2048),
            _spec("reader-b", 0.05, 3000.0, 2048),
        ],
        total,
        seed=202,
    )
    half = cfg.channels // 2
    sets = {
        0: list(range(half)),
        1: list(range(half)),
        2: list(range(half, cfg.channels)),
        3: list(range(half, cfg.channels)),
    }
    return "simulator", requests, cfg, sets, None


def _scenario_gc_heavy(total: int):
    from ..ssd.config import SSDConfig

    # Tiny blocks, one channel per writer, footprints near capacity: the
    # trace overwrites each channel several times, keeping GC busy.
    cfg = SSDConfig(blocks_per_plane=4, pages_per_block=16)
    requests = _mix(
        [
            _spec("writer-a", 0.95, 4000.0, 190),
            _spec("writer-b", 0.85, 3000.0, 190),
        ],
        total,
        seed=303,
    )
    sets = {0: [0], 1: [1]}
    return "simulator", requests, cfg, sets, None


def _scenario_faulted(total: int):
    from ..ssd.config import SSDConfig
    from ..ssd.faults import FaultConfig

    cfg = SSDConfig(blocks_per_plane=24, pages_per_block=16)
    requests = _mix(
        [
            _spec("writer", 0.9, 6000.0, 4000),
            _spec("reader", 0.1, 5000.0, 4000),
        ],
        total,
        seed=404,
    )
    sets = {0: [0, 1, 2, 3], 1: [4, 5, 6, 7]}
    faults = FaultConfig(
        seed=17, read_ber=0.05, program_fail_rate=0.002, erase_fail_rate=0.01
    )
    return "simulator", requests, cfg, sets, faults


def _scenario_fastmodel(total: int):
    # the mix4_split trace and allocation on the vectorised fast model
    _kind, requests, cfg, sets, faults = _scenario_mix4(total)
    return "fastmodel", requests, cfg, sets, faults


def _adversarial(builder_name: str, total: int, seed: int, **kwargs):
    """Shared plumbing of the adversarial scenarios: build, truncate, share.

    The generators size the trace from rates and phase durations, so the
    chronological truncation to ``total`` mirrors the paper's "mix then
    take the first N" recipe; channel sets stay fully shared — the bench
    measures the simulator under hostile traffic, not the keeper.
    """
    from ..ssd.config import SSDConfig
    from .adversarial import build_scenario

    cfg = SSDConfig.small()
    workload = build_scenario(builder_name, seed=seed, **kwargs)
    requests = workload.requests[:total]
    sets = {
        wid: list(range(cfg.channels)) for wid in range(workload.n_tenants)
    }
    return "simulator", requests, cfg, sets, None


def _scenario_drift_hotspot(total: int):
    return _adversarial(
        "migrating_hotspot", total, seed=505,
        base_rate_rps=3000.0, hot_rate_factor=6.0,
    )


def _scenario_phase_change(total: int):
    return _adversarial(
        "phase_change", total, seed=606,
        base_rate_rps=3000.0, changer_rate_rps=9000.0,
    )


def _scenario_noisy_neighbor(total: int):
    return _adversarial(
        "noisy_neighbor", total, seed=707,
        base_rate_rps=3000.0, noise_factor=8.0,
    )


#: scenario name -> builder(total_requests); insertion order is report order
SCENARIOS: dict[str, Callable] = {
    "mix2_shared": _scenario_mix2,
    "mix4_split": _scenario_mix4,
    "gc_heavy": _scenario_gc_heavy,
    "faulted": _scenario_faulted,
    "fastmodel": _scenario_fastmodel,
    "drift_hotspot": _scenario_drift_hotspot,
    "phase_change": _scenario_phase_change,
    "noisy_neighbor": _scenario_noisy_neighbor,
}


def lookup(name: str) -> Callable:
    """The builder of scenario ``name``.

    Raises ``KeyError`` whose message names every available scenario.
    """
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIOS)}"
        )
    return SCENARIOS[name]


def build(name: str, *, quick: bool = False, event_driven: bool = False):
    """Build scenario ``name`` at full or ``--quick`` size.

    ``event_driven`` refuses fast-model scenarios (``ValueError``): they
    record no trace and no attribution spans.
    """
    kind, *built = lookup(name)(QUICK_REQUESTS if quick else FULL_REQUESTS)
    if event_driven and kind != "simulator":
        raise ValueError(
            f"scenario {name!r} runs the {kind} backend, which records no "
            "trace or attribution spans; an event-driven scenario is needed"
        )
    return (kind, *built)
