"""Pinned digests of seeded event-driven runs.

Every case below runs the event-driven device on a seeded trace and hashes
a canonical JSON rendering of what it simulated: every
:class:`~repro.ssd.metrics.SimulationResult` field except ``events`` (a
host work counter, not a simulated value), latency samples included, plus
the trace stream where one is recorded.  Floats are rendered with
``repr`` so the digests are exact and do not depend on the interpreter's
pickle format.  A refactor of the engine or the simulator that changes any
simulated latency, ordering or trace record changes a digest here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import tempfile

import pytest

from repro.analysis import Sanitizer
from repro.obs import FlightRecorder, Observability, SloSpec, TraceRecorder
from repro.obs.flightrecorder import load_manifest
from repro.ssd import FaultConfig, SSDConfig
from repro.ssd.buffer import BufferConfig
from repro.ssd.ftl.page_alloc import PageAllocMode
from repro.ssd.simulator import SSDSimulator
from repro.workloads import WorkloadSpec, synthesize_mix

SPLIT_SETS = {0: [0, 1], 1: [2, 3], 2: [4, 5], 3: [6, 7]}
SHARED_SETS = {w: list(range(8)) for w in range(4)}


def canonical(obj):
    """JSON-ready rendering with every float as its ``repr``."""
    if isinstance(obj, float):
        return repr(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj) if not f.name.startswith("_")
        }
    slots = getattr(type(obj), "__slots__", None)
    if slots:
        return {name: canonical(getattr(obj, name)) for name in slots}
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def result_doc(result) -> dict:
    """Every ``SimulationResult`` field except the ``events`` counter."""
    doc = canonical(result)
    del doc["events"]
    return doc


def windows_doc(sink) -> list:
    """The sink's windows minus the host ``events`` counter."""
    return canonical([
        {k: v for k, v in window.items() if k != "events"}
        for window in sink.windows
    ])


def registry_doc(registry) -> dict:
    return canonical(registry.snapshot())


def trace_doc(recorder) -> list:
    """One row per event; a hold's release time is ``ts_us + dur_us``."""
    return [
        [e.name, repr(e.ts_us), e.track, repr(e.dur_us), canonical(e.args)]
        for e in recorder.events()
    ]


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def mix(requests: int, seed: int, footprint_pages: int = 600,
        write_ratios=(0.9, 0.9, 0.1, 0.1), rate_rps: float = 3_000.0):
    specs = [
        WorkloadSpec(name=f"t{w}", write_ratio=ratio, rate_rps=rate_rps,
                     footprint_pages=footprint_pages)
        for w, ratio in enumerate(write_ratios)
    ]
    return synthesize_mix(specs, total_requests=requests, seed=seed).requests


def gc_device() -> SSDConfig:
    """The benchmark's GC-and-faults device, shrunk so GC runs within
    a few thousand requests."""
    return SSDConfig(
        blocks_per_plane=6, pages_per_block=8, gc_threshold=0.1, gc_restore=0.2
    )


def faults() -> FaultConfig:
    return FaultConfig(
        seed=5, read_ber=0.05, program_fail_rate=0.002, erase_fail_rate=0.01,
        max_read_retries=1,
    )


# ----------------------------------------------------------------------
# cases: name -> zero-argument callable returning a JSON-ready document


def case_static() -> dict:
    sim = SSDSimulator(SSDConfig.small(), SHARED_SETS, record_latencies=True)
    return {"result": result_doc(sim.run(mix(1_500, seed=1)))}


def case_dynamic() -> dict:
    modes = {w: PageAllocMode.DYNAMIC for w in range(4)}
    sim = SSDSimulator(
        SSDConfig.small(), SPLIT_SETS, modes, record_latencies=True
    )
    return {"result": result_doc(sim.run(mix(1_500, seed=2)))}


def case_dynamic_gc_faults() -> dict:
    """Dynamic placement with GC and faults: the placer's viable filter
    runs on every candidate and GC reclaims under its picks."""
    modes = {w: PageAllocMode.DYNAMIC for w in range(4)}
    device = SSDConfig(
        blocks_per_plane=8, pages_per_block=8, gc_threshold=0.1, gc_restore=0.3
    )
    sim = SSDSimulator(
        device, SPLIT_SETS, modes, record_latencies=True,
        faults=dataclasses.replace(
            faults(), program_fail_rate=0.02, erase_fail_rate=0.1
        ),
    )
    result = sim.run(mix(2_000, seed=11, footprint_pages=300))
    assert result.gc_collections > 0 and result.failed_reads > 0
    assert sim.faults.retired_blocks > 0
    return {"result": result_doc(result)}


def case_gc_faults() -> dict:
    sim = SSDSimulator(
        gc_device(), SPLIT_SETS, record_latencies=True, faults=faults()
    )
    result = sim.run(mix(3_000, seed=3, footprint_pages=300))
    assert result.gc_collections > 0 and result.failed_reads > 0
    return {"result": result_doc(result)}


def case_read_priority() -> dict:
    sim = SSDSimulator(
        gc_device(), SHARED_SETS, record_latencies=True, read_priority=True
    )
    result = sim.run(mix(3_000, seed=4, footprint_pages=300))
    assert result.gc_collections > 0
    return {"result": result_doc(result)}


def case_buffer() -> dict:
    sim = SSDSimulator(
        SSDConfig.small(), SPLIT_SETS, record_latencies=True,
        buffer=BufferConfig(capacity_pages=64),
    )
    result = sim.run(mix(1_500, seed=5, footprint_pages=200))
    assert result.extras["buffer_dirty_evictions"] > 0
    return {"result": result_doc(result)}


def case_obs() -> dict:
    """Trace, attribution and telemetry with its utilization view: the
    result equals the bare run's, and the sampler's output is pinned."""
    obs = Observability(
        trace=TraceRecorder(capacity=200_000), attribution=True, telemetry=250.0,
    )
    sim = SSDSimulator(
        gc_device(), SPLIT_SETS, record_latencies=True, faults=faults(), obs=obs
    )
    result = sim.run(mix(2_000, seed=6, footprint_pages=300))
    assert result.gc_collections > 0 and obs.trace.evicted == 0
    bare = SSDSimulator(
        gc_device(), SPLIT_SETS, record_latencies=True, faults=faults()
    ).run(mix(2_000, seed=6, footprint_pages=300))
    assert result_doc(dataclasses.replace(result, breakdown=None)) == result_doc(bare)
    return {
        "result": result_doc(result),
        "trace": trace_doc(obs.trace),
        "telemetry": windows_doc(obs.telemetry),
        "utilization": canonical(obs.export()["utilization"]),
        "registry": registry_doc(obs.registry),
    }


def case_obs_buffer() -> dict:
    """Buffer, trace, attribution and telemetry: the DRAM-span path, the
    lazily created per-tenant histograms and a mid-run reallocation."""
    obs = Observability(
        trace=TraceRecorder(capacity=200_000), attribution=True, telemetry=500.0,
    )
    sim = SSDSimulator(
        SSDConfig.small(), SPLIT_SETS, record_latencies=True, obs=obs,
        buffer=BufferConfig(capacity_pages=64),
    )
    sim.loop.schedule(
        100_000.0, lambda: sim.controller.reallocate(SHARED_SETS)
    )
    result = sim.run(mix(1_500, seed=9, footprint_pages=200))
    assert result.extras["buffer_dirty_evictions"] > 0
    assert obs.trace.evicted == 0
    return {
        "result": result_doc(result),
        "trace": trace_doc(obs.trace),
        "telemetry": windows_doc(obs.telemetry),
        "registry": registry_doc(obs.registry),
    }


def case_obs_flight() -> dict:
    """Unrecoverable reads under faults, with the flight recorder, an SLO
    that pages and the sanitizer all attached."""
    slo = SloSpec.from_dict({
        "window_us": 500.0,
        "tenants": {"0": {"write_p95_us": 200.0}},
        "failed_read_budget": 0.01,
        "burn": {
            "fast": {"windows": 2, "warn_burn": 1.5, "page_burn": 3.0},
            "slow": {"windows": 6, "warn_burn": 1.0, "page_burn": 2.0},
        },
    })
    with tempfile.TemporaryDirectory() as tmp:
        obs = Observability(
            trace=TraceRecorder(capacity=200_000), attribution=True, slo=slo,
            flight_recorder=FlightRecorder(tmp),
        )
        sim = SSDSimulator(
            gc_device(), SPLIT_SETS, record_latencies=True, faults=faults(),
            obs=obs, sanitizer=Sanitizer(),
        )
        result = sim.run(mix(2_000, seed=10, footprint_pages=300))
        bundles = []
        for path in obs.flight_recorder.bundles:
            manifest = load_manifest(path)
            metrics = json.loads((path / "metrics.json").read_text())
            bundles.append([
                manifest["trigger"], manifest["detail"],
                repr(manifest["time_us"]), manifest["bundle_files"],
                canonical(metrics),
            ])
    triggers = {bundle[0] for bundle in bundles}
    assert result.failed_reads > 0 and "unrecoverable-read" in triggers
    assert "slo-page" in triggers
    return {
        "result": result_doc(result),
        "trace": trace_doc(obs.trace),
        "registry": registry_doc(obs.registry),
        "bundles": bundles,
    }


def case_sanitized() -> dict:
    sanitizer = Sanitizer()
    sim = SSDSimulator(
        gc_device(), SPLIT_SETS, record_latencies=True, faults=faults(),
        sanitizer=sanitizer,
    )
    result = sim.run(mix(2_000, seed=7, footprint_pages=300))
    stats = sanitizer.stats()
    assert result.gc_collections > 0 and stats["grants_checked"] > 0
    return {"result": result_doc(result), "grants": stats["grants_checked"]}


def case_keeper() -> dict:
    from repro.harness import driftlab
    from repro.workloads.adversarial import build_scenario

    workload = build_scenario(
        "migrating_hotspot", seed=0, phases=4, phase_us=driftlab._QUICK_PHASE_US
    )
    obs = Observability(trace=TraceRecorder(capacity=200_000))
    keeper = driftlab._lab_keeper(SSDConfig.small(), obs=obs)
    drift, retrain = driftlab.lab_configs()
    run = keeper.run_adaptive(workload.requests, drift=drift, retrain=retrain)
    return {
        "result": result_doc(run.result),
        "decisions": [[repr(t), s.label] for t, _, s in run.decisions],
        "realised": canonical(run.realised_us),
        "retrains": [e.to_dict() for e in run.retrain_events],
        "drift": [e.to_dict() for e in run.drift_events],
        "trace": trace_doc(obs.trace),
    }


def case_keeper_periodic() -> dict:
    """The plain periodic keeper (no detector, no limiter) with verified
    allocation, tracing and attribution."""
    from repro.harness import driftlab
    from repro.workloads.adversarial import build_scenario

    workload = build_scenario(
        "migrating_hotspot", seed=0, phases=4, phase_us=driftlab._QUICK_PHASE_US
    )
    obs = Observability(
        trace=TraceRecorder(capacity=200_000), attribution=True
    )
    keeper = driftlab._lab_keeper(SSDConfig.small(), obs=obs)
    run = keeper.run_periodic(workload.requests)
    assert obs.trace.evicted == 0 and run.suppressed_switches == 0
    return {
        "result": result_doc(run.result),
        "decisions": [[repr(t), s.label] for t, _, s in run.decisions],
        "realised": canonical(run.realised_us),
    }


def case_keeper_retrain() -> dict:
    """An adaptive keeper on a faulted device whose retraining labels use
    a wide indifference band: it retrains, promotes and rolls back."""
    from unittest import mock

    from repro.core import online
    from repro.core.keeper import SSDKeeper
    from repro.harness import driftlab
    from repro.workloads.adversarial import build_scenario

    workload = build_scenario(
        "migrating_hotspot", seed=7, phases=4,
        phase_us=1.5 * driftlab._QUICK_PHASE_US, hot_rate_factor=1.5,
    )
    keeper = SSDKeeper(
        driftlab.heuristic_allocator(), SSDConfig.small(),
        collect_window_us=10_000.0, intensity_quantum=50.0, verify_top_k=3,
        faults=faults(),
    )
    drift, retrain = driftlab.lab_configs()
    with mock.patch.object(online, "_TIE_EPSILON", 0.01):
        run = keeper.run_adaptive(workload.requests, drift=drift, retrain=retrain)
    assert run.promotions > 0 and run.rollbacks > 0
    return {
        "result": result_doc(run.result),
        "decisions": [[repr(t), s.label] for t, _, s in run.decisions],
        "retrains": [e.to_dict() for e in run.retrain_events],
    }


CASES = {
    "static": case_static,
    "dynamic": case_dynamic,
    "dynamic_gc_faults": case_dynamic_gc_faults,
    "gc_faults": case_gc_faults,
    "read_priority": case_read_priority,
    "buffer": case_buffer,
    "obs": case_obs,
    "obs_buffer": case_obs_buffer,
    "obs_flight": case_obs_flight,
    "sanitized": case_sanitized,
    "keeper": case_keeper,
    "keeper_periodic": case_keeper_periodic,
    "keeper_retrain": case_keeper_retrain,
}

DIGESTS = {
    "buffer": "1ed0cd7b5704eb94",
    "dynamic": "39a79abccb093334",
    "dynamic_gc_faults": "ce7a13f92c696334",
    "gc_faults": "bc1bc9df01121fd2",
    "keeper": "ba7befebf0d5c7d6",
    "keeper_periodic": "cde6addc6613460c",
    "keeper_retrain": "387bf90829d4e757",
    "obs": "0f7c42649d8a487a",
    "obs_buffer": "652ef4e6266d8d62",
    "obs_flight": "48252b49d3731983",
    "read_priority": "f47fbbbba12128c3",
    "sanitized": "1f2a2d03e422b8d6",
    "static": "55636344363bb082",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulated_outcome_is_pinned(name):
    assert digest(CASES[name]()) == DIGESTS[name]


def test_digest_sees_one_ulp():
    doc = {"result": {"makespan_us": repr(1.0)}}
    bumped = {"result": {"makespan_us": repr(math.nextafter(1.0, 2.0))}}
    assert digest(doc) != digest(bumped)
