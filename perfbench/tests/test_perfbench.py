"""Tests of the benchmark itself: output contract, layer splits, determinism.

Each workload runs once untraced and once traced (``--seconds 1``, three
passes or one round), shared by the tests below; the whole file takes a
few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
OUT = BENCH / "out"
SEED = 7
WORKLOADS = ("offline_label", "online_adaptive", "device_gc_faults")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def _bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _no_duplicate_keys(pairs):
    keys = [k for k, _ in pairs]
    assert len(keys) == len(set(keys)), f"duplicate keys in {keys}"
    return dict(pairs)


_RUNS: dict = {}


def result(workload: str, trace: int) -> dict:
    """Parsed last stdout line of one benchmark run (cached per session)."""
    key = (workload, trace)
    if key not in _RUNS:
        proc = _bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        _RUNS[key] = json.loads(
            proc.stdout.strip().splitlines()[-1], object_pairs_hook=_no_duplicate_keys
        )
    return _RUNS[key]


def metric(workload: str, trace: int, name: str):
    return result(workload, trace)["metrics"][name]["value"]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_once_with_its_unit(workload, trace):
    out = result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in out["metrics"].items()
    }
    for name, m in out["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_layer_splits_follow_the_predictions():
    assert metric("device_gc_faults", 1, "ssd.fastmodel.calls") == 0
    assert metric("device_gc_faults", 1, "core.keeper.windows") == 0
    assert metric("device_gc_faults", 1, "ssd.ftl.gc.pages_moved") > 0
    assert metric("device_gc_faults", 1, "ssd.faults.read_retries") > 0
    assert metric("offline_label", 1, "ssd.engine.events") == 0
    assert metric("offline_label", 1, "ssd.fastmodel.requests_per_call") == 1575
    assert metric("online_adaptive", 1, "ssd.fastmodel.calls") > 0
    assert metric("online_adaptive", 1, "ssd.engine.events") > 0
    assert metric("online_adaptive", 1, "ssd.ftl.page_alloc.dynamic_place_calls") > 0
    assert metric("online_adaptive", 1, "nn.train_calls") > 0
    for workload in WORKLOADS:
        traced = metric(workload, 1, "obs.trace_events")
        assert (traced > 0) == (workload == "online_adaptive"), workload


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_and_remainder_sum_to_the_traced_run(workload):
    import run

    values = {k: v["value"] for k, v in result(workload, 1)["metrics"].items()}
    run_layers = [l for l in run.HOST_LAYERS if l not in run.SETUP_LAYERS]
    attributed = sum(values[f"{layer}.host_s"] for layer in run_layers)
    assert attributed + values["bench.unattributed_s"] == pytest.approx(
        values["bench.traced_run_s"], rel=1e-9
    )
    # the written spans (one round at --seconds 1) tell the same story
    lines = (OUT / f"{workload}-spans.jsonl").read_text().splitlines()
    fields = json.loads(lines[0])
    spans = [dict(zip(fields, json.loads(line))) for line in lines[1:]]
    assert all(s["parent"] >= 0 or s["layer"] == "bench" for s in spans)
    durations = [s["end_s"] - s["start_s"] for s in spans]
    self_s = list(durations)
    for s, d in zip(spans, durations):
        if s["parent"] >= 0:
            self_s[s["parent"]] -= d
    in_runs = [i for i, s in enumerate(spans) if s["run"].endswith("/run")]
    kernels = {i for i in in_runs if spans[i]["func"] == "reference_kernel"}
    roots_s = sum(durations[i] for i in in_runs if spans[i]["parent"] < 0)
    program_s = roots_s - sum(durations[i] for i in kernels)
    assert sum(self_s[i] for i in in_runs if i not in kernels) == pytest.approx(
        program_s, rel=1e-9
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_simulated_values_repeat_across_processes(workload):
    result(workload, 0)
    result(workload, 1)
    runs = [
        json.loads((OUT / f"{workload}-seed{SEED}-trace{t}.json").read_text())
        for t in (0, 1)
    ]
    assert runs[0]["sim"] == runs[1]["sim"]
    assert runs[0]["sim"]["sim_mean_read_us"] > 0


def test_a_run_leaves_git_status_unchanged():
    git = shutil.which("git")
    if git is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")

    def status() -> str:
        return subprocess.run(
            [git, "status", "--porcelain", "--untracked-files=all"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout

    before = status()
    assert _bench("device_gc_faults", 0).returncode == 0
    assert status() == before


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = _bench("device_gc_faults", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _plain_run(workload: str, bench, state):
    """A case's run through the program's own calls, with no laps."""
    from repro.core import labeler
    from repro.core.strategies import StrategySpace
    from repro.harness import driftlab

    if workload == "offline_label":
        cfg = bench.config
        space = StrategySpace(cfg.ssd.channels, cfg.n_tenants)
        return [
            [labeler.objective_us(r, cfg.objective) for r in
             labeler.sweep_strategies(trace, state["features"], space, cfg)]
            for trace in state["traces"]
        ]
    if workload == "online_adaptive":
        drift, retrain = driftlab.lab_configs()
        return state["keeper"].run_adaptive(
            state["requests"], drift=drift, retrain=retrain
        )
    return state["sim"].run(state["requests"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_step_timing_leaves_the_simulation_unchanged(workload):
    """The lapped run simulates exactly what the plain program calls do."""
    import suite
    from repro.core import labeler

    bench = suite.WORKLOADS[workload]()
    case = bench.cases(SEED)[0]
    laps = []
    lapped = bench.setup(case)
    output = bench.run(lapped, lambda: laps.append(1))
    state = bench.setup(case)
    plain = _plain_run(workload, bench, state)
    assert len(laps) > 10
    if workload == "offline_label":
        objective = bench.config.objective
        assert [
            [labeler.objective_us(r, objective) for r in sweep] for sweep in output[0]
        ] == plain
    else:
        lapped_out, _ = bench.outcome(lapped, output)
        plain_out, _ = bench.outcome(state, plain)
        assert bench.digest([lapped_out], 1) == bench.digest([plain_out], 1)


def _busy(seconds: float) -> None:
    import time

    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_stopwatch_leaves_the_kernel_out_of_program_time():
    import time

    import reference
    import spans

    recorder = spans.SpanRecorder()
    start = time.perf_counter()
    watch = reference.Stopwatch(recorder)
    for _ in range(6):
        _busy(0.01)
        watch.lap()
    watch.stop()
    elapsed = time.perf_counter() - start
    kernels = [s for s in recorder.spans if s[spans.FUNC] == reference.KERNEL_SPAN]
    # a segment closes every >= 30 ms and at stop, each before a kernel run
    assert 2 <= len(kernels) <= 3
    kernel_s = sum(s[spans.END] - s[spans.START] for s in kernels)
    assert 0.06 <= watch.measured_s <= elapsed - kernel_s
    assert watch.reference_s > 0


def _device_run(footprint_pages: int, faults: bool):
    from suite import DeviceGCFaults
    from repro.ssd.config import SSDConfig
    from repro.ssd.faults import FaultConfig
    from repro.ssd.simulator import SSDSimulator
    from repro.workloads.mixer import synthesize_mix

    requests = synthesize_mix(
        DeviceGCFaults.specs(footprint_pages), total_requests=40_000, seed=404
    ).requests
    sim = SSDSimulator(
        SSDConfig(blocks_per_plane=24, pages_per_block=16),
        DeviceGCFaults.CHANNEL_SETS,
        faults=FaultConfig(
            seed=17, read_ber=0.05, program_fail_rate=0.002, erase_fail_rate=0.01
        ) if faults else None,
    )
    return requests, sim.run(requests)


@pytest.mark.xfail(
    raises=RuntimeError, strict=True,
    reason="known defect: with faults on, GC on a 24-block plane runs out of "
    "space instead of counting failed writes",
)
def test_faulted_gc_device_completes_at_2500_pages():
    requests, result = _device_run(2_500, faults=True)
    assert result.requests == len(requests)


def test_same_trace_without_faults_completes_at_3000_pages():
    requests, result = _device_run(3_000, faults=False)
    assert result.requests == len(requests)
    assert result.gc_pages_moved > 0
