"""Benchmark of the SSDKeeper loop, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` repeats benchmark passes of the workload (see ``suite.py``)
for about ``S`` seconds with tracing off and prints the end-to-end metrics.
``--trace 1`` runs untraced and traced passes (and, for the observed
workload, a pass with observability off) and prints the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``
with the ``end_to_end`` or ``per_layer`` metrics named in ``BENCHMARK.json``.

Host times cover in-process program work only, measured after imports.
End-to-end host times are in reference seconds (see ``reference.py``):
measured seconds divided by the speed of a fixed kernel timed next to
them, so that the host's slow and fast spells cancel out.  Each case's
set-up and run count at their median over the passes made.  Per-layer
host times (``--trace 1``) are measured seconds.
``correct`` is false when a run's outputs fail their checks or when any
simulated value differs between passes, between the traced and untraced
passes, or (for values observability must not change) between the armed
and bare passes.  Every file the benchmark writes goes under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# One thread per process for numpy's BLAS/OpenMP pools; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Leave no bytecode caches behind: the benchmark writes only under out/.
sys.dont_write_bytecode = True

import reference  # noqa: E402  (after the bytecode switch)
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: passes a measurement makes at least, so every run repeats in-process
MIN_PASSES = 3

#: layers whose work happens in set-up; every other layer is timed in runs
SETUP_LAYERS = ("workloads", "core.features")
#: layers reported with ``<layer>.host_s``
HOST_LAYERS = tuple(dict.fromkeys(layer for layer, *_ in spans.TARGETS))


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


@dataclass
class Pass:
    """One benchmark pass: every case of the workload set up and run once.

    ``setup_s`` and ``run_s`` are reference seconds (see ``reference.py``).
    """

    setup_s: list[float] = field(default_factory=list)
    run_s: list[float] = field(default_factory=list)
    setup_measured_s: list[float] = field(default_factory=list)
    run_measured_s: list[float] = field(default_factory=list)
    requests: list[int] = field(default_factory=list)
    #: per run, the checks its outputs failed
    problems: list[list[str]] = field(default_factory=list)
    sim: dict = field(default_factory=dict)


def run_pass(workload, cases, *, armed: bool = True, recorder=None) -> Pass:
    result = Pass()
    outcomes = []
    for index, case in enumerate(cases):
        gc.collect()
        kernel_before = reference.kernel_s()
        root = _open_root(recorder, index, "setup")
        t0 = time.perf_counter()
        state = workload.setup(case, armed)
        t1 = time.perf_counter()
        _close_root(recorder, root)
        kernel_s = (kernel_before + reference.kernel_s()) / 2
        result.setup_s.append(reference.to_reference_s(t1 - t0, kernel_s))
        result.setup_measured_s.append(t1 - t0)
        root = _open_root(recorder, index, "run")
        watch = reference.Stopwatch(recorder)
        output = workload.run(state, watch.lap)
        watch.stop()
        _close_root(recorder, root)
        outcome, problems = workload.outcome(state, output)
        result.run_s.append(watch.reference_s)
        result.run_measured_s.append(watch.measured_s)
        result.requests.append(workload.input_requests(state))
        result.problems.append(problems)
        outcomes.append(outcome)
        del state, output
    result.sim = workload.sim_values(outcomes, sum(result.requests))
    return result


def _open_root(recorder, index: int, phase: str):
    if recorder is None:
        return None
    recorder.run_id = f"case{index}/{phase}"
    return recorder.begin("bench", phase)


def _close_root(recorder, root) -> None:
    if recorder is not None:
        recorder.end(root)


def _measure(seconds: float, make_pass, minimum: int) -> list:
    """Repeat ``make_pass`` while another one fits in about ``seconds``."""
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(make_pass())
        elapsed = time.perf_counter() - start
        if len(passes) >= minimum and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def _case_medians(per_pass: list[list[float]]) -> list[float]:
    """Per case, the median of its times over the passes."""
    return [statistics.median(times) for times in zip(*per_pass)]


def _sim_mismatches(reference_sim: dict, other: Pass, keys, label: str) -> list[str]:
    return [
        f"{label}: {key} {other.sim[key]!r} != {reference_sim[key]!r}"
        for key in keys if other.sim[key] != reference_sim[key]
    ]


def end_to_end(workload, cases, seconds: float) -> tuple[dict, list[Pass], list[str]]:
    import suite

    passes = _measure(seconds, lambda: run_pass(workload, cases), MIN_PASSES)
    first = passes[0].sim
    mismatches = []
    for n, p in enumerate(passes[1:], 2):
        mismatches += _sim_mismatches(first, p, suite.SIM_KEYS, f"pass {n}")
    setup_s = _case_medians([p.setup_s for p in passes])
    run_s = _case_medians([p.run_s for p in passes])
    values = {
        "setup_s": statistics.fmean(setup_s),
        "run_s": statistics.fmean(run_s),
        "requests_per_s": sum(passes[0].requests) / sum(run_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **first,
    }
    return values, passes, mismatches


def _scale(measured: list[float], converted: list[float]) -> float:
    """Reference seconds per measured second over a pass's phases."""
    return sum(converted) / sum(measured)


def _layer_values(recorder: spans.SpanRecorder, traced: Pass) -> dict:
    """Per-layer host times and call counts of one traced, calibrated pass.

    Span times are converted to reference seconds with the pass's own
    conversion, set-up and run apart.  The kernel's spans are left out of
    every layer and of the traced run time.
    """
    records = recorder.spans
    self_s = recorder.self_times()
    setup_scale = _scale(traced.setup_measured_s, traced.setup_s)
    run_scale = _scale(traced.run_measured_s, traced.run_s)
    host = dict.fromkeys(HOST_LAYERS, 0.0)
    by_func: dict[str, list[list]] = {}
    traced_run_s = unattributed_s = 0.0
    for span, own_s in zip(records, self_s):
        layer, phase = span[spans.LAYER], span[spans.RUN].rsplit("/", 1)[1]
        if layer == "bench":
            if phase != "run":
                continue
            duration = span[spans.END] - span[spans.START]
            if span[spans.FUNC] == reference.KERNEL_SPAN:
                traced_run_s -= duration
            else:
                traced_run_s += duration
                unattributed_s += own_s
        elif (phase == "setup") == (layer in SETUP_LAYERS):
            host[layer] += own_s * (setup_scale if phase == "setup" else run_scale)
            by_func.setdefault(span[spans.FUNC], []).append(span)

    def calls(*funcs) -> list[list]:
        return [span for f in funcs for span in by_func.get(f, [])]

    def outermost(*funcs) -> list[list]:
        """Calls not made from inside another span of the same layer."""
        return [
            span for span in calls(*funcs)
            if span[spans.PARENT] < 0
            or records[span[spans.PARENT]][spans.LAYER] != span[spans.LAYER]
        ]

    def counted(spans_) -> int:
        return sum(span[spans.COUNT] or 0 for span in spans_)

    mixes = outermost("synthesize_mix", "build_scenario")
    fast = calls("FastLatencyModel.run")
    sweeps = calls("sweep_strategies")
    fits = calls("Trainer.fit")
    decisions_us = [
        (span[spans.END] - span[spans.START]) * 1e6 * run_scale
        for span in outermost("ChannelAllocator.allocate", "verified_allocate")
    ]
    quartiles = (
        statistics.quantiles(decisions_us, n=4, method="inclusive")
        if len(decisions_us) > 1 else [0.0, 0.0, 0.0]
    )
    fast_requests = counted(fast)
    values = {f"{layer}.host_s": host[layer] for layer in HOST_LAYERS}
    values.update({
        "workloads.calls": len(mixes),
        "workloads.requests": counted(mixes),
        "core.features.calls": len(calls("features_of_mix")),
        "ssd.fastmodel.calls": len(fast),
        "ssd.fastmodel.requests": fast_requests,
        "ssd.fastmodel.requests_per_call": fast_requests / len(fast) if fast else 0.0,
        "ssd.fastmodel.requests_per_s": (
            fast_requests / host["ssd.fastmodel"] if fast else 0.0
        ),
        "core.labeler.sweeps": len(sweeps),
        "core.labeler.strategies_per_label": counted(sweeps) / len(sweeps) if sweeps else 0.0,
        "core.allocator.calls": len(decisions_us),
        "core.allocator.call_p50_us": quartiles[1],
        "core.allocator.call_p75_us": quartiles[2],
        "core.drift.updates": len(calls("DriftDetector.update")),
        "nn.train_calls": len(fits),
        "nn.iterations": counted(fits),
        "ssd.controller.place_write_calls": len(calls("FTLController.place_write")),
        "ssd.ftl.page_alloc.dynamic_place_calls": len(calls("DynamicPagePlacer.place")),
        "bench.traced_run_s": traced_run_s * run_scale,
        "bench.unattributed_s": unattributed_s * run_scale,
        "bench.spans": len(records),
    })
    return values


def per_layer(workload, cases, seconds: float) -> tuple[dict, list[Pass], list[str]]:
    import suite

    def one_round():
        untraced = run_pass(workload, cases)
        recorder = spans.SpanRecorder()
        restore = spans.install(recorder)
        try:
            traced = run_pass(workload, cases, recorder=recorder)
        finally:
            restore()
        bare = run_pass(workload, cases, armed=False) if workload.observed else None
        values = _layer_values(recorder, traced)
        values["bench.tracing_overhead_s"] = values["bench.traced_run_s"] - sum(untraced.run_s)
        values["obs.overhead_s"] = (
            sum(untraced.run_s) - sum(bare.run_s) if bare is not None else 0.0
        )
        return untraced, traced, bare, recorder, values

    rounds = _measure(seconds, one_round, 1)
    first = rounds[0][0].sim
    mismatches = []
    for n, (untraced, traced, bare, _, _) in enumerate(rounds, 1):
        mismatches += _sim_mismatches(first, untraced, suite.SIM_KEYS, f"round {n} untraced")
        mismatches += _sim_mismatches(first, traced, suite.SIM_KEYS, f"round {n} traced")
        if bare is not None:
            mismatches += _sim_mismatches(
                first, bare, suite.BEHAVIOUR_KEYS, f"round {n} bare"
            )
    # Report one whole round, the median one by traced run time, so its
    # self times and remainder still add up to its traced run time.
    chosen = sorted(rounds, key=lambda r: r[4]["bench.traced_run_s"])[(len(rounds) - 1) // 2]
    values = {**chosen[4], **first}
    events, requests = first["ssd.engine.events"], first["ssd.simulator.requests"]
    values["ssd.engine.events_per_request"] = events / requests if requests else 0.0
    values["ssd.engine.host_us_per_event"] = (
        values["ssd.engine.host_s"] / events * 1e6 if events else 0.0
    )
    OUT.mkdir(exist_ok=True)
    chosen[3].write_jsonl(OUT / f"{workload.name}-spans.jsonl")
    passes = [p for r in rounds for p in r[:3] if p is not None]
    return values, passes, mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    _import_program()
    import suite

    if args.workload not in suite.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(suite.WORKLOADS)})")
    workload = suite.WORKLOADS[args.workload]()
    cases = workload.cases(args.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    measure, table = (per_layer, "per_layer") if args.trace else (end_to_end, "end_to_end")
    values, passes, mismatches = measure(workload, cases, args.seconds)
    problems = [msg for p in passes for checks in p.problems for msg in checks] + mismatches
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": workload.name, "seed": args.seed,
                    "sim": passes[0].sim}, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(p.run_s) for p in passes),
        "failed": sum(bool(checks) for p in passes for checks in p.problems),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[table]
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
