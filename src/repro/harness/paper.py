"""The paper subcommands: ``info``, ``fig2`` ... ``ablations``, ``all``,
and the instrumented ``stats`` / ``faults`` runs.

Each experiment prints its regenerated table; expensive artifacts are
cached under ``.repro-cache`` exactly as in the benches.  ``stats`` runs
one fully-instrumented event-driven simulation and pretty-prints the
metrics registry (or dumps it as JSON); ``--trace`` / ``--chrome-trace``
export the structured event trace as JSONL and in Chrome trace format
(loadable in ``chrome://tracing`` or Perfetto).  ``--sanitize`` checks
invariants on every event, grant, mapping op and GC pass; ``--slo``
burn-rate alerts surface as ``slo.*`` counters, ``slo_alert`` events and
an alerts section in the ``--json`` output.  ``faults`` is the same run
with the seeded NAND fault model switched on (``--read-ber`` /
``--program-fail-rate`` / ...); the report includes the ``faults.*``
counters.  Every paper subcommand accepts the same flags.
"""

from __future__ import annotations

import argparse
import json
from typing import Callable

import numpy as np

from ..core.strategies import StrategySpace
from ..ssd.config import SSDConfig
from . import lab
from .ablations import (
    ablation_fastmodel,
    ablation_features,
    ablation_hybrid,
    ablation_model_size,
    ablation_scheduling,
)
from .experiments import (
    MIX_COMPOSITIONS,
    fig2_motivation,
    fig5_performance,
    fig6_strategy_map,
    labeler_config,
    tab2_workloads,
    tab5_allocations,
    train_all,
    trained_learner,
)
from .reporting import banner, format_metrics, format_series, format_table
from .scale import Scale

def _cmd_info(scale: Scale) -> str:
    config = SSDConfig.paper()
    space = StrategySpace(8, 4)
    lines = [
        banner("SSDKeeper reproduction"),
        config.describe(),
        space.describe(),
        f"scale: {scale.name} (dataset {scale.dataset_samples} mixes, "
        f"{scale.train_iterations} iterations, fig2 {scale.fig2_requests} "
        f"requests/point, mixes {scale.mix_requests} requests)",
        "mix compositions: "
        + "; ".join(f"{k}={'+'.join(v)}" for k, v in MIX_COMPOSITIONS.items()),
    ]
    return "\n".join(lines)


def _cmd_fig2(scale: Scale) -> str:
    data = fig2_motivation(scale)
    parts = []
    for key, title in (
        ("write_latency_us", "Figure 2(a): mean write latency (us)"),
        ("read_latency_us", "Figure 2(b): mean read latency (us)"),
        ("total_latency_us", "Figure 2(c): total (write+read) latency (us)"),
    ):
        parts.append(
            format_series(
                "write_prop",
                data["write_proportions"],
                {s: data[key][s] for s in data["strategies"]},
                title=title,
            )
        )
    return "\n\n".join(parts)


def _cmd_fig4(scale: Scale) -> str:
    data = train_all(scale)
    idx = np.linspace(
        0, scale.train_iterations - 1, min(12, scale.train_iterations)
    ).astype(int)
    loss = {
        name: [row["loss_curve"][i] for i in idx]
        for name, row in data["variants"].items()
    }
    acc = {
        name: [row["accuracy_curve"][i] for i in idx]
        for name, row in data["variants"].items()
    }
    return "\n\n".join(
        [
            format_series("iter", idx.tolist(), loss,
                          title="Figure 4(a): training loss"),
            format_series("iter", idx.tolist(), acc,
                          title="Figure 4(b): test accuracy"),
        ]
    )


def _cmd_tab3(scale: Scale) -> str:
    data = train_all(scale)
    return format_table(
        ["optimizer", "loss", "accuracy", "time (ms)"],
        [
            [n, f"{r['final_loss']:.2f}", f"{r['final_accuracy']:.1%}",
             f"{r['training_time_ms']:.0f}"]
            for n, r in data["variants"].items()
        ],
        title="Table III",
    )


def _cmd_tab2(scale: Scale) -> str:
    rows = tab2_workloads()
    return format_table(
        ["workload", "write ratio (paper)", "write ratio (measured)", "#requests (paper)"],
        [
            [n, f"{r['paper_write_ratio']:.0%}", f"{r['measured_write_ratio']:.1%}",
             f"{r['paper_request_count']:,}"]
            for n, r in sorted(rows.items())
        ],
        title="Table II",
    )


def _cmd_fig5(scale: Scale) -> str:
    data = fig5_performance(scale)
    rows = []
    for mix_name, entry in data["mixes"].items():
        for tag, vals in entry["rows"].items():
            rows.append([mix_name, tag, f"{vals['mean_write_us']:.0f}",
                         f"{vals['mean_read_us']:.0f}",
                         f"{vals['total_latency_s']:.3f}"])
    return format_table(
        ["mix", "allocation", "write us", "read us", "total (s)"],
        rows,
        title="Figure 5",
    )


def _cmd_tab5(scale: Scale) -> str:
    data = tab5_allocations(scale)
    return format_table(
        ["mix", "features", "allocation"],
        [[n, e["features"], e["strategy"]] for n, e in data.items()],
        title="Table V",
    )


def _cmd_fig6(scale: Scale) -> str:
    data = fig6_strategy_map(scale)
    from collections import Counter

    histogram = Counter(p["simplified"] for p in data["points"])
    rows = [[name, count] for name, count in histogram.most_common()]
    return format_table(
        ["strategy (simplified)", "decisions"],
        rows,
        title=f"Figure 6: {len(data['points'])} decisions",
    )


def _cmd_quality(scale: Scale) -> str:
    """Held-out regret evaluation of the deployed model."""
    from ..core.evaluation import evaluate_learner, holdout_samples
    from ..core.strategies import StrategySpace

    cfg = labeler_config()
    learner = trained_learner(scale)
    samples = holdout_samples(cfg, StrategySpace(), max(30, scale.fig6_samples // 4))
    return format_table(
        ["metric", "value"],
        evaluate_learner(learner, samples).rows(),
        title=f"model quality on {len(samples)} held-out mixes",
    )


def _cmd_ablations(scale: Scale) -> str:
    parts = [banner("ablations")]
    hybrid = ablation_hybrid(scale)
    parts.append(
        f"hybrid vs all-static mean gain: "
        f"{hybrid['hybrid_vs_static_mean_gain']:+.1%} (paper: +2.1%)"
    )
    fidelity = ablation_fastmodel(scale)
    parts.append(
        f"fast-model fidelity: spearman {fidelity['mean_spearman']:.3f}, "
        f"winner agreement {fidelity['winner_agreement']:.0%}, "
        f"cross regret {fidelity['mean_cross_regret']:.3f}"
    )
    widths = ablation_model_size(scale)
    parts.append(format_table(
        ["hidden", "accuracy"],
        [[w, f"{r['final_accuracy']:.1%}"] for w, r in sorted(widths.items(), key=lambda kv: int(kv[0]))],
        title="hidden-width ablation",
    ))
    feats = ablation_features(scale)
    parts.append(format_table(
        ["features", "accuracy"],
        [[n, f"{r['final_accuracy']:.1%}"] for n, r in feats.items()],
        title="feature-group ablation",
    ))
    sched = ablation_scheduling(scale)
    parts.append(
        f"read-priority scheduling: reads {sched['mean_read_speedup']:.2f}x "
        f"faster, writes {sched['mean_write_slowdown']:.2f}x slower vs FIFO"
    )
    return "\n\n".join(parts)


#: tenant ids the ``stats``/``faults`` run actually has (see
#: :func:`repro.harness.experiments.stats_run` — a fixed 4-workload mix)
_STATS_TENANTS = range(4)


def _cmd_stats(scale: Scale, args: argparse.Namespace, faults=None) -> str:
    """Run one instrumented simulation and report/export its observability."""
    from ..obs import Observability, SloSpec, SloSpecError
    from .experiments import stats_run

    interval_us = args.utilization_interval  # repro-lint: disable=R001 (--utilization-interval is documented as microseconds)
    slo_spec = None
    if args.slo:
        try:
            slo_spec = SloSpec.from_dict(
                lab.read_json(args.slo, what="SLO spec"),
                known_tenants=_STATS_TENANTS,
            )
        except SloSpecError as exc:
            raise lab.UsageError(f"cannot load SLO spec: {exc}") from None
    telemetry = args.telemetry_interval  # repro-lint: disable=R001 (--telemetry-interval is documented as microseconds)
    if telemetry is None and (args.telemetry_out or args.openmetrics):
        # an export was requested without an explicit interval: sample at
        # the SLO window (when given) or the utilization interval
        telemetry = slo_spec.window_us if slo_spec is not None else 500.0
    flight = None
    if args.flight_dir:
        from ..obs import FlightRecorder

        flight = FlightRecorder(
            args.flight_dir,
            context={"command": "faults" if faults is not None else "stats",
                     "scale": scale.name},
            replay_argv=["python", "-m", "repro", *args.argv],
        )
    obs = Observability(
        utilization_interval_us=interval_us if interval_us > 0 else None,
        attribution=True,
        telemetry=telemetry,
        slo=slo_spec,
        flight_recorder=flight,
    )
    sanitizer = None
    if args.sanitize:
        from ..analysis import Sanitizer

        sanitizer = Sanitizer()
    result = stats_run(scale, obs=obs, faults=faults, sanitizer=sanitizer)
    notes: list[str] = []
    if sanitizer is not None:
        checks = ", ".join(f"{k} {v}" for k, v in sanitizer.stats().items())
        notes.append(f"sanitizer: all invariants held ({checks})")
    if args.trace:
        written = obs.trace.write_jsonl(args.trace)
        notes.append(f"wrote {written} trace events to {args.trace}")
    if args.chrome_trace:
        written = obs.write_chrome_trace(args.chrome_trace)
        notes.append(f"wrote chrome trace ({written} records) to {args.chrome_trace}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(obs.export(), fh, indent=2)
        notes.append(f"wrote metrics to {args.metrics_out}")
    if args.telemetry_out:
        windows = obs.telemetry.write_jsonl(args.telemetry_out)
        notes.append(
            f"wrote {windows} telemetry windows to {args.telemetry_out}"
        )
    if args.openmetrics:
        with open(args.openmetrics, "w", encoding="utf-8") as fh:
            fh.write(obs.registry.to_openmetrics())
        notes.append(f"wrote OpenMetrics exposition to {args.openmetrics}")
    if obs.slo is not None:
        rollup = obs.slo.summary()
        notes.append(
            f"slo: {rollup['windows']} windows evaluated, "
            f"{rollup['warn_alerts']} warn / {rollup['page_alerts']} page "
            f"alerts"
        )
    if obs.flight_recorder is not None and obs.flight_recorder.bundles:
        for bundle in obs.flight_recorder.bundles:
            notes.append(f"flight-recorder bundle: {bundle}")
    if args.json:
        payload = obs.export()
        if result.alerts is not None:
            payload["alerts"] = result.alerts
        body = json.dumps(payload, indent=2)
    else:
        body = result.summary() + "\n\n" + format_metrics(obs.registry.snapshot())
        if result.breakdown is not None:
            body += "\n\n" + result.breakdown.format()
    return "\n".join([*notes, "", body]) if notes else body


def _cmd_faults(scale: Scale, args: argparse.Namespace) -> str:
    """The ``stats`` run with the seeded NAND fault model switched on."""
    from ..ssd.faults import FaultConfig

    try:
        faults = FaultConfig(
            seed=args.fault_seed,
            read_ber=args.read_ber,
            program_fail_rate=args.program_fail_rate,
            erase_fail_rate=args.erase_fail_rate,
            max_read_retries=args.max_read_retries,
            wear_coupling=args.wear_coupling,
        )
    except ValueError as exc:
        raise lab.UsageError(str(exc)) from None
    return _cmd_stats(scale, args, faults=faults)


#: the instrumented runs read the parsed flags; ``all`` skips them
_INSTRUMENTED = {"stats": _cmd_stats, "faults": _cmd_faults}

_COMMANDS: dict[str, Callable[[Scale], str]] = {
    "info": _cmd_info,
    "fig2": _cmd_fig2,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "tab2": _cmd_tab2,
    "tab3": _cmd_tab3,
    "tab5": _cmd_tab5,
    "quality": _cmd_quality,
    "ablations": _cmd_ablations,
}




def add_arguments(parser) -> None:
    parser.add_argument(
        "--scale",
        choices=["smoke", "default", "paper"],
        help="experiment scale (default: $REPRO_SCALE or 'default')",
    )
    obs_group = parser.add_argument_group("observability (stats command)")
    obs_group.add_argument(
        "--trace",
        metavar="PATH",
        help="export the structured event trace as JSONL",
    )
    lab.add_shared(obs_group, "--chrome-trace")
    obs_group.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the full metrics/utilization export as JSON",
    )
    obs_group.add_argument(
        "--utilization-interval",
        metavar="US",
        type=float,
        default=500.0,
        help="per-channel/die utilization sampling interval in simulated "
        "microseconds (0 disables; default 500)",
    )
    obs_group.add_argument(
        "--telemetry-out",
        metavar="PATH",
        help="stream delta-encoded telemetry windows to PATH as "
        "schema-versioned JSONL (enables telemetry sampling)",
    )
    obs_group.add_argument(
        "--telemetry-interval",
        metavar="US",
        type=float,
        help="telemetry window length in simulated microseconds (default: "
        "the SLO spec's window_us, else 500)",
    )
    lab.add_shared(obs_group, "--slo")
    obs_group.add_argument(
        "--openmetrics",
        metavar="PATH",
        help="write the final registry as OpenMetrics text exposition",
    )
    lab.add_shared(obs_group, "--flight-dir", "--json", "--sanitize")
    fault_group = parser.add_argument_group("fault injection (faults command)")
    fault_group.add_argument(
        "--fault-seed",
        type=int,
        default=1234,
        metavar="N",
        help="fault-model RNG seed; same seed + trace => identical run "
        "(default 1234)",
    )
    fault_group.add_argument(
        "--read-ber",
        type=float,
        default=0.01,
        metavar="P",
        help="probability a read attempt needs an ECC retry (default 0.01)",
    )
    fault_group.add_argument(
        "--program-fail-rate",
        type=float,
        default=0.0005,
        metavar="P",
        help="probability one page program fails and retires its block "
        "(default 0.0005)",
    )
    fault_group.add_argument(
        "--erase-fail-rate",
        type=float,
        default=0.0005,
        metavar="P",
        help="probability one block erase fails and retires the block "
        "(default 0.0005)",
    )
    fault_group.add_argument(
        "--max-read-retries",
        type=int,
        default=3,
        metavar="N",
        help="ECC retries before a read is declared unrecoverable (default 3)",
    )
    fault_group.add_argument(
        "--wear-coupling",
        type=float,
        default=0.0,
        metavar="K",
        help="linear wear escalation: rate *= 1 + K * block erase count "
        "(default 0)",
    )


def run(args) -> int:
    """Regenerate ``args.command`` (``all``: every table and figure)."""
    if args.utilization_interval < 0:
        raise lab.UsageError("--utilization-interval must be >= 0 (0 disables)")
    if args.telemetry_interval is not None and args.telemetry_interval <= 0:
        raise lab.UsageError("--telemetry-interval must be > 0")
    # Fail fast on unwritable export paths: the simulation itself can take
    # minutes at larger scales, so probe before running (append mode leaves
    # any existing export intact if a later step dies).
    for path in (args.trace, args.chrome_trace, args.metrics_out,
                 args.telemetry_out, args.openmetrics):
        if path:
            with lab.writing(path), open(path, "a"):
                pass
    scale = Scale.from_name(args.scale) if args.scale else Scale.from_env("default")

    names = list(_COMMANDS) if args.command == "all" else [args.command]
    for name in names:
        print(banner(name))
        if name in _INSTRUMENTED:
            print(_INSTRUMENTED[name](scale, args))
        else:
            print(_COMMANDS[name](scale))
        print()
    return 0
