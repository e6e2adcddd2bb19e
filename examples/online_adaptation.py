#!/usr/bin/env python3
"""Algorithm 2 under a workload phase change.

Shows *why* channel allocation must be self-adapting: the tenant mix flips
mid-trace from read-dominated to write-dominated.  Any single fixed
allocation is wrong for one of the two phases; SSDKeeper re-collects
features each window and re-allocates.

The example runs two observation/adaptation cycles by replaying Algorithm 2
on each phase, then compares against the strategies a static operator might
have locked in.

Run:  python examples/online_adaptation.py
      REPRO_QUICK=1 python examples/online_adaptation.py   (smaller)
"""

import os

from repro.core import (
    ChannelAllocator,
    LabelerConfig,
    PagePolicy,
    SSDKeeper,
    StrategyLearner,
    StrategySpace,
    generate_dataset,
)
from repro.harness import format_table
from repro.workloads import WorkloadSpec, synthesize_mix


def make_phase(write_heavy: bool, cfg, total, seed, start_us=0.0):
    """Four tenants; the dominant traffic flips with the phase."""
    specs = []
    for i in range(4):
        if write_heavy:
            ratio = 1.0 if i < 3 else 0.0
            rate = 13_000 if i < 3 else 3_000
        else:
            ratio = 1.0 if i == 0 else 0.0
            rate = 3_000 if i == 0 else 13_000
        specs.append(WorkloadSpec(
            name=f"tenant{i}", write_ratio=ratio, rate_rps=rate,
            footprint_pages=cfg.footprint_pages,
        ))
    mixed = synthesize_mix(specs, total_requests=total, seed=seed)
    for r in mixed.requests:
        r.arrival_us += start_us
    return mixed


def main() -> None:
    quick = bool(os.environ.get("REPRO_QUICK"))
    cfg = LabelerConfig()
    space = StrategySpace(cfg.ssd.channels, cfg.n_tenants)

    # Borrow the bench-quality model when the harness cache has one;
    # otherwise train a small model on the spot.
    from repro.harness import Scale, cached_learner_or_none

    learner = cached_learner_or_none(Scale.default())
    if learner is not None:
        print("using the cached bench-quality strategy learner\n")
    else:
        n_samples = 50 if quick else 250
        print(f"training the strategy learner (Algorithm 1, {n_samples} mixes)...")
        dataset = generate_dataset(n_samples, cfg, seed=3)
        learner = StrategyLearner(space, activation="logistic", seed=0)
        history = learner.train(
            dataset, optimizer="adam", iterations=60 if quick else 150, seed=0
        )
        print(f"held-out accuracy: {history.final_accuracy:.1%}\n")

    # Each phase must span several 50 ms collection windows at the phases'
    # ~42k req/s merged rate, or the adaptive switch has nothing to govern.
    per_phase = 4000 if quick else 6000
    phase_a = make_phase(write_heavy=False, cfg=cfg, total=per_phase, seed=1)
    phase_b = make_phase(write_heavy=True, cfg=cfg, total=per_phase, seed=2)

    def adaptive(phase):
        keeper = SSDKeeper(
            ChannelAllocator(learner), cfg.ssd,
            collect_window_us=cfg.window_s * 1e6,
            intensity_quantum=cfg.intensity_quantum,
            page_policy=PagePolicy.HYBRID,
        )
        return keeper.run(list(phase.requests))

    run_a = adaptive(phase_a)
    run_b = adaptive(phase_b)
    print(f"phase A (read-heavy):  features {run_a.features} -> {run_a.strategy}")
    print(f"phase B (write-heavy): features {run_b.features} -> {run_b.strategy}\n")

    # What a static operator would have suffered: lock phase A's choice in
    # for phase B, and vice versa.
    keeper = SSDKeeper(
        ChannelAllocator(learner), cfg.ssd,
        collect_window_us=cfg.window_s * 1e6,
        intensity_quantum=cfg.intensity_quantum,
    )
    rows = []
    for phase_name, phase, own, other in (
        ("A (read-heavy)", phase_a, run_a, run_b),
        ("B (write-heavy)", phase_b, run_b, run_a),
    ):
        adaptive_total = own.result.total_latency_us / 1e6
        stale = keeper.baseline_run(
            list(phase.requests), other.strategy or space.shared, own.features
        ).total_latency_us / 1e6
        shared = keeper.baseline_run(
            list(phase.requests), space.shared, own.features
        ).total_latency_us / 1e6
        rows.append([
            phase_name,
            own.strategy.label if own.strategy else "Shared",
            f"{adaptive_total:.3f}",
            f"{stale:.3f}",
            f"{shared:.3f}",
        ])
    print(format_table(
        ["phase", "adapted to", "adaptive (s)", "stale choice (s)", "Shared (s)"],
        rows,
        title="Adapting vs locking in yesterday's allocation",
    ))

    stale_penalties = [float(r[3]) / float(r[2]) for r in rows]
    print(f"\nlocking in the wrong phase's allocation costs up to "
          f"{max(stale_penalties):.2f}x")

    # --- extension: adaptation at every window over the concatenated trace ---
    # The paper's Algorithm 2 decides once; run_adaptive re-collects and
    # re-decides every window, following the phase change automatically,
    # with drift detection, guarded retraining and a switch-rate limiter.
    offset = phase_a.requests[-1].arrival_us + 1_000.0
    for r in phase_b.requests:
        r.arrival_us += offset
    combined = phase_a.requests + phase_b.requests
    periodic_keeper = SSDKeeper(
        ChannelAllocator(learner), cfg.ssd,
        collect_window_us=cfg.window_s * 1e6,
        intensity_quantum=cfg.intensity_quantum,
        page_policy=PagePolicy.HYBRID,
    )
    periodic = periodic_keeper.run_adaptive(combined)
    used = dict.fromkeys(strategy.label for _, _, strategy in periodic.decisions)
    print(f"\nadaptation every window: {len(periodic.decisions)} window decisions, "
          f"strategies used: {', '.join(used)}, {periodic.retrains} retrains")
    print(f"adaptive total latency: {periodic.result.total_latency_us / 1e6:.3f}s")


if __name__ == "__main__":
    main()
