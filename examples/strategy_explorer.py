#!/usr/bin/env python3
"""Explore the full 42-strategy space for a custom tenant mix.

Answers the operator question "what would each allocation cost for *my*
tenants?" without training anything: describe the tenants, sweep every
channel-allocation strategy with the fast model, confirm the podium with
the exact event-driven engine, and print the ranking.

Edit ``TENANTS`` below (or use this file as a template) to model your own
datacenter node.

Run:  python examples/strategy_explorer.py
"""

from repro.core import StrategySpace, WindowReplay
from repro.core.features import features_of_mix
from repro.core.hybrid import PagePolicy, page_modes_for
from repro.harness import format_table
from repro.ssd import SSDConfig, simulate
from repro.workloads import WorkloadSpec, clone, synthesize_mix

#: Describe your tenants here.
TENANTS = [
    WorkloadSpec(name="oltp-log", write_ratio=0.95, rate_rps=16_000,
                 mean_request_pages=1.0, sequential_fraction=0.7,
                 footprint_pages=16_384),
    WorkloadSpec(name="analytics", write_ratio=0.02, rate_rps=18_000,
                 mean_request_pages=4.0, sequential_fraction=0.8,
                 footprint_pages=60_000),
    WorkloadSpec(name="kv-cache", write_ratio=0.55, rate_rps=8_000,
                 mean_request_pages=1.0, skew=1.8, footprint_pages=8_192),
    WorkloadSpec(name="backup", write_ratio=1.0, rate_rps=5_000,
                 mean_request_pages=8.0, sequential_fraction=0.95,
                 footprint_pages=60_000),
]


def main() -> None:
    config = SSDConfig.small()
    space = StrategySpace(config.channels, len(TENANTS))
    mixed = synthesize_mix(TENANTS, total_requests=3_000, seed=11)
    features = features_of_mix(mixed, intensity_quantum=150.0)
    print(config.describe())
    print(f"mix features: {features}")
    for spec in TENANTS:
        print(f"  {spec.describe()}")
    print(f"\nsweeping {len(space)} strategies with the fast model...")

    # one fast model for the mix, run once per strategy
    replay = WindowReplay(mixed.requests, features, config, page_policy=PagePolicy.HYBRID)
    ranking = sorted(
        ((s, replay.cost_us(s), replay.result(s)) for s in space),
        key=lambda row: row[1],
    )

    rows = []
    for rank, (strategy, cost, result) in enumerate(ranking[:8], start=1):
        rows.append([
            rank,
            strategy.label,
            f"{result.mean_write_us:.0f}",
            f"{result.mean_read_us:.0f}",
            f"{cost:.0f}",
        ])
    worst = ranking[-1]
    rows.append(["...", worst[0].label + "  (worst)",
                 f"{worst[2].mean_write_us:.0f}",
                 f"{worst[2].mean_read_us:.0f}", f"{worst[1]:.0f}"])
    print("\n" + format_table(
        ["rank", "allocation", "write us", "read us", "write+read us"],
        rows,
        title="Fast-model ranking (top 8 of 42)",
    ))

    print("\nconfirming the podium with the exact event-driven engine...")
    write_dominated = features.write_dominated()
    page_modes = page_modes_for(PagePolicy.HYBRID, features)
    rows = []
    for strategy, _, _ in ranking[:3]:
        sets = strategy.channel_sets(config.channels, write_dominated)
        result = simulate(clone(mixed.requests), config, sets, page_modes)
        rows.append([
            strategy.label,
            f"{result.mean_write_us:.0f}",
            f"{result.mean_read_us:.0f}",
            f"{result.mean_write_us + result.mean_read_us:.0f}",
            f"{result.gc_collections}",
        ])
    print(format_table(
        ["allocation", "write us", "read us", "write+read us", "GC"],
        rows,
        title="Event-driven confirmation (top 3)",
    ))
    best = ranking[0][0]
    print(f"\nrecommended allocation for this mix: {best.label}")
    print("per-tenant channel sets:",
          best.channel_sets(config.channels, write_dominated))


if __name__ == "__main__":
    main()
