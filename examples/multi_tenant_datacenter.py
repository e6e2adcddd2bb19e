#!/usr/bin/env python3
"""Full SSDKeeper lifecycle: train offline, deploy, adapt online.

The datacenter scenario from the paper's introduction: four tenants with
different access patterns land on one SSD.  This example runs the whole
SSDKeeper pipeline —

1. **Algorithm 1**: generate synthetic mixed workloads, label each with the
   channel allocation that minimises total latency (sweeping all 42
   strategies per workload), and train the 9-64-42 network;
2. **deployment**: serialise the model (the parameter blob the paper sends
   to the FTL) and reload it;
3. **Algorithm 2**: run a four-tenant MSR-style mix against the device —
   the keeper collects features for the observation window, asks the model,
   and switches the live FTL to the chosen allocation + hybrid page modes;
4. compare against the Shared and Isolated baselines.

Run:  python examples/multi_tenant_datacenter.py          (a few minutes)
      REPRO_QUICK=1 python examples/multi_tenant_datacenter.py   (smaller)
"""

import os
from pathlib import Path
import tempfile
import time

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
from repro.workloads import mixer, msr, synthetic


def main() -> None:
    quick = bool(os.environ.get("REPRO_QUICK"))
    n_samples = 60 if quick else 400
    cfg = LabelerConfig()
    space = StrategySpace(cfg.ssd.channels, cfg.n_tenants)
    print(f"device: {cfg.ssd.describe()}")
    print(f"strategy space: {space.describe()}\n")

    # --- Algorithm 1: label + train -----------------------------------
    t0 = time.perf_counter()
    print(f"labelling {n_samples} synthetic mixed workloads "
          f"({len(space)} strategy sweeps each)...")
    dataset = generate_dataset(n_samples, cfg, seed=1)
    learner = StrategyLearner(space, activation="logistic", seed=0)
    history = learner.train(dataset, optimizer="adam",
                            iterations=60 if quick else 200, seed=0)
    print(f"trained in {time.perf_counter() - t0:.0f}s: "
          f"loss {history.final_loss:.3f}, "
          f"held-out accuracy {history.final_accuracy:.1%}")

    # --- ship the parameters to the "FTL" ------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        blob = Path(tmp) / "ftl_parameters.json"
        learner.save(blob)
        deployed = StrategyLearner.load(blob)
        print(f"parameter blob: {blob.stat().st_size / 1024:.1f} KiB "
              f"(paper's estimate for the net itself: "
              f"{deployed.network.storage_bytes()} B)\n")

    allocator = ChannelAllocator(deployed)

    # --- Algorithm 2: adapt online on an MSR-style mix -----------------
    names = ["prxy_0", "src_1", "rsrch_0", "mds_1"]  # the paper's Mix2
    specs = [msr.spec(n, rate_scale=530.0, footprint_pages=cfg.footprint_pages)
             for n in names]
    total_rate = sum(s.rate_rps for s in specs)
    # Keep the trace several collection windows long so the Algorithm-2
    # switch actually governs most of the run.
    n_requests = 4_000 if quick else 10_000
    streams = [
        synthetic.generate(
            s, max(1, int(n_requests * s.rate_rps / total_rate * 1.2)),
            workload_id=i, seed=10 + i,
        )
        for i, s in enumerate(specs)
    ]
    mixed = mixer.mix(streams, specs, limit=n_requests, name="Mix2")
    print(f"online mix: {', '.join(names)} "
          f"({len(mixed.requests)} requests, {mixed.write_fraction():.0%} writes)")

    keeper = SSDKeeper(
        allocator,
        cfg.ssd,
        collect_window_us=cfg.window_s * 1e6,
        intensity_quantum=cfg.intensity_quantum,
        page_policy=PagePolicy.HYBRID,
    )
    run = keeper.run(list(mixed.requests))
    print(f"observed features: {run.features}")
    print(f"chosen allocation: {run.strategy} "
          f"(switched at t={run.decisions[0][0] / 1e3:.1f} ms)\n")

    # --- baselines ------------------------------------------------------
    rows = [["SSDKeeper+hybrid", run.strategy.label if run.strategy else "Shared",
             f"{run.result.mean_write_us:.0f}", f"{run.result.mean_read_us:.0f}",
             f"{run.result.total_latency_us / 1e6:.3f}"]]
    for label, strategy in (("Shared", space.shared), ("Isolated", space.isolated)):
        result = keeper.baseline_run(list(mixed.requests), strategy, run.features)
        rows.append([label, strategy.label, f"{result.mean_write_us:.0f}",
                     f"{result.mean_read_us:.0f}",
                     f"{result.total_latency_us / 1e6:.3f}"])
    print(format_table(
        ["policy", "allocation", "write us", "read us", "total (s)"],
        rows,
        title="Four tenants on one SSD",
    ))
    shared_total = float(rows[1][4])
    keeper_total = float(rows[0][4])
    print(f"\nSSDKeeper vs Shared: {1 - keeper_total / shared_total:+.1%}")


if __name__ == "__main__":
    main()
