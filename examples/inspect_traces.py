#!/usr/bin/env python3
"""Trace files end to end: generate, save, reload, analyze, simulate.

Shows the workflow a user with *real* block traces would follow:

1. produce trace files in the repository's format (here: the MSR stand-ins
   of Table II, written to a temp directory);
2. reload them and verify their statistics with :mod:`repro.workloads.stats`
   (the measured write ratios must match Table II);
3. merge them into a multi-tenant trace and run it through the simulator,
   printing the per-tenant latency breakdown and the device utilisation.

Run:  python examples/inspect_traces.py
"""

from pathlib import Path
import tempfile

from repro.harness import format_table
from repro.ssd import SSDConfig, SSDSimulator
from repro.workloads import analyze, generate, mix, msr, per_workload, traces


def main() -> None:
    config = SSDConfig.small()
    names = ["mds_0", "src_1", "web_2", "prxy_0"]
    specs = [
        msr.spec(n, rate_scale=800.0, footprint_pages=16_384) for n in names
    ]

    with tempfile.TemporaryDirectory() as tmp:
        # 1. write one trace file per tenant -----------------------------
        paths = []
        for wid, spec in enumerate(specs):
            reqs = generate(spec, 1500, workload_id=wid, seed=21 + wid)
            path = Path(tmp) / f"{spec.name}.trace"
            traces.dump(reqs, path)
            paths.append(path)
            print(f"wrote {path.name}: {path.stat().st_size / 1024:.0f} KiB")

        # 2. reload and verify statistics --------------------------------
        streams = [traces.load(p) for p in paths]
        rows = []
        for name, stream in zip(names, streams):
            stats = analyze(stream)
            rows.append([
                name,
                f"{msr.TABLE_II[name].write_ratio:.0%}",
                f"{stats.write_ratio:.1%}",
                f"{stats.rate_rps:,.0f}",
                f"{stats.mean_request_pages:.2f}",
                f"{stats.sequential_fraction:.0%}",
                f"{stats.arrival_cv:.2f}",
            ])
        print("\n" + format_table(
            ["trace", "Table II wr", "measured wr", "req/s", "pages/req",
             "sequential", "arrival CV"],
            rows,
            title="Reloaded trace statistics vs Table II",
        ))

    # 3. merge and simulate ----------------------------------------------
    mixed = mix(streams, specs, limit=4000, name="from-files")
    sim = SSDSimulator(config, {w: list(range(config.channels)) for w in range(4)})
    result = sim.run(list(mixed.requests))
    print(f"\nsimulation: {result.summary()}")

    tenant_rows = []
    tenant_stats = per_workload(mixed.requests)
    for wid, (reads, writes) in sorted(result.per_workload.items()):
        tenant_rows.append([
            names[wid],
            tenant_stats[wid].requests,
            f"{reads.mean_us:.0f}" if reads.count else "-",
            f"{writes.mean_us:.0f}" if writes.count else "-",
        ])
    print("\n" + format_table(
        ["tenant", "requests", "mean read (us)", "mean write (us)"],
        tenant_rows,
        title="Per-tenant latency under the Shared allocation",
    ))

    report = sim.utilization_report()
    busiest_channel = max(range(len(report["channels"])),
                          key=lambda c: report["channels"][c])
    print(f"\nbusiest channel: ch{busiest_channel} "
          f"({report['channels'][busiest_channel]:.0%} busy); "
          f"mean die utilisation "
          f"{sum(report['dies']) / len(report['dies']):.0%}")


if __name__ == "__main__":
    main()
