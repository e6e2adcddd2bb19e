"""``repro fleet`` — seeded multi-device scenario with fleet observability.

Builds N :class:`~repro.ssd.simulator.SSDSimulator` devices under one
:class:`~repro.ssd.fleet.Fleet` (composed event loop, seeded tenant
placement), runs M tenants' synthesized traces through them with an
optional forced migration mid-run, and attaches the fleet observability
plane (:mod:`repro.obs.fleet`): per-device metrics/telemetry/SLO bundles
federate into fleet rollups, migrations surface as ``tenant_migration``
trace spans, and per-device burn rates aggregate into fleet-level SLO
alerting with flight-recorder bundles naming the offending device.

Everything is seeded and simulated-time only, so two invocations with
the same arguments produce **byte-identical** ``fleet_report.json``
documents (the determinism contract the tests and the CI ``fleet-smoke``
job pin down).

Usage::

    python -m repro fleet --devices 3 --tenants 6 --seed 7
    python -m repro fleet --quick --migrate 0:1:10000 --json
    python -m repro fleet --slo-tight --out fleet_report.json \
        --chrome-trace fleet.chrome.json --flight-dir flight/
"""

from __future__ import annotations

import argparse

from ..workloads.scenarios import FULL_REQUESTS, QUICK_REQUESTS
from . import lab

__all__ = [
    "build_fleet_scenario",
    "default_migration",
    "run_fleet",
]

#: telemetry window length (simulated us) when an SLO spec does not set one
_DEFAULT_WINDOW_US = 500.0

#: fraction of the trace span at which the default migration fires
_DEFAULT_MIGRATE_FRACTION = 0.25


def _tight_slo_dict(tenants) -> dict:
    """Built-in near-unsatisfiable spec: guarantees a deterministic fleet
    page on any non-trivial run (the CI smoke asserts exactly that)."""
    from ..obs.slo import SLO_SCHEMA

    return SLO_SCHEMA.stamp(
        window_us=_DEFAULT_WINDOW_US,
        tenants={
            str(t): {"read_p95_us": 50.0, "write_p95_us": 50.0}
            for t in sorted(tenants)
        },
        failed_read_budget=0.001,
    )


def build_fleet_scenario(
    *, n_devices: int, n_tenants: int, total_requests: int, seed: int
):
    """Synthesize the seeded scenario: per-tenant traces + device configs.

    Tenants alternate write-heavy / read-heavy profiles; every device is
    an :meth:`SSDConfig.small` instance whose channel sets admit every
    tenant (a migrated tenant must be runnable anywhere).  Returns
    ``(tenant_traces, config, channel_sets)``.
    """
    from ..ssd.config import SSDConfig
    from ..workloads.mixer import synthesize_mix
    from ..workloads.spec import WorkloadSpec

    if n_devices < 1:
        raise ValueError("need at least one device")
    if n_tenants < 1:
        raise ValueError("need at least one tenant")
    specs = []
    for t in range(n_tenants):
        heavy = t % 2 == 0
        specs.append(WorkloadSpec(
            name=f"tenant-{t}",
            write_ratio=0.9 if heavy else 0.1,
            rate_rps=4000.0 if heavy else 3000.0,
            mean_request_pages=2.0,
            sequential_fraction=0.3,
            skew=0.5,
            footprint_pages=2048,
        ))
    mix = synthesize_mix(
        specs, total_requests=total_requests, seed=seed, name="fleet"
    )
    tenant_traces: dict[int, list] = {t: [] for t in range(n_tenants)}
    for req in mix.requests:
        tenant_traces.setdefault(req.workload_id, []).append(req)
    config = SSDConfig.small()
    channel_sets = {
        t: list(range(config.channels)) for t in range(n_tenants)
    }
    return tenant_traces, config, channel_sets


def default_migration(tenant_traces, placement, n_devices: int):
    """The forced migration a fleet run gets when none is specified.

    Tenant 0 moves to the next device (mod fleet size) at 25% of the
    trace span — far enough in that the source has completed work, early
    enough that plenty of requests replay on the destination.
    """
    from ..ssd.fleet import MigrationPlan

    if n_devices < 2:
        return None
    last_arrival_us = max(
        (reqs[-1].arrival_us for reqs in tenant_traces.values() if reqs),
        default=0.0,
    )
    if last_arrival_us <= 0.0:
        return None
    tenant = min(t for t, reqs in tenant_traces.items() if reqs)
    dst = (placement[tenant] + 1) % n_devices
    return MigrationPlan(
        time_us=last_arrival_us * _DEFAULT_MIGRATE_FRACTION,
        tenant=tenant,
        dst=dst,
    )


def run_fleet(
    *,
    n_devices: int,
    n_tenants: int,
    total_requests: int,
    seed: int,
    migrations=None,
    slo_dict=None,
    flight_dir=None,
):
    """Run one observed fleet scenario; returns ``(result, observer, report)``.

    ``migrations=None`` applies the default forced migration (see
    :func:`default_migration`); pass an empty list to run without one.
    ``slo_dict`` arms per-device watchdogs plus the fleet rollup.
    """
    from ..obs import Observability, SloSpec, TraceRecorder
    from ..obs.fleet import FleetObserver, build_fleet_report
    from ..ssd.fleet import Fleet, seeded_placement
    from ..ssd.simulator import SSDSimulator

    tenant_traces, config, channel_sets = build_fleet_scenario(
        n_devices=n_devices, n_tenants=n_tenants,
        total_requests=total_requests, seed=seed,
    )
    spec = None
    if slo_dict is not None:
        spec = SloSpec.from_dict(slo_dict, known_tenants=set(channel_sets))
    bundles = []
    sims = []
    for _ in range(n_devices):
        bundle = Observability(
            telemetry=None if spec is not None else _DEFAULT_WINDOW_US,
            slo=spec,
        )
        bundles.append(bundle)
        sims.append(SSDSimulator(
            config, channel_sets, record_latencies=True, obs=bundle,
        ))
    placement = seeded_placement(n_tenants, n_devices, seed)
    fleet = Fleet(sims, placement=placement, seed=seed)
    recorder = None
    if flight_dir is not None:
        from ..obs import FlightRecorder

        recorder = FlightRecorder(
            flight_dir,
            context={"command": "fleet", "devices": n_devices,
                     "tenants": n_tenants, "seed": seed},
            replay_argv=["python", "-m", "repro", "fleet",
                         "--devices", str(n_devices),
                         "--tenants", str(n_tenants), "--seed", str(seed)],
        )
    observer = FleetObserver(
        fleet,
        bundles,
        slo=spec,
        trace=TraceRecorder(),
        flight_recorder=recorder,
    )
    if migrations is None:
        plan = default_migration(tenant_traces, placement, n_devices)
        migrations = [plan] if plan is not None else []
    result = fleet.run(tenant_traces, migrations)
    scenario = {
        "devices": n_devices,
        "tenants": n_tenants,
        "requests": total_requests,
        "migrations": [
            {"time_us": m.time_us, "tenant": m.tenant, "dst": m.dst}
            for m in migrations
        ],
        "slo": slo_dict,
    }
    report = build_fleet_report(
        result, seed=seed, observer=observer, scenario=scenario
    )
    return result, observer, report


def _parse_migration(raw: str):
    """``TENANT:DST:TIME_US`` -> :class:`MigrationPlan` (argparse type)."""
    from ..ssd.fleet import MigrationPlan

    parts = raw.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"migration {raw!r} must look like TENANT:DST:TIME_US"
        )
    try:
        tenant, dst = int(parts[0]), int(parts[1])
        time_us = float(parts[2])  # repro-lint: disable=R001 (the US column of T:DST:US is microseconds by format)
        return MigrationPlan(time_us=time_us, tenant=tenant, dst=dst)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"migration {raw!r}: {exc}")


def _format_report(result, observer, report) -> str:
    """Human summary of one fleet run."""
    lines = []
    for entry in report["devices"]:
        lines.append(
            f"device {entry['device']}: {entry['requests']} reqs  "
            f"makespan {entry['makespan_us']:.0f}us  "
            f"read {entry['read']['mean_us']:.1f}us  "
            f"write {entry['write']['mean_us']:.1f}us  "
            f"health {report['rollup']['health'][str(entry['device'])]:.2f}"
        )
    placement = report["placement"]
    moves = [
        t for t in placement["initial"]
        if placement["initial"][t] != placement["final"][t]
    ]
    lines.append(
        "placement: "
        + " ".join(
            f"t{t}->d{d}" for t, d in sorted(
                placement["final"].items(), key=lambda kv: int(kv[0])
            )
        )
        + (f"  (moved: {', '.join('t' + t for t in sorted(moves))})"
           if moves else "")
    )
    for mig in report["migrations"]:
        span = mig["span_us"]
        lines.append(
            f"migration: tenant {mig['tenant']} device {mig['src']} -> "
            f"{mig['dst']} at {mig['start_us']:.0f}us, "
            f"{mig['requests_replayed']} requests replayed, span "
            + (f"{span:.1f}us" if span is not None else "n/a")
        )
    rollup = report["rollup"]
    if rollup and rollup.get("slo"):
        slo = rollup["slo"]
        lines.append(
            f"fleet slo: {slo['windows']} windows, "
            f"{slo['warn_alerts']} warn / {slo['page_alerts']} page alerts"
        )
        for alert in report["alerts"]:
            lines.append(
                f"  {alert['severity']}: {alert['objective']} at "
                f"{alert['time_us']:.0f}us (offending device "
                f"{alert['device']}, fleet fast burn "
                f"{alert['fleet_fast_burn']:.2f})"
            )
    counters = rollup.get("counters", {}) if rollup else {}
    lines.append(
        f"fleet totals: {counters.get('fleet.requests', 0)} requests, "
        f"{counters.get('fleet.migrations', 0)} migrations across "
        f"{counters.get('fleet.devices', 0)} devices"
    )
    return "\n".join(lines)


def add_arguments(parser) -> None:
    parser.add_argument(
        "--devices", type=lab.count, default=3, metavar="N",
        help="number of simulated devices (default 3)",
    )
    parser.add_argument(
        "--tenants", type=lab.count, default=6, metavar="M",
        help="number of tenants in the synthesized mix (default 6)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, metavar="S",
        help="scenario seed: trace synthesis, placement and every "
        "derived artifact (default 7)",
    )
    lab.add_shared(parser, "--quick")
    parser.add_argument(
        "--migrate", action="append", type=_parse_migration,
        metavar="T:DST:US",
        help="schedule a migration (repeatable): tenant T moves to device "
        "DST at simulated time US; default is one forced migration of "
        "the first tenant at 25%% of the trace span",
    )
    parser.add_argument(
        "--no-migrate", action="store_true",
        help="run without any migration (overrides the default one)",
    )
    slo = parser.add_mutually_exclusive_group()
    lab.add_shared(slo, "--slo")
    slo.add_argument(
        "--slo-tight", action="store_true",
        help="arm a built-in near-unsatisfiable spec that deterministically "
        "pages at fleet level (what the CI smoke asserts)",
    )
    lab.add_shared(parser, "--out", "--chrome-trace", "--flight-dir", "--json")


def run(args) -> int:
    """``repro fleet``: 0 = run completed."""
    from ..obs.chrometrace import write_fleet_chrome_trace
    from ..obs.fleet import write_fleet_report

    slo_dict = None
    if args.slo is not None:
        slo_dict = lab.read_json(args.slo, what="SLO spec")
    elif args.slo_tight:
        slo_dict = _tight_slo_dict(range(args.tenants))
    migrations = None
    if args.no_migrate:
        migrations = []
    elif args.migrate is not None:
        migrations = list(args.migrate)
        for plan in migrations:
            if not 0 <= plan.dst < args.devices:
                raise lab.UsageError(
                    f"--migrate destination {plan.dst} is not a device "
                    f"(fleet has {args.devices})"
                )
            if not 0 <= plan.tenant < args.tenants:
                raise lab.UsageError(
                    f"--migrate tenant {plan.tenant} is not in the mix "
                    f"({args.tenants} tenants)"
                )
    try:
        result, observer, report = run_fleet(
            n_devices=args.devices,
            n_tenants=args.tenants,
            total_requests=QUICK_REQUESTS if args.quick else FULL_REQUESTS,
            seed=args.seed,
            migrations=migrations,
            slo_dict=slo_dict,
            flight_dir=args.flight_dir,
        )
    except ValueError as exc:  # SloSpecError included
        raise lab.UsageError(str(exc)) from None

    lab.emit(args, report, _format_report(result, observer, report))
    if args.out:
        with lab.writing(args.out):
            write_fleet_report(report, args.out)
        lab.note(f"wrote fleet report to {args.out}")
    if args.chrome_trace:
        with lab.writing(args.chrome_trace):
            written = write_fleet_chrome_trace(
                {
                    dev: bundle.trace.events()
                    for dev, bundle in enumerate(observer.device_bundles)
                },
                args.chrome_trace,
                fleet_events=observer.trace.events(),
            )
        lab.note(
            f"wrote merged chrome trace ({written} records) to "
            f"{args.chrome_trace}"
        )
    if observer.flight_recorder is not None:
        for bundle_path in observer.flight_recorder.bundles:
            lab.note(f"flight-recorder bundle: {bundle_path}")
    return 0
