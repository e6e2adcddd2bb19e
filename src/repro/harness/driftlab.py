"""``repro drift`` — the adaptive keeper against adversarial tenants.

One lab run takes a named adversarial scenario from
:mod:`repro.workloads.adversarial`, plays it twice over the same seeded
device, and reports the two side by side:

* **one-shot** — the paper's Algorithm 2: collect one window, decide
  once, never look back.  Under drift the single decision goes stale.
* **adaptive** — :meth:`~repro.core.keeper.SSDKeeper.run_adaptive`: the
  hardened periodic keeper with drift detection, guarded incremental
  retraining (promote-or-rollback shadow validation), the switch-rate
  limiter, and degradation to Shared on persistent drift.

Everything is seeded; two invocations with the same arguments produce
byte-identical reports (the CI ``drift-smoke`` job asserts exactly
that).  ``--poison`` corrupts every retrained candidate before shadow
validation, proving the rollback guard: the run must report
``rollbacks >= 1`` and the live model must keep serving untouched.
"""

from __future__ import annotations

import numpy as np

from ..core import (
    ChannelAllocator,
    Dataset,
    DriftConfig,
    FeatureVector,
    RetrainConfig,
    SSDKeeper,
    StrategyLearner,
    StrategySpace,
)
from ..ssd.config import SSDConfig
from ..workloads.adversarial import SCENARIOS, build_scenario
from . import lab

__all__ = ["heuristic_allocator", "run_driftlab"]

#: lab trace geometry (full / --quick)
_PHASES = 4
_PHASE_US = 50_000.0
_QUICK_PHASE_US = 25_000.0
_COLLECT_WINDOW_US = 10_000.0
_INTENSITY_QUANTUM = 50.0


def heuristic_allocator(seed: int = 0) -> ChannelAllocator:
    """A cheap deterministic stand-in for the full Algorithm-1 pipeline.

    Trains the standard 9-64-42 network on a seeded synthetic dataset
    whose labels encode the paper's core rule — write-dominated mixes
    favour the writers' channels (7:1), read-dominated mixes the readers'
    (1:7) — so lab runs stay fast while the model is realistic enough to
    mispredict under drift.
    """
    rng = np.random.default_rng(seed)
    space = StrategySpace(8, 4)
    rows, labels = [], []
    for _ in range(160):
        fv = FeatureVector(
            int(rng.integers(0, 20)),
            tuple(int(rng.integers(0, 2)) for _ in range(4)),
            tuple(rng.dirichlet(np.ones(4))),
        )
        rows.append(fv.to_array())
        labels.append(
            space.index_of(space.by_label("7:1"))
            if fv.total_write_proportion() > 0.5
            else space.index_of(space.by_label("1:7"))
        )
    dataset = Dataset(
        features=np.vstack(rows), labels=np.array(labels), n_classes=len(space)
    )
    learner = StrategyLearner(space, seed=0)
    learner.train(dataset, iterations=80, seed=0)
    return ChannelAllocator(learner)


def _lab_keeper(cfg: SSDConfig, *, obs=None, sanitizer=None) -> SSDKeeper:
    return SSDKeeper(
        heuristic_allocator(),
        cfg,
        collect_window_us=_COLLECT_WINDOW_US,
        intensity_quantum=_INTENSITY_QUANTUM,
        verify_top_k=3,
        obs=obs,
        sanitizer=sanitizer,
    )


def lab_configs(poison: bool = False) -> tuple[DriftConfig, RetrainConfig]:
    """The lab's (and CI's) drift/retrain tuning — deliberately twitchy
    so short smoke traces still exercise every path."""
    drift = DriftConfig(
        min_windows=2,
        feature_window=2,
        residual_threshold=0.3,
        cooldown_windows=2,
    )
    retrain = RetrainConfig(
        capacity=32,
        holdback=2,
        min_train_windows=3,
        min_gap_windows=2,
        interval_windows=3,
        iterations=20,
        poison=poison,
    )
    return drift, retrain


def run_driftlab(
    scenario: str = "migrating_hotspot",
    *,
    seed: int = 0,
    quick: bool = False,
    poison: bool = False,
    sanitize: bool = False,
) -> dict:
    """Run one lab comparison; returns a deterministic report document."""
    from ..obs import Observability

    phase_us = _QUICK_PHASE_US if quick else _PHASE_US
    workload = build_scenario(
        scenario, seed=seed, phases=_PHASES, phase_us=phase_us
    )
    cfg = SSDConfig.small()

    def make_sanitizer():
        # One sanitizer per device run: the monotonicity invariant tracks
        # a single simulated timeline, so instances must not be shared.
        if not sanitize:
            return None
        from ..analysis import Sanitizer

        return Sanitizer()

    obs = Observability(trace=True)
    adaptive_sanitizer = make_sanitizer()
    adaptive_keeper = _lab_keeper(cfg, obs=obs, sanitizer=adaptive_sanitizer)
    drift_cfg, retrain_cfg = lab_configs(poison)
    adaptive = adaptive_keeper.run_adaptive(
        workload.requests, drift=drift_cfg, retrain=retrain_cfg
    )

    oneshot_sanitizer = make_sanitizer()
    oneshot_keeper = _lab_keeper(cfg, sanitizer=oneshot_sanitizer)
    oneshot = oneshot_keeper.run(workload.requests)

    counters = obs.registry.snapshot().get("counters", {})
    report = {
        "scenario": scenario,
        "seed": seed,
        "quick": quick,
        "poison": poison,
        "requests": len(workload.requests),
        "phases": _PHASES,
        "phase_us": phase_us,
        "collect_window_us": _COLLECT_WINDOW_US,
        "adaptive": {
            "mean_read_us": adaptive.result.mean_read_us,
            "mean_write_us": adaptive.result.mean_write_us,
            "decisions": [
                {"time_us": t_us, "strategy": s.label}
                for t_us, _, s in adaptive.decisions
            ],
            "realised_us": adaptive.realised_us,
            "drift_events": [e.to_dict() for e in adaptive.drift_events],
            "retrain_events": [e.to_dict() for e in adaptive.retrain_events],
            "retrains": adaptive.retrains,
            "promotions": adaptive.promotions,
            "rollbacks": adaptive.rollbacks,
            "suppressed_switches": adaptive.suppressed_switches,
            "degraded_windows": adaptive.degraded_windows,
        },
        "oneshot": {
            "mean_read_us": oneshot.result.mean_read_us,
            "mean_write_us": oneshot.result.mean_write_us,
            "strategy": (
                oneshot.strategy.label if oneshot.strategy is not None else None
            ),
        },
        "counters": {
            name: value
            for name, value in sorted(counters.items())
            if name.startswith(("drift.", "keeper."))
        },
    }
    if sanitize:
        report["sanitizer"] = {
            "adaptive": dict(adaptive_sanitizer.stats()),
            "oneshot": dict(oneshot_sanitizer.stats()),
        }
    return report


def _format_report(report: dict) -> str:
    a, o = report["adaptive"], report["oneshot"]
    lines = [
        f"scenario {report['scenario']} (seed {report['seed']}, "
        f"{report['requests']} requests, {report['phases']} phases of "
        f"{report['phase_us']:.0f}us)",
        "",
        f"{'':<12} {'read us':>9} {'write us':>9}",
        f"{'one-shot':<12} {o['mean_read_us']:>9.1f} {o['mean_write_us']:>9.1f}"
        f"   strategy {o['strategy']}",
        f"{'adaptive':<12} {a['mean_read_us']:>9.1f} {a['mean_write_us']:>9.1f}"
        f"   {len(a['decisions'])} decisions",
        "",
        f"drift: {len(a['drift_events'])} detections "
        + ", ".join(
            f"{e['kind']}@w{e['window_index']}" for e in a["drift_events"]
        ),
        f"retrain: {a['retrains']} attempts, {a['promotions']} promoted, "
        f"{a['rollbacks']} rolled back",
        f"limiter: {a['suppressed_switches']} suppressed switches, "
        f"{a['degraded_windows']} degraded windows",
    ]
    for event in a["retrain_events"]:
        lines.append(
            f"  w{event['window_index']}: {event['outcome']} — {event['reason']}"
        )
    if "sanitizer" in report:
        checks = ", ".join(
            f"{k} {v}" for k, v in report["sanitizer"]["adaptive"].items()
        )
        lines.append(f"sanitizer: all invariants held ({checks})")
    return "\n".join(lines)


def add_arguments(parser) -> None:
    lab.add_shared(
        parser, "--scenario",
        type=str,
        default="migrating_hotspot",
        choices=sorted(SCENARIOS),
        help="adversarial workload family (default migrating_hotspot)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="scenario seed; same seed => byte-identical report (default 0)",
    )
    lab.add_shared(
        parser, "--quick",
        help=f"halve each phase to {_QUICK_PHASE_US:.0f}us (CI smoke size)",
    )
    parser.add_argument(
        "--poison", action="store_true",
        help="corrupt every retrained candidate before shadow validation; "
        "the rollback guard must catch all of them",
    )
    lab.add_shared(parser, "--sanitize", "--json", "--out")


def run(args) -> int:
    """``repro drift``: 0 = the comparison ran."""
    report = run_driftlab(
        args.scenario,
        seed=args.seed,
        quick=args.quick,
        poison=args.poison,
        sanitize=args.sanitize,
    )
    if args.out:
        lab.note(f"wrote {lab.write_json(args.out, report)}")
    lab.emit(args, report, _format_report(report))
    return 0
