"""Acceptance contract for the hardened adaptive keeper.

Three properties, end to end, on the seeded migrating-hotspot scenario:

* **adaptation wins** — the adaptive keeper's mean read latency is no
  worse than the one-shot keeper's (whose single early decision goes
  stale as the hotspot migrates);
* **determinism** — two same-seed adaptive runs produce byte-identical
  decision/drift/retrain logs;
* **rollback safety** — an injected poisoned candidate is rolled back
  without perturbing the live allocation policy: the decision sequence
  matches a poison-free run whose retrains were never promoted.
"""

import json

from repro.core import SSDKeeper
from repro.harness.driftlab import (
    heuristic_allocator,
    lab_configs,
    run_driftlab,
)
from repro.ssd import SSDConfig
from repro.workloads import build_scenario

PHASES = 4
PHASE_US = 25_000.0


def hotspot_requests(seed=0):
    return build_scenario(
        "migrating_hotspot", seed=seed, phases=PHASES, phase_us=PHASE_US
    ).requests


def adaptive_run(requests, *, poison=False):
    keeper = SSDKeeper(
        heuristic_allocator(),
        SSDConfig.small(),
        collect_window_us=10_000.0,
        intensity_quantum=50.0,
        verify_top_k=3,
    )
    drift, retrain = lab_configs(poison)
    return keeper.run_adaptive(requests, drift=drift, retrain=retrain)


def run_log(run):
    """The full observable behaviour of a run, JSON-serialisable."""
    return {
        "decisions": [
            {"time_us": t, "strategy": s.label} for t, _, s in run.decisions
        ],
        "realised_us": run.realised_us,
        "drift": [e.to_dict() for e in run.drift_events],
        "retrain": [e.to_dict() for e in run.retrain_events],
        "mean_read_us": run.result.mean_read_us,
        "mean_write_us": run.result.mean_write_us,
    }


class TestAdaptationAcceptance:
    def test_adaptive_no_worse_than_oneshot(self):
        report = run_driftlab("migrating_hotspot", quick=True)
        assert (
            report["adaptive"]["mean_read_us"]
            <= report["oneshot"]["mean_read_us"]
        )

    def test_adaptive_actually_adapts(self):
        run = adaptive_run(hotspot_requests())
        assert run.drift_events
        assert run.retrains >= 1
        assert run.decisions

    def test_two_runs_byte_identical(self):
        logs = [
            json.dumps(run_log(adaptive_run(hotspot_requests())),
                       sort_keys=True)
            for _ in range(2)
        ]
        assert logs[0] == logs[1]


class TestPoisonedRetrainSafety:
    def test_poison_rolls_back_without_touching_allocation(self):
        clean = adaptive_run(hotspot_requests())
        poisoned = adaptive_run(hotspot_requests(), poison=True)

        assert poisoned.rollbacks == poisoned.retrains >= 1
        assert poisoned.promotions == 0
        for event in poisoned.retrain_events:
            assert event.outcome == "rolled-back"
            assert event.candidate_cost_us is None

        # Rollback keeps the incumbent live: until the clean run's first
        # promotion, the two runs decide identically (same model, same
        # trace). If the clean run never promoted, whole logs must match.
        promoted_at = next(
            (e.window_index for e in clean.retrain_events if e.promoted),
            None,
        )
        clean_decisions = [
            (t, s.label) for t, _, s in clean.decisions
        ]
        poisoned_decisions = [
            (t, s.label) for t, _, s in poisoned.decisions
        ]
        if promoted_at is None:
            assert poisoned_decisions == clean_decisions
        else:
            assert (
                poisoned_decisions[: promoted_at + 1]
                == clean_decisions[: promoted_at + 1]
            )

    def test_poisoned_run_still_completes_all_requests(self):
        requests = hotspot_requests()
        run = adaptive_run(requests, poison=True)
        assert run.result.requests == len(requests)
