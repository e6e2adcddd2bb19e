"""Pinned digests of seeded fast-model sweeps.

Every case below replays one seeded window under all 42 strategies of the
four-tenant space and hashes every field of every result: the aggregate
and per-workload :class:`~repro.ssd.metrics.OpStats` (latency samples
included when recorded), makespan, request and sub-request counts and the
rest of :class:`~repro.ssd.metrics.SimulationResult`.  Floats are rendered
with :meth:`float.hex`, so the digests are exact.  A change to the fast
model's booking rule, its group memo or its statistics that moves any
simulated value by one ulp changes a digest here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from repro.core import features, labeler
from repro.core.hybrid import PagePolicy, page_modes_for
from repro.core.strategies import StrategySpace
from repro.ssd import FaultConfig, SSDConfig
from repro.ssd.fastmodel import fast_sweep
from repro.workloads.mixer import synthesize_mix

CONFIG = SSDConfig.small()
LABELER = labeler.LabelerConfig(ssd=CONFIG)
SPACE = StrategySpace(CONFIG.channels, LABELER.n_tenants)
FAULTS = FaultConfig(seed=5, read_ber=0.05, program_fail_rate=0.002)


def hexed(obj):
    """JSON-ready rendering with every float as its ``float.hex``."""
    if isinstance(obj, float):
        return obj.hex()
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): hexed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [hexed(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return {
            f.name: hexed(getattr(obj, f.name))
            for f in dataclasses.fields(obj) if not f.name.startswith("_")
        }
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(results) -> str:
    text = json.dumps([hexed(r) for r in results], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def window(seed: int, level: int, total: int | None = None):
    """A seeded four-tenant mix at ``level`` with readers and writers."""
    rng = np.random.default_rng(seed)
    specs, drawn = labeler.random_specs(LABELER, rng, intensity_level=level)
    assert len({s.is_write_dominated for s in specs}) == 2
    mix = synthesize_mix(specs, total_requests=total or drawn, seed=seed)
    return mix.requests, features.features_of_mix(
        mix, intensity_quantum=LABELER.intensity_quantum
    )


def replay_sweep(requests, fv, policy=PagePolicy.HYBRID, faults=None):
    replay = labeler.WindowReplay(
        requests, fv, CONFIG, page_policy=policy, faults=faults
    )
    return [replay.result(s) for s in SPACE]


# ----------------------------------------------------------------------
# cases: name -> zero-argument callable returning the 42 results


def case_level10():
    requests, fv = window(3, 10)
    assert len(requests) == 1_575
    return replay_sweep(requests, fv)


def case_level19():
    requests, fv = window(4, 19)
    return replay_sweep(requests, fv)


def case_small_window():
    requests, fv = window(5, 0, total=90)
    return replay_sweep(requests, fv)


def case_faulted():
    requests, fv = window(6, 10)
    return replay_sweep(requests, fv, faults=FAULTS)


def case_all_static():
    requests, fv = window(7, 12)
    return replay_sweep(requests, fv, PagePolicy.ALL_STATIC)


def case_all_dynamic():
    requests, fv = window(7, 12)
    return replay_sweep(requests, fv, PagePolicy.ALL_DYNAMIC)


def case_recorded():
    """Latency samples on; every other case runs with them off."""
    requests, fv = window(10, 10)
    sets = (s.channel_sets(CONFIG.channels, fv.write_dominated()) for s in SPACE)
    modes = page_modes_for(PagePolicy.HYBRID, fv)
    results = fast_sweep(requests, CONFIG, sets, modes, record_latencies=True)
    assert all(r.read.samples and r.write.samples for r in results)
    return results


CASES = {
    "level10": case_level10,
    "level19": case_level19,
    "small_window": case_small_window,
    "faulted": case_faulted,
    "all_static": case_all_static,
    "all_dynamic": case_all_dynamic,
    "recorded": case_recorded,
}

DIGESTS = {
    "all_dynamic": "840f2ad0ac953f9c",
    "all_static": "08b798ebe4d889c5",
    "faulted": "ae4d7bf2dcb5839a",
    "level10": "ea35b77ef895538e",
    "level19": "487ffa9c34824d66",
    "recorded": "3010447f1ebd5d2d",
    "small_window": "67accb3f8b6b171a",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_is_pinned(name):
    results = CASES[name]()
    assert len(results) == len(SPACE) == 42
    assert digest(results) == DIGESTS[name]


def test_digest_sees_one_ulp():
    [result] = case_small_window()[:1]
    before = digest([result])
    result.read.total_us = math.nextafter(result.read.total_us, math.inf)
    assert digest([result]) != before
