"""Bounded retraining labels: ``WindowReplay.label`` against the full sweep.

``label`` skips a strategy when the fast model's cost floor puts it above
the indifference band, so its answer must equal ``pick_label`` over every
strategy's cost, and every strategy it skipped must really lie above the
band.
"""

from hypothesis import given, strategies as st
import numpy as np
import pytest

from repro.core import FeaturesCollector, StrategySpace, WindowReplay
from repro.core.hybrid import PagePolicy
from repro.core.labeler import allocation, pick_label
from repro.ssd import FaultConfig, SSDConfig
from repro.workloads import WorkloadSpec, synthesize_mix

CONFIG = SSDConfig.small()
SPACE = StrategySpace(8, 4)
FAULTS = FaultConfig(
    seed=5, read_ber=0.05, program_fail_rate=0.002, erase_fail_rate=0.01,
    max_read_retries=1,
)


def window(seed, write_ratios, total, rate_rps=3_000.0):
    """A seeded four-tenant window and its observed features."""
    specs = [
        WorkloadSpec(name=f"t{i}", write_ratio=ratio, rate_rps=rate_rps,
                     footprint_pages=2048)
        for i, ratio in enumerate(write_ratios)
    ]
    mixed = synthesize_mix(specs, total_requests=total, seed=seed)
    collector = FeaturesCollector(4, intensity_quantum=50.0)
    for req in mixed.requests:
        collector.observe(req)
    return mixed.requests, collector.collect()


def replay(requests, features, policy=PagePolicy.HYBRID, faults=None):
    return WindowReplay(
        requests, features, CONFIG, page_policy=policy, faults=faults
    )


def skipped(bounded):
    """Strategies ``label`` ruled out without simulating them."""
    return [s for s in SPACE if s not in bounded._results]


@given(
    seed=st.integers(0, 10_000),
    write_ratios=st.lists(
        st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), min_size=4, max_size=4
    ),
    total=st.integers(8, 160),
    rate_rps=st.sampled_from([1_000.0, 3_000.0, 8_000.0]),
    tie_epsilon=st.sampled_from([0.0, 1e-3, 0.02, 0.1]),
    policy=st.sampled_from(list(PagePolicy)),
    faulted=st.booleans(),
    scored_first=st.lists(st.integers(0, len(SPACE) - 1), max_size=3),
)
def test_bounded_label_equals_full_sweep(
    seed, write_ratios, total, rate_rps, tie_epsilon, policy, faulted,
    scored_first,
):
    requests, features = window(seed, write_ratios, total, rate_rps)
    faults = FAULTS if faulted else None
    full = replay(requests, features, policy, faults)
    costs_us = np.array([full.cost_us(s) for s in SPACE])
    bounded = replay(requests, features, policy, faults)
    for index in scored_first:  # what verified allocation scored already
        bounded.cost_us(SPACE[index])
    assert bounded.label(SPACE, tie_epsilon) == pick_label(costs_us, tie_epsilon)
    band_us = costs_us.min() * (1.0 + tie_epsilon)
    for strategy in skipped(bounded):
        assert costs_us[SPACE.index_of(strategy)] > band_us


@given(
    seed=st.integers(0, 10_000),
    write_ratios=st.lists(
        st.sampled_from([0.0, 0.1, 0.9, 1.0]), min_size=4, max_size=4
    ),
    total=st.integers(1, 120),
    policy=st.sampled_from(list(PagePolicy)),
    faulted=st.booleans(),
)
def test_cost_floor_holds_and_is_exact_once_simulated(
    seed, write_ratios, total, policy, faulted
):
    requests, features = window(seed, write_ratios, total)
    bounded = replay(requests, features, policy, FAULTS if faulted else None)
    model = bounded._model
    for strategy in SPACE:
        sets, modes = allocation(strategy, features, CONFIG.channels, policy)
        floor_us = model.mean_sum_floor_us(sets, modes)
        cost_us = bounded.cost_us(strategy)
        assert floor_us <= cost_us * (1.0 + 1e-12)
        # every group is memoised now: the floor is the cost, summed per group
        assert model.mean_sum_floor_us(sets, modes) == pytest.approx(
            cost_us, rel=1e-12
        )


def test_earliest_in_a_wide_band_wins_over_the_scored_best():
    """Fifteen strategies share the 10% band; the earliest is not the
    cheapest, and it is labelled even when the cheapest was scored first."""
    requests, features = window(0, (0.1,) * 4, 120)
    costs_us = np.array([replay(requests, features).cost_us(s) for s in SPACE])
    band = np.flatnonzero(costs_us <= costs_us.min() * 1.1)
    cheapest = int(np.argmin(costs_us))
    assert len(band) == 15 and band[0] == 0 and cheapest == 5
    bounded = replay(requests, features)
    bounded.cost_us(SPACE[cheapest])
    assert bounded.label(SPACE, 0.1) == 0
    assert skipped(bounded)  # the floor ruled some strategies out
    narrow = replay(requests, features)
    assert narrow.label(SPACE, 0.02) == pick_label(costs_us, 0.02) == cheapest


def test_empty_window_labels_the_first_strategy():
    _, features = window(0, (0.1,) * 4, 8)
    assert replay([], features).label(SPACE, 0.02) == 0
