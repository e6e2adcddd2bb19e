"""Fast-model sweeps: per-group timeline reuse must equal one shared pass.

A sweep is one :class:`FastLatencyModel` and one ``run`` per strategy.  A
run simulates each group of tenants that share channels on its own,
relabels channel ids to ranks within the group, and the model reuses a
group's end times across strategies.  The reference below is the
whole-trace pass it replaces: every sub-request placed on its real channels
and booked in arrival order on one shared set of timelines.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.core import features, labeler
from repro.core.hybrid import PagePolicy, page_modes_for
from repro.core.strategies import StrategySpace
from repro.ssd import FastLatencyModel, FaultConfig, IORequest, OpType, SSDConfig
from repro.ssd.fastmodel import _bulk_stats, fast_simulate
from repro.ssd.ftl.page_alloc import PageAllocMode
from repro.ssd.metrics import LatencyAccumulator, build_result

CONFIG = SSDConfig.small()
SPACE = StrategySpace(CONFIG.channels, 4)
LABELER = labeler.LabelerConfig(window_requests_max=600)
FAULTS = FaultConfig(seed=5, read_ber=0.05, program_fail_rate=0.002)


def sweep(requests, strategy_sets, modes=None, *, faults=None, record=False):
    """One model for the trace, one run per channel-set mapping."""
    model = FastLatencyModel(CONFIG, requests, faults=faults, record_latencies=record)
    return [model.run(sets, modes) for sets in strategy_sets]


def reference(requests, sets, modes, *, faults=None, record=False):
    """The whole trace booked in arrival order on one set of timelines."""
    # a model with no trace, used only for its placement and booking helpers
    model = FastLatencyModel(CONFIG, [], faults=faults)
    sets = {w: sorted(set(chans)) for w, chans in sets.items()}
    modes = {w: (modes or {}).get(w, PageAllocMode.STATIC) for w in sets}
    ordered = sorted(requests, key=lambda r: r.arrival_us)
    pages = [(r, r.lpn + k) for r in ordered for k in range(r.length)]
    wid = np.array([r.workload_id for r, _ in pages])
    is_write = np.array([r.op is OpType.WRITE for r, _ in pages])
    lpn = np.array([p for _, p in pages], dtype=np.int64)
    plane = np.empty(len(pages), dtype=np.int64)
    for w, chans in sets.items():
        reads, writes = (wid == w) & ~is_write, (wid == w) & is_write
        plane[reads] = model._static_planes(lpn[reads], chans)
        if modes[w] is PageAllocMode.STATIC:
            plane[writes] = model._static_planes(lpn[writes], chans)
        else:
            plane[writes] = model._sequence_planes(int(writes.sum()), chans)
    ends = model._timeline_us(
        np.array([r.arrival_us for r, _ in pages]), is_write.astype(np.int8),
        plane // CONFIG.planes_per_die, plane // model._planes_per_channel,
        CONFIG.channels,
    )
    req_end = {}
    for (r, _), end in zip(pages, ends.tolist()):
        req_end[id(r)] = max(req_end.get(id(r), end), end)
    latency = np.array([req_end[id(r)] - r.arrival_us for r in ordered])
    acc = LatencyAccumulator(record_latencies=record)
    for w in sorted(sets):
        for op in (OpType.READ, OpType.WRITE):
            mask = np.array([r.workload_id == w and r.op is op for r in ordered])
            if mask.any():
                acc.set_stats(w, op, _bulk_stats(latency[mask], record))
    return build_result(
        acc, makespan_us=max(req_end.values()), requests=len(ordered),
        subrequests=len(pages),
    )


def draw_window(seed, level):
    rng = np.random.default_rng(seed)
    specs, total = labeler.random_specs(LABELER, rng, intensity_level=level)
    mix = labeler.synthesize_mix(specs, total_requests=total, seed=seed)
    return mix.requests, features.features_of_mix(
        mix, intensity_quantum=LABELER.intensity_quantum
    )


def draw_mix(seed, level, policy=PagePolicy.HYBRID):
    requests, fv = draw_window(seed, level)
    return requests, fv.write_dominated(), page_modes_for(policy, fv)


def all_sets(write_dominated):
    return [s.channel_sets(SPACE.n_channels, write_dominated) for s in SPACE]


def layout(widths, order):
    """Contiguous channel blocks of ``widths``, laid out in tenant ``order``."""
    sets, cursor = {}, 0
    for wid in order:
        sets[wid] = list(range(cursor, cursor + widths[wid]))
        cursor += widths[wid]
    return sets


@settings(max_examples=6)
@given(
    seed=st.integers(0, 2**16),
    level=st.integers(0, 19),
    policy=st.sampled_from(list(PagePolicy)),
    faulted=st.booleans(),
    record=st.booleans(),
)
def test_sweep_matches_one_shared_pass_for_all_strategies(
    seed, level, policy, faulted, record
):
    requests, write_dominated, modes = draw_mix(seed, level, policy)
    faults = FAULTS if faulted else None
    sets = all_sets(write_dominated)
    results = sweep(requests, sets, modes, faults=faults, record=record)
    assert len(results) == len(SPACE) == 42
    for strategy_sets, result in zip(sets, results):
        expected = reference(requests, strategy_sets, modes, faults=faults, record=record)
        assert result == expected
        assert result.per_workload == expected.per_workload
        if record:
            assert result.read.samples == expected.read.samples
            assert result.write.samples == expected.write.samples


@settings(max_examples=6)
@given(
    seed=st.integers(0, 2**16),
    level=st.integers(0, 19),
    policy=st.sampled_from(list(PagePolicy)),
    faulted=st.booleans(),
    top_k=st.lists(st.integers(0, len(SPACE) - 1), min_size=1, max_size=4),
    order=st.permutations(range(len(SPACE))),
)
def test_window_replay_matches_fast_simulate_in_any_order(
    seed, level, policy, faulted, top_k, order
):
    # a verified allocation's top-k (repeats allowed) first, then the whole
    # space in any order, as a window's label sweep would follow it
    requests, fv = draw_window(seed, level)
    faults = FAULTS if faulted else None
    replay = labeler.WindowReplay(requests, fv, CONFIG, page_policy=policy, faults=faults)
    assert len(replay) == len(requests)
    modes = page_modes_for(policy, fv)
    first = {}
    for strategy in [SPACE[i] for i in top_k + order]:
        result = replay.result(strategy)
        assert first.setdefault(strategy, result) is result
        sets = strategy.channel_sets(SPACE.n_channels, fv.write_dominated())
        expected = FastLatencyModel(CONFIG, requests, faults=faults).run(sets, modes)
        assert result == expected
        assert result.per_workload == expected.per_workload
        assert replay.cost_us(strategy) == labeler.objective_us(expected, "mean-sum")
    assert len(first) == len(SPACE)


@pytest.mark.parametrize("widths", [(2, 2, 2, 2), (4, 2, 1, 1), (1, 5, 1, 1)])
def test_swapping_channel_blocks_keeps_each_tenants_stats(widths):
    requests, _, modes = draw_mix(3, 15)
    results = [
        FastLatencyModel(CONFIG, requests).run(layout(widths, order), modes)
        for order in ((0, 1, 2, 3), (1, 0, 2, 3), (3, 2, 1, 0))
    ]
    for result in results[1:]:
        assert result.per_workload == results[0].per_workload
        assert result == results[0]
    assert results[2] == reference(requests, layout(widths, (3, 2, 1, 0)), modes)


def test_reverse_order_sweep_gives_identical_results():
    requests, write_dominated, modes = draw_mix(11, 12)
    sets = all_sets(write_dominated)
    forward = sweep(requests, sets, modes, record=True)
    backward = sweep(requests, sets[::-1], modes, record=True)
    assert backward[::-1] == forward


@pytest.mark.parametrize(
    "sets",
    [
        {0: [0, 1, 2], 1: [2, 3], 2: [5, 6], 3: [6, 7]},
        {0: [0, 1, 2], 1: [2, 3], 2: [3, 4, 5], 3: [7]},
        {0: [1, 3], 1: [3, 6], 2: [0, 2], 3: [4, 5, 7]},
        {0: list(range(8)), 1: [0], 2: [1, 2], 3: [7]},
    ],
)
def test_overlapping_channel_sets_are_exact(sets):
    requests, _, modes = draw_mix(5, 18)
    result = FastLatencyModel(CONFIG, requests).run(sets, modes)
    assert result == reference(requests, sets, modes)


def test_a_sweep_simulates_each_group_and_width_once(monkeypatch):
    # two write-dominated and two read-dominated tenants: Shared is one
    # group, Isolated and the 34 four-part splits reuse 4 tenants x widths
    # 1-5, the two-part splits 2 groups x 6 widths
    requests, write_dominated, modes = draw_mix(2, 15)
    assert sorted(write_dominated) == [False, False, True, True]
    passes = []
    group_ends = FastLatencyModel._group_ends

    def counted(self, group):
        passes.append(group)
        return group_ends(self, group)

    monkeypatch.setattr(FastLatencyModel, "_group_ends", counted)
    sweep(requests, all_sets(write_dominated), modes)
    assert len(passes) == len(set(passes)) == 1 + 4 * 5 + 2 * 6


def test_empty_trace():
    sets = all_sets([True, False, True, False])
    results = sweep([], sets)
    assert len(results) == len(sets)
    assert all(r == fast_simulate([], CONFIG, sets[0]) for r in results)
    assert all(r.requests == 0 and r.makespan_us == 0.0 for r in results)


def test_unknown_workload_id_raises():
    requests = [
        IORequest(arrival_us=0.0, workload_id=0, op=OpType.READ, lpn=0),
        IORequest(arrival_us=1.0, workload_id=9, op=OpType.WRITE, lpn=4),
    ]
    with pytest.raises(KeyError, match="9"):
        sweep(requests, all_sets([True, False, True, False]))

