"""Throughput kernels of the two simulation engines.

Not a paper figure: these benches track the performance of the substrate
itself (events/s of the DES, sub-requests/s of the fast model, placement
and GC costs), so regressions in the hot loops are visible.
"""

import numpy as np

from repro.ssd import FastLatencyModel, IORequest, OpType, SSDConfig, SSDSimulator
from repro.ssd.ftl.gc import GarbageCollector
from repro.ssd.ftl.mapping import FlashArrayState


def make_trace(n, seed=0, wids=4):
    rng = np.random.default_rng(seed)
    return [
        IORequest(
            arrival_us=float(t),
            workload_id=int(rng.integers(0, wids)),
            op=OpType(int(rng.integers(0, 2))),
            lpn=int(rng.integers(0, 16_384)),
            length=int(rng.integers(1, 4)),
        )
        for t in np.sort(rng.uniform(0, 50_000, size=n))
    ]


SETS = {w: list(range(8)) for w in range(4)}


def test_event_engine_throughput(benchmark):
    config = SSDConfig.small()
    trace = make_trace(2000)

    result = benchmark(lambda: SSDSimulator(config, SETS).run(list(trace)))
    assert result.requests == 2000


def test_fast_model_throughput(benchmark):
    config = SSDConfig.small()
    trace = make_trace(2000)

    result = benchmark(lambda: FastLatencyModel(config, list(trace)).run(SETS))
    assert result.requests == 2000


def test_gc_reclaim_cost(benchmark):
    """Cost of reclaiming one half-dead block."""
    config = SSDConfig(
        channels=1, chips_per_channel=1, dies_per_chip=1, planes_per_die=1,
        blocks_per_plane=64, pages_per_block=128,
    )

    def reclaim():
        state = FlashArrayState(config)
        gc = GarbageCollector(state)
        plane = state.planes[0]
        for lpn in range(128):
            state.write(lpn, plane)
        for lpn in range(0, 128, 2):
            state.write(lpn, plane)  # kill half of block 0
        victim = gc.pick_victim(plane)
        return gc._reclaim(plane, victim)

    item = benchmark(reclaim)
    assert item.moves > 0


def test_mapping_write_cost(benchmark):
    config = SSDConfig.small()

    def churn():
        state = FlashArrayState(config)
        plane = state.planes[0]
        for lpn in range(2000):
            state.write(lpn % 512, plane)
        return state.mapped_pages()

    assert benchmark(churn) == 512
