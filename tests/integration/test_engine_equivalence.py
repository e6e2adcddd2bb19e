"""Property: the fast model is exact when no queueing reordering occurs.

On traces whose requests are spaced beyond the worst-case service time,
every resource is idle at each arrival, so the two engines must produce
*identical* latencies (same placement, same unloaded phase sums).  Under
contention we require agreement of total latency within a modest band and
identical structural counts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.ssd import FastLatencyModel, IORequest, OpType, ServiceTimes, SSDConfig, SSDSimulator

CONFIG = SSDConfig.small()
SETS = {0: list(range(8)), 1: list(range(8))}


def spaced_trace(ops, spacing_us):
    reqs = []
    t = 0.0
    for op, lpn, length in ops:
        reqs.append(
            IORequest(arrival_us=t, workload_id=0, op=op, lpn=lpn, length=length)
        )
        t += spacing_us
    return reqs


request_shape = st.tuples(
    st.sampled_from([OpType.READ, OpType.WRITE]),
    st.integers(0, 4096),
    st.integers(1, 4),
)


class TestUncontendedEquivalence:
    @given(ops=st.lists(request_shape, min_size=1, max_size=40))
    @settings(max_examples=25)
    def test_identical_latencies_without_contention(self, ops):
        t = ServiceTimes.from_config(CONFIG)
        spacing = (t.write_service_us + t.read_service_us) * 8  # fully idle
        reqs = spaced_trace(ops, spacing)

        des = SSDSimulator(CONFIG, SETS).run(
            [IORequest(r.arrival_us, r.workload_id, r.op, r.lpn, r.length) for r in reqs]
        )
        fast = FastLatencyModel(
            CONFIG,
            [IORequest(r.arrival_us, r.workload_id, r.op, r.lpn, r.length) for r in reqs],
        ).run(SETS)
        assert fast.total_latency_us == pytest.approx(
            des.total_latency_us, rel=1e-12
        )
        assert fast.read.count == des.read.count
        assert fast.write.count == des.write.count
        assert fast.subrequests == des.subrequests

    def test_identical_per_request_completion_when_idle(self):
        t = ServiceTimes.from_config(CONFIG)
        reqs = spaced_trace(
            [(OpType.READ, i * 16, 2) for i in range(10)],
            spacing_us=5000.0,
        )
        des_reqs = [IORequest(r.arrival_us, 0, r.op, r.lpn, r.length) for r in reqs]
        SSDSimulator(CONFIG, SETS).run(des_reqs)
        for r in des_reqs:
            assert r.latency_us == pytest.approx(t.read_service_us)


class TestContendedAgreement:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=10)
    def test_totals_within_band_under_contention(self, seed):
        rng = np.random.default_rng(seed)
        reqs = [
            IORequest(
                arrival_us=float(rng.uniform(0, 10_000)),
                workload_id=int(rng.integers(0, 2)),
                op=OpType(int(rng.integers(0, 2))),
                lpn=int(rng.integers(0, 2048)),
                length=int(rng.integers(1, 4)),
            )
            for _ in range(150)
        ]
        des = SSDSimulator(CONFIG, SETS).run(
            [IORequest(r.arrival_us, r.workload_id, r.op, r.lpn, r.length) for r in reqs]
        )
        fast = FastLatencyModel(
            CONFIG,
            [IORequest(r.arrival_us, r.workload_id, r.op, r.lpn, r.length) for r in reqs],
        ).run(SETS)
        assert fast.total_latency_us == pytest.approx(
            des.total_latency_us, rel=0.35
        )
