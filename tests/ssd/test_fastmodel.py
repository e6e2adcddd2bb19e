"""Fast timeline model: exactness on simple cases, DES agreement."""

import pytest

from repro.ssd import (
    FastLatencyModel,
    IORequest,
    OpType,
    ServiceTimes,
    fast_simulate,
    simulate,
)


def shared_sets(n=1, channels=8):
    return {w: list(range(channels)) for w in range(n)}


def read(t, lpn, wid=0, length=1):
    return IORequest(arrival_us=t, workload_id=wid, op=OpType.READ, lpn=lpn, length=length)


def write(t, lpn, wid=0, length=1):
    return IORequest(arrival_us=t, workload_id=wid, op=OpType.WRITE, lpn=lpn, length=length)


class TestExactCases:
    def test_single_read(self, small_config):
        t = ServiceTimes.from_config(small_config)
        result = fast_simulate([read(0.0, 0)], small_config, shared_sets())
        assert result.read.mean_us == pytest.approx(t.read_service_us)

    def test_single_write(self, small_config):
        t = ServiceTimes.from_config(small_config)
        result = fast_simulate([write(0.0, 0)], small_config, shared_sets())
        assert result.write.mean_us == pytest.approx(t.write_service_us)

    def test_same_die_serialisation(self, small_config):
        t = ServiceTimes.from_config(small_config)
        result = fast_simulate([read(0.0, 0), read(0.0, 0)], small_config, shared_sets())
        assert result.read.max_us > t.read_service_us

    def test_empty_trace(self, small_config):
        result = fast_simulate([], small_config, shared_sets())
        assert result.requests == 0
        assert result.total_latency_us == 0.0

    def test_unknown_workload_rejected(self, small_config):
        with pytest.raises(KeyError):
            fast_simulate([read(0.0, 0, wid=5)], small_config, shared_sets(1))


@pytest.mark.parametrize("engine", [simulate, fast_simulate], ids=["event", "fast"])
@pytest.mark.parametrize(
    "sets", [{0: [9]}, {0: [-1]}, {0: []}], ids=["past-last", "negative", "empty"]
)
def test_both_engines_reject_invalid_channel_sets(engine, sets, small_config):
    trace = [read(0.0, 0), write(1.0, 8), read(2.0, 3, length=2)]
    with pytest.raises(ValueError, match="out of range|empty channel set"):
        engine(trace, small_config, sets)


class TestDESAgreement:
    """The fast model must track the exact engine closely on light loads
    and preserve ordering on heavy loads (its job is ranking strategies)."""

    def _trace(self, rng, n=400, wids=2):
        return [
            IORequest(
                arrival_us=float(rng.uniform(0, 20_000)),
                workload_id=int(rng.integers(0, wids)),
                op=OpType(int(rng.integers(0, 2))),
                lpn=int(rng.integers(0, 2048)),
                length=int(rng.integers(1, 4)),
            )
            for _ in range(n)
        ]

    def test_total_latency_exact_on_light_load(self, small_config, rng):
        # Light load: queueing reorders nothing, the models should coincide.
        reqs = [
            IORequest(
                arrival_us=float(i) * 2_000,
                workload_id=int(rng.integers(0, 2)),
                op=OpType(int(rng.integers(0, 2))),
                lpn=int(rng.integers(0, 2048)),
                length=int(rng.integers(1, 4)),
            )
            for i in range(100)
        ]
        exact = simulate(list(reqs), small_config, shared_sets(2))
        approx = fast_simulate(list(reqs), small_config, shared_sets(2))
        assert approx.total_latency_us == pytest.approx(
            exact.total_latency_us, rel=0.01
        )

    def test_total_latency_close_on_moderate_load(self, small_config, rng):
        # Under queueing the disciplines differ (arrival-order timeline vs
        # phase-order grants), so only coarse agreement is required here;
        # ranking fidelity is covered below and by the fidelity ablation.
        reqs = self._trace(rng)
        exact = simulate(list(reqs), small_config, shared_sets(2))
        approx = fast_simulate(list(reqs), small_config, shared_sets(2))
        assert approx.total_latency_us == pytest.approx(
            exact.total_latency_us, rel=0.5
        )
        assert approx.requests == exact.requests
        assert approx.subrequests == exact.subrequests

    def test_preserves_allocation_ordering(self, small_config, rng):
        """If the DES says isolation beats sharing for a mix, so must the
        fast model (and vice versa)."""
        # Write-heavy tenant 0 + read-only tenant 1, strongly interfering.
        reqs = [write(float(i) * 12, i % 256, wid=0) for i in range(600)] + [
            read(float(i) * 35, i % 1024, wid=1) for i in range(200)
        ]
        shared = shared_sets(2)
        isolated = {0: [0, 1, 2, 3], 1: [4, 5, 6, 7]}
        exact_gap = (
            simulate(list(reqs), small_config, shared).total_latency_us
            - simulate(list(reqs), small_config, isolated).total_latency_us
        )
        fast_gap = (
            fast_simulate(list(reqs), small_config, shared).total_latency_us
            - fast_simulate(list(reqs), small_config, isolated).total_latency_us
        )
        assert (exact_gap > 0) == (fast_gap > 0)


class TestPlacementModes:
    def test_reads_follow_static_stripes(self, small_config):
        # Consecutive-page read parallelises exactly like the DES.
        t = ServiceTimes.from_config(small_config)
        result = fast_simulate([read(0.0, 0, length=4)], small_config, shared_sets())
        assert result.read.mean_us == pytest.approx(t.read_service_us)

    def test_dynamic_mode_spreads_colocated_writes(self, small_config):
        from repro.ssd import PageAllocMode

        reqs = lambda: [write(float(i) * 0.1, 0) for i in range(32)]
        static = FastLatencyModel(small_config, reqs()).run(
            shared_sets(), {0: PageAllocMode.STATIC}
        )
        dynamic = FastLatencyModel(small_config, reqs()).run(
            shared_sets(), {0: PageAllocMode.DYNAMIC}
        )
        assert dynamic.write.mean_us < static.write.mean_us

    def test_channel_restriction_respected(self, small_config):
        # A one-channel tenant serialises on that channel's dies.
        t = ServiceTimes.from_config(small_config)
        sets = {0: [3]}
        result = fast_simulate(
            [write(0.0, i) for i in range(8)], small_config, sets
        )
        assert result.write.max_us > t.write_service_us
