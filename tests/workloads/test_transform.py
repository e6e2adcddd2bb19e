"""Request-list copies."""

from repro.ssd import IORequest, OpType
from repro.workloads import clone


def trace(n=10, gap=100.0):
    return [
        IORequest(arrival_us=i * gap, workload_id=i % 2, op=OpType.READ, lpn=i)
        for i in range(n)
    ]


class TestClone:
    def test_fields_preserved_objects_fresh(self):
        original = trace(5)
        original[0].complete_us = 123.0
        copies = clone(original)
        assert copies[0] is not original[0]
        assert copies[0].complete_us == -1.0  # completion state reset
        assert copies[0].arrival_us == original[0].arrival_us
        assert copies[0].lpn == original[0].lpn


class TestComposition:
    def test_simulation_equivalence_after_clone(self, small_config):
        """Cloned traces drive the simulator identically."""
        from repro.ssd import simulate

        reqs = trace(50, gap=20.0)
        sets = {0: list(range(8)), 1: list(range(8))}
        a = simulate(clone(reqs), small_config, sets)
        b = simulate(clone(reqs), small_config, sets)
        assert a.total_latency_us == b.total_latency_us
