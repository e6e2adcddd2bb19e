"""IORequest / OpType semantics."""

import pytest

from repro.ssd import IORequest, OpType


class TestOpType:
    @pytest.mark.parametrize(
        "text,expected",
        [("r", OpType.READ), ("Read", OpType.READ), ("0", OpType.READ),
         ("W", OpType.WRITE), ("write", OpType.WRITE), ("1", OpType.WRITE)],
    )
    def test_from_str(self, text, expected):
        assert OpType.from_str(text) is expected

    def test_from_str_rejects_unknown(self):
        with pytest.raises(ValueError):
            OpType.from_str("trim")

    def test_str_roundtrip(self):
        assert OpType.from_str(str(OpType.READ)) is OpType.READ
        assert OpType.from_str(str(OpType.WRITE)) is OpType.WRITE


class TestIORequest:
    def test_basic_fields(self):
        req = IORequest(arrival_us=5.0, workload_id=2, op=OpType.WRITE, lpn=10, length=4)
        assert list(req.lpns()) == [10, 11, 12, 13]
        assert not req.is_read

    def test_coerces_int_op(self):
        req = IORequest(arrival_us=0.0, workload_id=0, op=0, lpn=0)  # type: ignore[arg-type]
        assert req.op is OpType.READ

    def test_latency_requires_completion(self):
        req = IORequest(arrival_us=1.0, workload_id=0, op=OpType.READ, lpn=0)
        with pytest.raises(RuntimeError):
            _ = req.latency_us
        req.complete_us = 101.0
        assert req.latency_us == pytest.approx(100.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(arrival_us=-1.0, workload_id=0, op=OpType.READ, lpn=0),
            dict(arrival_us=0.0, workload_id=-1, op=OpType.READ, lpn=0),
            dict(arrival_us=0.0, workload_id=0, op=OpType.READ, lpn=-1),
            dict(arrival_us=0.0, workload_id=0, op=OpType.READ, lpn=0, length=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            IORequest(**kwargs)
