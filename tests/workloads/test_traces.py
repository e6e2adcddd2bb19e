"""Trace file round trips and error handling."""

import io
from pathlib import Path
import tempfile

from hypothesis import given
from hypothesis import strategies as st
import pytest

from repro.ssd import IORequest, OpType
from repro.workloads import traces

request_strategy = st.builds(
    IORequest,
    arrival_us=st.floats(0, 1e8, allow_nan=False).map(lambda v: round(v, 3)),
    workload_id=st.integers(0, 7),
    op=st.sampled_from([OpType.READ, OpType.WRITE]),
    lpn=st.integers(0, 2**40),
    length=st.integers(1, 64),
)


def parse(text, **kwargs):
    """Parse trace-format text."""
    return list(traces.iter_records(io.StringIO(text), **kwargs))


def dumped(reqs) -> str:
    """The trace-format text :func:`traces.dump` writes for ``reqs``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        traces.dump(reqs, path)
        return path.read_text(encoding="utf-8")


class TestRoundTrip:
    @given(st.lists(request_strategy, max_size=30))
    def test_string_roundtrip(self, reqs):
        parsed = parse(dumped(reqs))
        assert len(parsed) == len(reqs)
        for a, b in zip(reqs, parsed):
            assert a.arrival_us == pytest.approx(b.arrival_us, abs=1e-3)
            assert (a.workload_id, a.op, a.lpn, a.length) == (
                b.workload_id,
                b.op,
                b.lpn,
                b.length,
            )

    def test_file_roundtrip(self, tmp_path):
        reqs = [
            IORequest(arrival_us=1.5, workload_id=0, op=OpType.READ, lpn=10, length=2),
            IORequest(arrival_us=3.25, workload_id=1, op=OpType.WRITE, lpn=77),
        ]
        path = tmp_path / "trace.csv"
        traces.dump(reqs, path)
        loaded = traces.load(path)
        assert len(loaded) == 2
        assert loaded[1].op is OpType.WRITE
        assert loaded[1].lpn == 77


class TestParsing:
    def test_skips_comments_and_blank_lines(self):
        text = "# comment\n\n0.0,0,R,1,1\n# another\n1.0,0,W,2,1\n"
        assert len(parse(text)) == 2

    def test_skips_column_header(self):
        text = "arrival_us,workload_id,op,lpn,length\n0.0,0,R,1,1\n"
        assert len(parse(text)) == 1

    def test_strict_rejects_wrong_field_count(self):
        with pytest.raises(ValueError, match="line 1"):
            parse("0.0,0,R,1\n", strict=True)

    def test_strict_rejects_bad_op(self):
        with pytest.raises(ValueError, match="line 1"):
            parse("0.0,0,X,1,1\n", strict=True)

    def test_strict_rejects_bad_numbers(self):
        with pytest.raises(ValueError):
            parse("abc,0,R,1,1\n", strict=True)

    def test_strict_error_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse("0.0,0,R,1,1\n0.0,0,R,1\n", strict=True)


class TestLenientParsing:
    DIRTY = "0.0,0,R,1,1\nabc,0,R,1,1\n1.0,0,W,2,1\n2.0,0,R,3\n3.0,0,R,4,1\n"

    def test_skips_malformed_lines(self):
        with pytest.warns(traces.MalformedTraceWarning):
            parsed = parse(self.DIRTY)
        assert [r.lpn for r in parsed] == [1, 2, 4]

    def test_warning_counts_and_names_first_error(self):
        with pytest.warns(traces.MalformedTraceWarning, match=r"skipped 2 .*line 2"):
            parse(self.DIRTY)

    def test_clean_trace_warns_nothing(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parsed = parse("0.0,0,R,1,1\n1.0,0,W,2,1\n")
        assert len(parsed) == 2

    def test_file_load_is_lenient(self, tmp_path):
        path = tmp_path / "dirty.csv"
        path.write_text(self.DIRTY, encoding="utf-8")
        with pytest.warns(traces.MalformedTraceWarning):
            assert len(traces.load(path)) == 3
        with pytest.raises(ValueError):
            traces.load(path, strict=True)
