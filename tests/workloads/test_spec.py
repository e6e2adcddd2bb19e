"""WorkloadSpec validation and derived properties."""

from dataclasses import replace

import pytest

from repro.ssd import OpType
from repro.workloads import WorkloadSpec, generate


def spec(**kwargs):
    defaults = dict(name="t", write_ratio=0.5)
    defaults.update(kwargs)
    return WorkloadSpec(**defaults)


class TestDerived:
    def test_read_ratio_complements(self):
        # the generator draws reads at 1 - write_ratio
        stream = generate(spec(write_ratio=0.3), 4000, workload_id=0, seed=1)
        reads = sum(1 for r in stream if r.op is OpType.READ)
        assert reads / len(stream) == pytest.approx(0.7, abs=0.03)

    def test_write_dominated_boundary(self):
        assert not spec(write_ratio=0.5).is_write_dominated
        assert spec(write_ratio=0.51).is_write_dominated

    def test_mean_interarrival(self):
        assert spec(rate_rps=1000).mean_interarrival_us == pytest.approx(1000.0)

    def test_scaled_rate(self):
        base = spec(rate_rps=100)
        doubled = replace(base, rate_rps=base.rate_rps * 2.0)
        assert doubled.mean_interarrival_us == base.mean_interarrival_us / 2
        with pytest.raises(ValueError):
            replace(base, rate_rps=0.0)

    def test_with_name(self):
        assert spec().with_name("other").name == "other"

    def test_describe(self):
        text = spec(write_ratio=0.9).describe()
        assert "write-dominated" in text


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(write_ratio=-0.1),
            dict(write_ratio=1.1),
            dict(rate_rps=0),
            dict(mean_request_pages=0.5),
            dict(max_request_pages=0),
            dict(footprint_pages=0),
            dict(sequential_fraction=1.5),
            dict(skew=-1.0),
            dict(burstiness=0.5),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            spec(**kwargs)

    def test_frozen(self):
        s = spec()
        with pytest.raises(AttributeError):
            s.write_ratio = 0.9  # type: ignore[misc]
