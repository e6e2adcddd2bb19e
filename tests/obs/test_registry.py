"""Metrics registry: counters, gauges, histograms, series."""

import json

import pytest

from repro.obs import DEFAULT_LATENCY_BUCKETS_US, Counter, Gauge, Histogram, MetricsRegistry, Series


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6
        assert c.snapshot() == 6


class TestGauge:
    def test_keeps_last_value(self):
        g = Gauge("x")
        g.set(1.5)
        g.set(2.5)
        assert g.value == 2.5


class TestHistogram:
    def test_counts_mean_min_max(self):
        h = Histogram("lat")
        for v in (1.0, 7.0, 150.0):
            h.observe(v)
        assert h.count == 3
        assert h.mean == pytest.approx(158.0 / 3)
        assert h.min == 1.0
        assert h.max == 150.0

    def test_bucket_assignment_and_overflow(self):
        h = Histogram("lat", buckets=[10.0, 100.0])
        h.observe(5.0)     # <= 10
        h.observe(50.0)    # <= 100
        h.observe(5000.0)  # overflow
        snap = h.snapshot()
        assert snap["buckets"] == {"10.0": 1, "100.0": 1, "+inf": 1}

    def test_percentiles_bounded_by_bucket_and_extremes(self):
        h = Histogram("lat")
        for v in range(1, 101):
            h.observe(float(v))
        # p50 must land inside the bucket containing the true median (50.5)
        assert 20.0 <= h.p50 <= 100.0
        assert h.percentile(0) >= h.min - 1e-9
        assert h.percentile(100) == pytest.approx(h.max)
        assert h.p95 <= h.max
        assert h.p99 <= h.max

    def test_percentile_single_value(self):
        h = Histogram("lat")
        h.observe(42.0)
        assert h.p50 == pytest.approx(42.0)
        assert h.p99 == pytest.approx(42.0)

    def test_percentile_empty_is_zero(self):
        assert Histogram("lat").p95 == 0.0

    def test_percentile_validates_range(self):
        with pytest.raises(ValueError):
            Histogram("lat").percentile(101)

    def test_rejects_empty_buckets(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=[])

    def test_observe_many(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count == 3

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS_US) == sorted(
            DEFAULT_LATENCY_BUCKETS_US
        )


class TestSeries:
    def test_append_and_points(self):
        s = Series("train.loss")
        s.append(0, 1.5)
        s.append(1, 1.2)
        assert len(s) == 2
        assert s.points() == [(0, 1.5), (1, 1.2)]


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_get_without_creation(self):
        reg = MetricsRegistry()
        assert reg.get("missing") is None
        c = reg.counter("a")
        assert reg.get("a") is c

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert reg.names() == ["a", "b"]

    def test_snapshot_sections(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(10.0)
        reg.series("s").append(0, 2.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["series"]["s"] == {"x": [0], "values": [2.0]}

    def test_to_json_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        doc = json.loads(json.dumps(reg.snapshot()))
        assert doc["counters"]["c"] == 1


class TestAllZeroPercentile:
    def test_all_zero_samples_report_zero_percentiles(self):
        # regression: `if self.max` treated a legitimate max of 0.0 as
        # "unset", so p50 of all-zero samples interpolated up to ~2.5us
        h = Histogram("lat")
        for _ in range(100):
            h.observe(0.0)
        assert h.p50 == 0.0
        assert h.p95 == 0.0
        assert h.p99 == 0.0
        snap = h.snapshot()
        assert snap["min"] == 0.0 and snap["max"] == 0.0

    def test_empty_histogram_snapshot_extremes_are_zero(self):
        snap = Histogram("lat").snapshot()
        assert snap["min"] == 0.0
        assert snap["max"] == 0.0


class TestNonFiniteGuards:
    def test_histogram_drops_nan_and_inf(self):
        h = Histogram("lat")
        h.observe(5.0)
        h.observe(float("nan"))
        h.observe(float("inf"))
        h.observe(float("-inf"))
        assert h.count == 1
        assert h.dropped == 3
        assert h.mean == 5.0
        assert h.min == 5.0 and h.max == 5.0

    def test_observe_many_drops_only_the_poisoned_samples(self):
        h = Histogram("lat")
        for v in (1.0, float("nan"), 3.0):
            h.observe(v)
        assert h.count == 2
        assert h.dropped == 1
        assert h.total == 4.0

    def test_gauge_drops_non_finite_writes(self):
        g = Gauge("x")
        g.set(2.0)
        g.set(float("nan"))
        g.set(float("inf"))
        assert g.value == 2.0
        assert g.dropped == 2

    def test_registry_surfaces_dropped_samples_counter(self):
        reg = MetricsRegistry()
        reg.histogram("lat").observe(float("nan"))
        reg.gauge("g").set(float("inf"))
        assert reg.dropped_samples() == 2
        snap = reg.snapshot()
        assert snap["counters"]["obs.dropped_samples"] == 2

    def test_clean_registry_has_no_dropped_counter(self):
        reg = MetricsRegistry()
        reg.histogram("lat").observe(1.0)
        assert "obs.dropped_samples" not in reg.snapshot()["counters"]


class TestPercentileGolden:
    """Bucket-interpolated percentiles vs exact numpy on a seeded
    realistic latency distribution: error bounded by one bucket width."""

    def _bucket_width(self, value):
        import bisect

        bounds = list(DEFAULT_LATENCY_BUCKETS_US)
        i = bisect.bisect_left(bounds, value)
        if i == 0:
            return bounds[0]
        if i >= len(bounds):
            return bounds[-1] - bounds[-2]
        return bounds[i] - bounds[i - 1]

    def test_realistic_latency_distribution(self):
        import numpy as np

        rng = np.random.RandomState(42)
        # lognormal body (~100us median) plus a GC-stalled tail
        samples = np.concatenate([
            rng.lognormal(mean=np.log(100.0), sigma=0.8, size=4000),
            rng.lognormal(mean=np.log(5000.0), sigma=0.5, size=200),
        ])
        h = Histogram("lat")
        for v in samples.tolist():
            h.observe(v)
        for q in (50, 95, 99):
            exact = float(np.percentile(samples, q))
            est = h.percentile(q)
            assert abs(est - exact) <= self._bucket_width(exact), (
                f"p{q}: est {est:.1f} vs exact {exact:.1f}"
            )

    def test_single_sample(self):
        h = Histogram("lat")
        h.observe(123.0)
        for q in (0, 50, 95, 99, 100):
            assert h.percentile(q) == 123.0

    def test_all_samples_in_open_inf_bucket(self):
        h = Histogram("lat", buckets=[10.0])
        for v in (50.0, 60.0, 70.0):
            h.observe(v)
        # the open bucket interpolates between the last bound (clamped to
        # min) and the observed max — estimates stay within [min, max]
        for q in (50, 95, 99):
            assert 50.0 <= h.percentile(q) <= 70.0
        assert h.percentile(100) == 70.0


class TestOpenMetrics:
    def test_exposition_covers_all_kinds_and_parses(self):
        import re

        reg = MetricsRegistry()
        reg.counter("sim.requests").inc(7)
        reg.gauge("sim.makespan_us").set(12.5)
        h = reg.histogram("sim.read_latency_us", buckets=[10.0, 100.0])
        for v in (5.0, 50.0, 500.0):
            h.observe(v)
        reg.series("util.ch0").append(1.0, 0.5)  # series are omitted
        text = reg.to_openmetrics()
        assert text.endswith("# EOF\n")
        assert "sim_requests_total 7" in text
        assert "sim_makespan_us 12.5" in text
        # cumulative buckets: 1 <= 10, 2 <= 100, 3 <= +Inf
        assert 'sim_read_latency_us_bucket{le="10"} 1' in text
        assert 'sim_read_latency_us_bucket{le="100"} 2' in text
        assert 'sim_read_latency_us_bucket{le="+Inf"} 3' in text
        assert "sim_read_latency_us_count 3" in text
        assert "util_ch0" not in text
        line_re = re.compile(
            r'^(# (TYPE|EOF).*|[a-zA-Z_][a-zA-Z0-9_]*'
            r'(\{le="[^"]+"\})? [-+0-9.eE]+(e[-+]?\d+)?)$'
        )
        for line in text.strip().splitlines():
            assert line_re.match(line), f"unparseable line: {line!r}"

    def test_dropped_samples_appear_in_exposition(self):
        reg = MetricsRegistry()
        reg.histogram("lat").observe(float("nan"))
        assert "obs_dropped_samples_total 1" in reg.to_openmetrics()

class TestOpenMetricsLabels:
    def make_registry(self):
        reg = MetricsRegistry()
        reg.counter("sim.requests").inc(7)
        reg.gauge("sim.makespan_us").set(12.5)
        h = reg.histogram("sim.read_latency_us", buckets=[10.0])
        h.observe(5.0)
        return reg

    def test_no_labels_output_is_unchanged(self):
        # the exposition is byte-identical to its historical, label-free
        # form: only histogram buckets carry a label (``le``)
        reg = self.make_registry()
        assert reg.to_openmetrics() == (
            "# TYPE sim_makespan_us gauge\n"
            "sim_makespan_us 12.5\n"
            "# TYPE sim_read_latency_us histogram\n"
            'sim_read_latency_us_bucket{le="10"} 1\n'
            'sim_read_latency_us_bucket{le="+Inf"} 1\n'
            "sim_read_latency_us_sum 5\n"
            "sim_read_latency_us_count 1\n"
            "# TYPE sim_requests counter\n"
            "sim_requests_total 7\n"
            "# EOF\n"
        )
