"""Metrics registry: counters, gauges, histograms, and series.

The registry is the single sink every instrumented component publishes
into — the simulator, the FTL controller, garbage collection, the DRAM
buffer, the fast model, the keeper, and the training loop.  It is
deliberately zero-dependency and cheap: a metric handle is fetched once
(``registry.counter("sim.requests")``) and then mutated with plain
attribute arithmetic, so the hot paths pay one branch and one add.

Four metric kinds cover everything the experiments need:

* :class:`Counter` — monotonically increasing event count;
* :class:`Gauge` — last-written value (e.g. a final busy fraction);
* :class:`Histogram` — fixed-bucket latency distribution with estimated
  p50/p95/p99 (bucket-interpolated, exact min/max/mean);
* :class:`Series` — append-only ``(x, value)`` pairs for per-epoch or
  per-sample time series (training curves, utilization profiles).
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_US",
]

#: Geometric upper bucket bounds (microseconds) spanning DRAM hits (~2 us)
#: through GC-stalled multi-millisecond tails; the final bucket is open.
DEFAULT_LATENCY_BUCKETS_US: tuple[float, ...] = (
    5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0, 50_000.0,
    100_000.0, 1_000_000.0,
)


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n

    def snapshot(self):
        return self.value


class Gauge:
    """Last-value metric.

    Non-finite writes (NaN/inf) are dropped and tallied in
    :attr:`dropped` instead of poisoning the stored value.
    """

    __slots__ = ("name", "value", "dropped")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.dropped = 0

    def set(self, value: float) -> None:
        if not math.isfinite(value):
            self.dropped += 1
            return
        self.value = value

    def snapshot(self):
        return self.value


class Histogram:
    """Fixed-bucket distribution with interpolated percentiles.

    Buckets are upper bounds; an implicit open bucket catches the
    overflow.  ``observe`` is O(log buckets); percentiles interpolate
    linearly inside the winning bucket (the open bucket interpolates up
    to the observed maximum), so p50/p95/p99 are estimates whose error
    is bounded by the bucket width — plenty for latency reporting, and
    far cheaper than keeping raw samples.

    Non-finite observations (NaN/inf) are dropped and tallied in
    :attr:`dropped` instead of poisoning ``total``/``mean``/min/max.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max", "dropped")

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_US
    ) -> None:
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.dropped = 0

    def observe(self, value: float) -> None:
        if not math.isfinite(value):
            self.dropped += 1
            return
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated q-th percentile (0..100) by bucket interpolation."""
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0.0
        rank = q / 100.0 * self.count
        cum = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            prev_cum = cum
            cum += n
            if cum >= rank:
                lo = self.bounds[i - 1] if i > 0 else max(0.0, self.min)
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                lo = max(lo, self.min)
                # clamp to the observed max unconditionally — 0.0 is a
                # legitimate maximum (all-zero samples), not "unset"
                hi = min(hi, self.max)
                if hi <= lo:
                    return lo
                frac = (rank - prev_cum) / n
                return lo + (hi - lo) * frac
        return self.max

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": {
                **{str(b): c for b, c in zip(self.bounds, self.counts)},
                "+inf": self.counts[-1],
            },
        }


class Series:
    """Append-only ``(x, value)`` pairs — training curves, profiles."""

    __slots__ = ("name", "xs", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.xs: list[float] = []
        self.values: list[float] = []

    def append(self, x: float, value: float) -> None:
        self.xs.append(x)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.xs)

    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.xs, self.values))

    def snapshot(self) -> dict:
        return {"x": list(self.xs), "values": list(self.values)}


class MetricsRegistry:
    """Named metric store with get-or-create accessors.

    Names are dotted (``sim.read_latency_us``, ``ftl.gc.collections``);
    requesting an existing name returns the same object, so components
    can share a metric without coordination.  Requesting a name that
    exists under a different kind raises — silent aliasing would corrupt
    both metrics.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    def _get_or_create(self, name: str, kind: type, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, *args)
            self._metrics[name] = metric
        elif type(metric) is not kind:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_US
    ) -> Histogram:
        return self._get_or_create(name, Histogram, buckets)

    def series(self, name: str) -> Series:
        return self._get_or_create(name, Series)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def get(self, name: str):
        """Registered metric or None (read-side lookup, no creation)."""
        return self._metrics.get(name)

    def dropped_samples(self) -> int:
        """Total non-finite samples dropped across histograms and gauges."""
        return sum(
            metric.dropped
            for metric in self._metrics.values()
            if isinstance(metric, (Histogram, Gauge))
        )

    def snapshot(self) -> dict:
        """Nested plain-data view: kind -> name -> value."""
        out: dict[str, dict] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "series": {},
        }
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out["counters"][name] = metric.snapshot()
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.snapshot()
            elif isinstance(metric, Histogram):
                out["histograms"][name] = metric.snapshot()
            elif isinstance(metric, Series):
                out["series"][name] = metric.snapshot()
        dropped = self.dropped_samples()
        if dropped:
            out["counters"]["obs.dropped_samples"] = dropped
        return out

    def to_openmetrics(self) -> str:
        """OpenMetrics text exposition of counters, gauges, and histograms.

        Dotted names become underscore-separated; counters gain the
        ``_total`` suffix; histograms are converted from per-bucket to
        cumulative ``_bucket{le="..."}`` form with ``_sum`` and
        ``_count``.  Series are omitted (no OpenMetrics equivalent).
        The exposition ends with ``# EOF`` per the spec.
        """
        lines: list[str] = []
        for name in self.names():
            metric = self._metrics[name]
            om = _om_name(name)
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {om} counter")
                lines.append(f"{om}_total {_om_value(metric.value)}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {om} gauge")
                lines.append(f"{om} {_om_value(metric.value)}")
            elif isinstance(metric, Histogram):
                lines.append(f"# TYPE {om} histogram")
                cum = 0
                for bound, n in zip(metric.bounds, metric.counts):
                    cum += n
                    lines.append(
                        f'{om}_bucket{{le="{_om_value(bound)}"}} {cum}'
                    )
                cum += metric.counts[-1]
                lines.append(f'{om}_bucket{{le="+Inf"}} {cum}')
                lines.append(f"{om}_sum {_om_value(metric.total)}")
                lines.append(f"{om}_count {metric.count}")
        dropped = self.dropped_samples()
        if dropped:
            lines.append("# TYPE obs_dropped_samples counter")
            lines.append(f"obs_dropped_samples_total {dropped}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"


def _om_name(name: str) -> str:
    """Sanitize a dotted metric name into an OpenMetrics identifier."""
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _om_value(value: float) -> str:
    """Render a sample value: integral floats without the trailing .0."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)
