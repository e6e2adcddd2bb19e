"""Plain-text tables and series for experiment output.

Benches regenerate the paper's tables and figures as text: aligned tables
for Table-style results, labelled numeric series for figure-style results.
Everything returns strings so tests can assert on content and benches can
print.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "format_series", "format_metrics", "banner"]

#: character width of a :func:`banner` line
_BANNER_WIDTH = 72


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render an aligned monospace table."""
    def cell(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    str_rows = [[cell(v) for v in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} does not match {len(headers)} headers"
            )
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, text in enumerate(row):
            widths[i] = max(widths[i], len(text))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(t.ljust(w) for t, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence[object],
    series: dict[str, Sequence[float]],
    *,
    title: str | None = None,
) -> str:
    """Render figure-style data: one x column plus one column per series."""
    for name, values in series.items():
        if len(values) != len(x_values):
            raise ValueError(f"series {name!r} length mismatch")
    headers = [x_label, *series.keys()]
    rows = [
        [x, *(values[i] for values in series.values())]
        for i, x in enumerate(x_values)
    ]
    return format_table(headers, rows, title=title)


def format_metrics(snapshot: dict) -> str:
    """Render a :meth:`repro.obs.MetricsRegistry.snapshot` as tables.

    Counters and gauges share one name/value table; histograms get a
    distribution table (count, mean, tail percentiles); series are
    summarised by length and final value so experiment reports can embed
    the registry without dumping raw points.
    """
    parts: list[str] = []
    scalars = [
        [name, value]
        for section in ("counters", "gauges")
        for name, value in sorted(snapshot.get(section, {}).items())
    ]
    if scalars:
        parts.append(format_table(["metric", "value"], scalars, title="counters & gauges"))
    histograms = snapshot.get("histograms", {})
    if histograms:
        rows = [
            [name, h["count"], h["mean"], h["p50"], h["p95"], h["p99"], h["max"]]
            for name, h in sorted(histograms.items())
        ]
        parts.append(
            format_table(
                ["histogram", "count", "mean", "p50", "p95", "p99", "max"],
                rows,
                title="latency histograms (us)",
                float_format="{:.1f}",
            )
        )
    series = snapshot.get("series", {})
    if series:
        rows = [
            [name, len(s["values"]), s["values"][-1] if s["values"] else "-"]
            for name, s in sorted(series.items())
        ]
        parts.append(
            format_table(["series", "points", "last"], rows, title="series")
        )
    dropped = snapshot.get("counters", {}).get("obs.dropped_samples")
    if dropped:
        parts.append(
            f"WARNING: {dropped} non-finite sample(s) were dropped "
            f"(obs.dropped_samples) — some metric emitted NaN/inf"
        )
    return "\n\n".join(parts) if parts else "(no metrics recorded)"


def banner(text: str) -> str:
    """Section separator used by bench output."""
    pad = max(0, _BANNER_WIDTH - len(text) - 2)
    left = pad // 2
    return f"{'=' * left} {text} {'=' * (pad - left)}"
