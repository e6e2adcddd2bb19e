"""TelemetrySink: delta-encoded windows, weak scheduling, JSONL stream,
and the utilization view over its windows."""

import json

import pytest

from repro.obs import TELEMETRY_SCHEMA_VERSION, MetricsRegistry, Observability, TelemetrySink
from repro.obs.telemetry import load_header
from repro.ssd import SSDConfig, SSDSimulator
from repro.ssd.engine import EventLoop, Resource
from repro.workloads import WorkloadSpec, synthesize_mix


def drive(loop, registry, *, end_us=10.0, step_us=2.0, inc=3):
    """Schedule strong work that bumps a counter every ``step_us``."""
    t = step_us
    while t <= end_us:
        def bump(t=t):
            registry.counter("work.items").inc(inc)
            registry.histogram("work.lat_us").observe(t * 10.0)

        loop.schedule(t, bump)
        t += step_us


def busy_run(interval_us=10.0, jobs=5, service=8.0):
    """One channel and one idle die, back-to-back jobs on the channel."""
    loop = EventLoop()
    channel = Resource(loop, "ch0", kind="channel")
    die = Resource(loop, "die0", kind="die")
    for i in range(jobs):
        loop.schedule(
            i * service,
            lambda: channel.acquire((0,), service, lambda start: None),
        )
    sink = TelemetrySink(interval_us)
    sink.attach(loop, MetricsRegistry(), channels=[channel], dies=[die])
    loop.run()
    sink.flush()
    return loop, sink


def device_run():
    """A 2-tenant ``SSDConfig.small()`` run sampled every 250us."""
    config = SSDConfig.small()
    specs = [WorkloadSpec(name=f"t{w}", write_ratio=0.5, rate_rps=3000.0)
             for w in range(2)]
    mix = synthesize_mix(specs, total_requests=200, seed=1)
    obs = Observability(trace=False, telemetry=250.0)
    SSDSimulator(config, {0: range(4), 1: range(4, 8)}, obs=obs).run(mix.requests)
    return config, obs


def integral_us(util, key="channel_busy", column=0):
    """Busy time the utilization rows add up to (fraction x window)."""
    ends = util["times_us"]
    spans = [b - a for a, b in zip([0.0, *ends], ends)]
    return sum(row[column] * span for row, span in zip(util[key], spans))


class TestWindows:
    def test_counter_deltas_per_window(self):
        loop = EventLoop()
        registry = MetricsRegistry()
        drive(loop, registry, end_us=10.0, step_us=2.0, inc=3)
        sink = TelemetrySink(4.0)
        sink.attach(loop, registry)
        loop.run()
        sink.flush()
        # windows close at 4.0 and 8.0 (ticks) and 10.0 (flush)
        assert [w["t_end_us"] for w in sink.windows] == [4.0, 8.0, 10.0]
        assert [w["counters"]["work.items"] for w in sink.windows] == [6, 6, 3]
        # deltas reassemble into the final total
        assert sum(w["counters"]["work.items"] for w in sink.windows) == \
            registry.get("work.items").value

    def test_histogram_bucket_deltas_sum_to_totals(self):
        loop = EventLoop()
        registry = MetricsRegistry()
        drive(loop, registry, end_us=10.0, step_us=2.0)
        sink = TelemetrySink(4.0)
        sink.attach(loop, registry)
        loop.run()
        sink.flush()
        hist = registry.get("work.lat_us")
        per_bucket = [0] * len(hist.counts)
        total_count = 0
        for w in sink.windows:
            entry = w["histograms"]["work.lat_us"]
            total_count += entry["count"]
            for i, d in enumerate(entry["buckets"]):
                per_bucket[i] += d
        assert total_count == hist.count
        assert per_bucket == hist.counts

    def test_quiet_window_skips_unchanged_metrics(self):
        loop = EventLoop()
        registry = MetricsRegistry()
        registry.counter("work.items").inc(5)  # before baseline
        loop.schedule(1.0, lambda: None)
        loop.schedule(9.0, lambda: None)
        sink = TelemetrySink(4.0)
        sink.attach(loop, registry)
        loop.run()
        sink.flush()
        assert all("work.items" not in w["counters"] for w in sink.windows)

    def test_empty_flush_records_nothing(self):
        loop = EventLoop()
        sink = TelemetrySink(4.0)
        sink.attach(loop, MetricsRegistry())
        loop.run()
        sink.flush()
        assert sink.windows == []

    def test_flush_is_idempotent_and_safe_unattached(self):
        _, sink = busy_run()
        windows = len(sink.windows)
        sink.flush()  # a second flush at the same time: zero-length, no row
        assert len(sink.windows) == windows
        assert len(sink.utilization()["times_us"]) == windows
        TelemetrySink(5.0).flush()  # never attached: a no-op

    def test_resource_deltas(self):
        loop = EventLoop()
        registry = MetricsRegistry()
        channel = Resource(loop, name="ch0", kind="channel")
        loop.schedule(0.0, lambda: channel.acquire((0, 0.0), 6.0, lambda _s: None))
        loop.schedule(10.0, lambda: None)
        sink = TelemetrySink(5.0)
        sink.attach(loop, registry, channels=[channel])
        loop.run()
        sink.flush()
        busy = [w["resources"]["channel_busy_us"][0] for w in sink.windows]
        # booked at grant time: the full 6us lands in the first window
        assert busy == [6.0, 0.0]


class TestNeverPerturbs:
    def test_sink_never_extends_the_run(self):
        loop = EventLoop()
        registry = MetricsRegistry()
        drive(loop, registry, end_us=7.0, step_us=7.0)
        sink = TelemetrySink(3.0)
        sink.attach(loop, registry)
        loop.run()
        assert loop.now == 7.0  # not rounded up to a tick boundary

    def test_does_not_keep_empty_loop_alive(self):
        # sampling resources too: the last job ends at 2 x 5us, and no
        # tick at 20us keeps the loop alive past it
        loop, _ = busy_run(interval_us=10.0, jobs=2, service=5.0)
        assert not loop  # heap drained
        assert loop.now == 2 * 5.0


class TestUtilization:
    def test_samples_cover_the_run(self):
        loop, sink = busy_run()
        util = sink.utilization()
        assert len(util["times_us"]) == len(sink.windows) >= 4
        assert util["times_us"] == sorted(util["times_us"])
        assert util["times_us"][-1] == loop.now  # the tail row ends the run
        # row shape: one column per channel / die
        for key in ("channel_busy", "die_busy", "channel_queue", "die_queue"):
            assert all(len(row) == 1 for row in util[key])

    def test_fractions_integrate_to_booked_busy_time(self):
        _, sink = busy_run(interval_us=10.0, jobs=5, service=8.0)
        util = sink.utilization()
        # busy time is booked at grant, so one window may exceed 1.0, but
        # the rows integrate to the total service time (5 jobs x 8us)
        assert integral_us(util) == pytest.approx(5 * 8.0)
        assert all(row[0] >= 0.0 for row in util["channel_busy"])
        assert integral_us(util, "die_busy") == 0.0  # the die stayed idle

    def test_tail_window_is_flushed(self):
        # a bounded run (`until=`) stops between interval boundaries, so
        # activity after the last tick is dropped unless flushed
        loop = EventLoop()
        channel = Resource(loop, "ch0", kind="channel")
        for when in (0.0, 12.0):
            loop.schedule(
                when, lambda: channel.acquire((0,), 8.0, lambda start: None)
            )
        sink = TelemetrySink(10.0)
        sink.attach(loop, MetricsRegistry(), channels=[channel])
        loop.run(until=15.0)
        assert sink.utilization()["times_us"] == [10.0]
        sink.flush()
        util = sink.utilization()
        assert util["times_us"] == [10.0, 12.0] and loop.now == 12.0
        # with the tail row the series integrates to both jobs (2 x 8us)
        assert integral_us(util) == pytest.approx(2 * 8.0)

    def test_queue_depth_counts_holder_and_waiters(self):
        loop = EventLoop()
        channel = Resource(loop, "ch0", kind="channel")
        # three simultaneous jobs: 1 holder + 2 waiters at t=5
        for _ in range(3):
            loop.schedule(0.0, lambda: channel.acquire((0,), 20.0, lambda s: None))
        sink = TelemetrySink(5.0)
        sink.attach(loop, MetricsRegistry(), channels=[channel])
        loop.run()
        assert sink.windows[0]["resources"]["channel_queue"] == [3]
        assert sink.utilization()["channel_queue"][0] == [3]
        assert sink.utilization()["die_queue"][0] == []

    def test_channel_series(self):
        config, obs = device_run()
        util = obs.export()["utilization"]
        # each channel's series is its column of the view, one point per
        # window, stamped with the window's end time
        assert util["times_us"] == [w["t_end_us"] for w in obs.telemetry.windows]
        assert len(util["times_us"]) >= 2
        for key in ("channel_busy", "channel_queue"):
            assert all(len(row) == config.channels for row in util[key])
        assert max(max(row) for row in util["channel_busy"]) > 0.0
        # the view is the only per-window copy: the registry holds none
        assert not [n for n in obs.registry.snapshot()["series"] if n.startswith("util.")]

    def test_view_is_plain_data(self):
        _, sink = busy_run()
        util = sink.utilization()
        assert util["interval_us"] == 10.0
        rows = len(sink.windows)
        for key in ("times_us", "channel_busy", "die_busy", "channel_queue", "die_queue"):
            assert len(util[key]) == rows
        assert json.loads(json.dumps(util)) == util


class TestJsonl:
    def test_header_and_windows_round_trip(self, tmp_path):
        loop = EventLoop()
        registry = MetricsRegistry()
        drive(loop, registry)
        sink = TelemetrySink(4.0)
        sink.attach(loop, registry)
        loop.run()
        sink.flush()
        path = tmp_path / "run.jsonl"
        written = sink.write_jsonl(path)
        lines = path.read_text().strip().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert header["windows"] == written == len(lines) - 1
        seqs = [json.loads(line)["seq"] for line in lines[1:]]
        assert seqs == list(range(len(seqs)))

    def test_v1_header_is_refused(self):
        _, sink = busy_run()
        header = sink.header()
        assert load_header(header) is header
        with pytest.raises(ValueError, match="schema_version 1"):
            load_header({**header, "schema_version": 1})


class TestValidation:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            TelemetrySink(0.0)

    def test_validates_interval(self):
        # a negative interval is refused too, also when Observability
        # builds the sink from a bare number
        with pytest.raises(ValueError):
            TelemetrySink(-1.0)
        for interval_us in (0.0, -1.0):
            with pytest.raises(ValueError):
                Observability(telemetry=interval_us)
