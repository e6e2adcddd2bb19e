"""DRAM write-back buffer: unit behaviour and simulator integration."""

from hypothesis import given
from hypothesis import strategies as st
import pytest

from repro.ssd import BufferConfig, IORequest, OpType, ServiceTimes, SSDSimulator, WriteBuffer


def cfg(capacity=4, dram=2.0):
    return BufferConfig(capacity_pages=capacity, dram_latency_us=dram)


class TestBufferUnit:
    def test_write_then_read_hits(self):
        buf = WriteBuffer(cfg())
        assert not buf.write(10).hit
        assert buf.read(10).hit
        assert buf.stats.read_hits == 1
        assert buf.flush() == (10,)  # the read hit left the page dirty

    def test_write_coalescing(self):
        buf = WriteBuffer(cfg())
        buf.write(10)
        result = buf.write(10)
        assert result.hit
        assert buf.stats.write_hits == 1
        assert len(buf) == 1

    def test_lru_eviction_order(self):
        buf = WriteBuffer(cfg(capacity=2))
        buf.write(1)
        buf.write(2)
        buf.read(1)          # touch 1: now 2 is LRU
        result = buf.write(3)
        assert result.flash_writes == (2,)
        assert 1 in buf and 3 in buf and 2 not in buf

    def test_clean_evictions_do_not_program_flash(self):
        buf = WriteBuffer(cfg(capacity=1))
        buf.read(7)          # read-allocate, clean
        result = buf.write(8)
        assert result.flash_writes == ()
        assert buf.stats.clean_evictions == 1

    def test_flush_returns_only_dirty(self):
        buf = WriteBuffer(cfg())
        buf.write(1)
        buf.read(2)
        dirty = buf.flush()
        assert dirty == (1,)
        assert len(buf) == 0

    def test_stats_rates(self):
        buf = WriteBuffer(cfg())
        buf.write(1)
        buf.write(1)
        buf.read(1)
        buf.read(9)
        assert buf.stats.write_absorb_rate == pytest.approx(0.5)
        assert buf.stats.read_hit_rate == pytest.approx(0.5)

    def test_empty_rates_are_zero(self):
        stats = WriteBuffer(cfg()).stats
        assert stats.read_hit_rate == 0.0
        assert stats.write_absorb_rate == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BufferConfig(capacity_pages=0)
        with pytest.raises(ValueError):
            BufferConfig(dram_latency_us=-1.0)

    @given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 9)), max_size=80))
    def test_capacity_never_exceeded(self, ops):
        buf = WriteBuffer(cfg(capacity=3))
        for is_write, lpn in ops:
            if is_write:
                buf.write(lpn)
            else:
                buf.read(lpn)
            assert len(buf) <= 3


class TestSimulatorIntegration:
    def _write(self, t, lpn):
        return IORequest(arrival_us=t, workload_id=0, op=OpType.WRITE, lpn=lpn)

    def _read(self, t, lpn):
        return IORequest(arrival_us=t, workload_id=0, op=OpType.READ, lpn=lpn)

    def test_buffered_write_completes_at_dram_latency(self, small_config):
        sim = SSDSimulator(
            small_config, {0: list(range(8))}, buffer=cfg(capacity=64, dram=2.0)
        )
        result = sim.run([self._write(0.0, 1)])
        assert result.write.mean_us == pytest.approx(2.0)

    def test_read_after_buffered_write_is_dram_hit(self, small_config):
        sim = SSDSimulator(
            small_config, {0: list(range(8))}, buffer=cfg(capacity=64, dram=2.0)
        )
        result = sim.run([self._write(0.0, 1), self._read(100.0, 1)])
        assert result.read.mean_us == pytest.approx(2.0)
        assert result.extras["buffer_read_hit_rate"] == 1.0

    def test_evictions_program_flash_in_background(self, small_config):
        t = ServiceTimes.from_config(small_config)
        sim = SSDSimulator(
            small_config, {0: list(range(8))}, buffer=cfg(capacity=2, dram=2.0)
        )
        reqs = [self._write(float(i) * 1000, i) for i in range(6)]
        result = sim.run(reqs)
        # Host writes all complete at DRAM speed...
        assert result.write.max_us == pytest.approx(2.0)
        # ...but evicted pages really were programmed.
        assert result.extras["buffer_dirty_evictions"] == 4
        assert sim.controller.mapped_pages() == 4
        assert result.makespan_us > t.write_service_us

    def test_cold_read_miss_goes_to_flash(self, small_config):
        t = ServiceTimes.from_config(small_config)
        sim = SSDSimulator(
            small_config, {0: list(range(8))}, buffer=cfg(capacity=8)
        )
        result = sim.run([self._read(0.0, 123)])
        assert result.read.mean_us == pytest.approx(t.read_service_us)

    def test_buffer_improves_hot_write_latency(self, small_config):
        reqs = lambda: [self._write(float(i) * 30, i % 8) for i in range(100)]
        plain = SSDSimulator(small_config, {0: list(range(8))}).run(reqs())
        buffered = SSDSimulator(
            small_config, {0: list(range(8))}, buffer=cfg(capacity=32)
        ).run(reqs())
        assert buffered.write.mean_us < plain.write.mean_us / 10
