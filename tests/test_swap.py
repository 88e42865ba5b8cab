"""Swap devices: ZRAM, file-backed, and the no-swap sentinel."""

import pytest

from repro.errors import ConfigError, SwapFullError
from repro.sim.pagetable import PAGE_SIZE
from repro.sim.swap import FileSwapDevice, NoSwapDevice, ZramDevice
from repro.units import GIB, MIB


class TestAccounting:
    def test_store_and_load(self):
        dev = ZramDevice(4 * MIB)
        dev.store(100)
        assert dev.used_pages == 100
        dev.load(40)
        assert dev.used_pages == 60
        assert dev.total_outs == 100
        assert dev.total_ins == 40

    def test_capacity_enforced(self):
        dev = ZramDevice(4 * MIB)  # 1024 slots
        dev.store(1024)
        with pytest.raises(SwapFullError):
            dev.store(1)

    def test_free_pages(self):
        dev = ZramDevice(4 * MIB)
        dev.store(100)
        assert dev.free_pages() == 1024 - 100

    def test_load_more_than_stored_rejected(self):
        dev = ZramDevice(4 * MIB)
        dev.store(10)
        with pytest.raises(SwapFullError):
            dev.load(11)

    def test_discard(self):
        dev = ZramDevice(4 * MIB)
        dev.store(10)
        dev.discard(4)
        assert dev.used_pages == 6
        # discard has no read-side accounting
        assert dev.total_ins == 0

    def test_discard_too_many_rejected(self):
        dev = ZramDevice(4 * MIB)
        with pytest.raises(SwapFullError):
            dev.discard(1)

    def test_negative_counts_rejected(self):
        dev = ZramDevice(4 * MIB)
        with pytest.raises(ConfigError):
            dev.store(-1)
        with pytest.raises(ConfigError):
            dev.load(-1)

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ConfigError):
            ZramDevice(PAGE_SIZE - 1)


class TestZram:
    def test_latencies(self):
        dev = ZramDevice(4 * MIB, compress_us_per_page=4.0, decompress_us_per_page=2.0)
        assert dev.store(100) == 400
        assert dev.load(100) == 200

    def test_dram_overhead_follows_ratio(self):
        dev = ZramDevice(4 * MIB)
        dev.store(100)
        assert dev.dram_overhead_bytes() == int(100 * PAGE_SIZE / 3.0)

    def test_dram_overhead_shrinks_on_load(self):
        dev = ZramDevice(4 * MIB)
        dev.store(100)
        before = dev.dram_overhead_bytes()
        dev.load(50)
        assert dev.dram_overhead_bytes() == pytest.approx(before / 2, abs=1)

    def test_default_capacity_is_paper_4gib(self):
        assert ZramDevice().capacity_pages == 4 * GIB // PAGE_SIZE


class TestFileSwap:
    def test_latencies(self):
        dev = FileSwapDevice(4 * MIB, read_us_per_page=90.0, write_us_per_page=10.0)
        assert dev.store(10) == 100
        assert dev.load(10) == 900

    def test_no_dram_overhead(self):
        dev = FileSwapDevice(4 * MIB)
        dev.store(100)
        assert dev.dram_overhead_bytes() == 0

    def test_reads_cost_more_than_writes(self):
        dev = FileSwapDevice(4 * MIB)
        assert dev.read_us > dev.write_us


class TestNoSwap:
    def test_always_full(self):
        dev = NoSwapDevice()
        assert dev.free_pages() == 0
        with pytest.raises(SwapFullError):
            dev.store(1)

    def test_zero_store_allowed(self):
        NoSwapDevice().store(0)
