"""The DAMON_RECLAIM / DAMON_LRU_SORT module analogs."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.modules.lru_sort import LruSortModule, LruSortParams
from repro.modules.reclaim import ReclaimModule, ReclaimParams
from repro.monitor.attrs import MonitorAttrs
from repro.schemes.actions import Action
from repro.sim.kernel import SimKernel
from repro.sim.machine import GuestSpec, get_instance
from repro.sim.swap import ZramDevice
from repro.units import MIB, MSEC, SEC

from tests.helpers import BASE, run_epochs

FAST = MonitorAttrs(
    sampling_interval_us=1 * MSEC,
    aggregation_interval_us=20 * MSEC,
    regions_update_interval_us=200 * MSEC,
    min_nr_regions=10,
    max_nr_regions=200,
)


def make_kernel(dram_mib=256, swap_mib=128, seed=7):
    guest = GuestSpec(host=get_instance("i3.metal"), vcpus=4, dram_bytes=dram_mib * MIB)
    return SimKernel(guest, swap=ZramDevice(swap_mib * MIB), seed=seed)


class TestReclaimParams:
    def test_defaults_sane(self):
        params = ReclaimParams()
        assert params.min_age_us == 20 * SEC
        assert params.wmarks_low < params.wmarks_mid < params.wmarks_high

    def test_validation(self):
        with pytest.raises(ConfigError):
            ReclaimParams(min_age_us=-1)
        with pytest.raises(ConfigError):
            ReclaimParams(quota_sz_bytes=0)


class TestReclaimModule:
    def test_inactive_without_pressure(self, queue):
        """Plenty of free memory: the watermarks keep the module off and
        nothing is reclaimed."""
        kernel = make_kernel(dram_mib=256)
        kernel.mmap(BASE, 64 * MIB)
        module = ReclaimModule(kernel, ReclaimParams(min_age_us=100 * MSEC), FAST)
        module.start(queue)
        kernel.apply_access(BASE, BASE + 32 * MIB, now=0, epoch_us=100 * MSEC)
        run_epochs(kernel, queue, [], n_epochs=20)
        assert not module.active
        assert module.stats()["reclaimed_bytes"] == 0
        assert kernel.rss_bytes() == 32 * MIB

    def test_reclaims_under_pressure(self, queue):
        """Free memory below the mid watermark: cold memory goes out."""
        kernel = make_kernel(dram_mib=64, swap_mib=128)
        kernel.mmap(BASE, 64 * MIB)
        module = ReclaimModule(kernel, ReclaimParams(min_age_us=200 * MSEC), FAST)
        module.start(queue)
        # Fill ~70% of DRAM once (cold), keep 4 MiB hot.
        kernel.apply_access(BASE, BASE + 44 * MIB, now=0, epoch_us=100 * MSEC)
        run_epochs(
            kernel,
            queue,
            [dict(start=BASE, end=BASE + 4 * MIB, touches_per_page=2000)],
            n_epochs=30,
        )
        stats = module.stats()
        assert stats["reclaimed_bytes"] > 8 * MIB
        # The hot head stays resident.
        assert kernel.space.flat.present[:1024].all()

    def test_deactivates_when_pressure_relieved(self, queue):
        kernel = make_kernel(dram_mib=64, swap_mib=128)
        kernel.mmap(BASE, 64 * MIB)
        module = ReclaimModule(kernel, ReclaimParams(min_age_us=200 * MSEC), FAST)
        module.start(queue)
        kernel.apply_access(BASE, BASE + 44 * MIB, now=0, epoch_us=100 * MSEC)
        run_epochs(kernel, queue, [], n_epochs=40)
        # Once enough was reclaimed, free memory rises above high and the
        # module turns itself off.
        free_ratio = kernel.frames.free_frames() / kernel.frames.n_frames
        if free_ratio > module.params.wmarks_high:
            assert not module.active

    def test_stop(self, queue):
        kernel = make_kernel()
        kernel.mmap(BASE, 16 * MIB)
        module = ReclaimModule(kernel, attrs=FAST)
        module.start(queue)
        queue.run_until(queue.clock.now + 100 * MSEC)
        module.stop()
        checks = kernel.metrics.monitor_checks
        queue.run_until(queue.clock.now + 100 * MSEC)
        assert kernel.metrics.monitor_checks == checks


class TestLruSortParams:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LruSortParams(hot_thres=0.0)
        with pytest.raises(ConfigError):
            LruSortParams(cold_min_age_us=-1)


class TestLruSortModule:
    def test_sorts_hot_and_cold(self, queue):
        kernel = make_kernel()
        kernel.mmap(BASE, 64 * MIB)
        module = LruSortModule(
            kernel, LruSortParams(cold_min_age_us=200 * MSEC), FAST
        )
        module.start(queue)
        kernel.apply_access(BASE, BASE + 64 * MIB, now=0, epoch_us=100 * MSEC)
        run_epochs(
            kernel,
            queue,
            [dict(start=BASE, end=BASE + 8 * MIB, touches_per_page=2000)],
            n_epochs=25,
        )
        stats = module.stats()
        assert stats["prioritized_bytes"] > 0
        assert stats["deprioritized_bytes"] > 0

    def test_protects_hot_pages_from_eviction(self, queue):
        """Under pressure, the sorted kernel must evict cold pages in
        preference to hot ones despite the coarse baseline LRU."""
        kernel = make_kernel()
        kernel.mmap(BASE, 64 * MIB)
        module = LruSortModule(
            kernel, LruSortParams(cold_min_age_us=200 * MSEC), FAST
        )
        module.start(queue)
        kernel.apply_access(BASE, BASE + 64 * MIB, now=0, epoch_us=100 * MSEC)
        run_epochs(
            kernel,
            queue,
            [dict(start=BASE, end=BASE + 8 * MIB, touches_per_page=2000)],
            n_epochs=25,
        )
        victims = kernel.lru.select_victims(
            2048, rng=np.random.default_rng(1)
        )  # 8 MiB worth
        hot_evicted = sum(
            int(np.count_nonzero(idx < 8 * MIB // 4096)) for idx in victims
        )
        # At most a sliver of the hot 8 MiB gets picked.
        assert hot_evicted < 200

    def test_actions_are_lru_variants(self):
        kernel = make_kernel()
        module = LruSortModule(kernel, attrs=FAST)
        assert module.hot_scheme.action is Action.LRU_PRIO
        assert module.cold_scheme.action is Action.LRU_DEPRIO
