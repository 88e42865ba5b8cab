"""THP policy/khugepaged, LRU reclaimer, and the cost model."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sanitize import SimSanitizer
from repro.sim.costs import CostModel
from repro.sim.kernel import SimKernel
from repro.sim.lru import LruReclaimer
from repro.sim.pagetable import PAGE_SIZE, PAGES_PER_HUGE
from repro.sim.thp import ThpPolicy
from repro.sim.vma import AddressSpace
from repro.units import MIB, MSEC, SEC

from tests.helpers import lru_list_sizes

BASE = 0x7F00_0000_0000


class TestThpPolicy:
    def test_modes(self):
        for mode in ("never", "always", "madvise"):
            assert ThpPolicy(mode=mode).mode == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            ThpPolicy(mode="sometimes")

    def test_threshold_bounds(self):
        with pytest.raises(ConfigError):
            ThpPolicy(min_present_pages=0)
        with pytest.raises(ConfigError):
            ThpPolicy(min_present_pages=PAGES_PER_HUGE + 1)


class TestKhugepaged:
    """``SimKernel.khugepaged_scan``: the scanner ``thp=always`` schedules."""

    @staticmethod
    def _kernel_with_sparse_chunk(guest, present_pages, **policy):
        kernel = SimKernel(guest, thp=ThpPolicy(**policy), seed=7)
        vma = kernel.mmap(BASE, 4 * MIB)  # 2 chunks
        kernel.apply_access(
            BASE, BASE + present_pages * PAGE_SIZE, now=1, epoch_us=100 * MSEC
        )
        return kernel, vma

    def test_never_mode_is_noop(self, small_guest):
        kernel, _ = self._kernel_with_sparse_chunk(small_guest, 100, mode="never")
        assert kernel.khugepaged_scan(now=2)["promotions"] == 0

    def test_collapse_above_threshold(self, small_guest):
        kernel, vma = self._kernel_with_sparse_chunk(
            small_guest, 100, mode="always", min_present_pages=64
        )
        result = kernel.khugepaged_scan(now=2)
        assert result["promotions"] == 1
        assert result["bloat_pages"] == PAGES_PER_HUGE - 100
        pt = kernel.space.flat
        assert pt.chunk_huge[0]
        # Every page the collapse made resident is backed by a frame.
        assert pt.n_present == PAGES_PER_HUGE
        assert (pt.frame[pt.present] >= 0).all()
        assert kernel.frames.allocated == PAGES_PER_HUGE
        assert SimSanitizer().check_all(kernel=kernel, now=2) == []

    def test_below_threshold_not_collapsed(self, small_guest):
        kernel, vma = self._kernel_with_sparse_chunk(
            small_guest, 10, mode="always", min_present_pages=64
        )
        assert kernel.khugepaged_scan(now=2)["promotions"] == 0
        assert not kernel.space.flat.chunk_huge.any()

    def test_scan_is_idempotent(self, small_guest):
        kernel, _ = self._kernel_with_sparse_chunk(small_guest, 100, mode="always")
        kernel.khugepaged_scan(now=2)
        assert kernel.khugepaged_scan(now=3)["promotions"] == 0

    def test_lifetime_counters(self, small_guest):
        kernel, _ = self._kernel_with_sparse_chunk(  # spans 2 chunks
            small_guest, 600, mode="always", min_present_pages=64
        )
        kernel.khugepaged_scan(now=2)
        assert kernel.metrics.thp_promotions == 2
        assert kernel.metrics.thp_bloat_pages == 2 * PAGES_PER_HUGE - 600


class TestLru:
    def _space(self):
        space = AddressSpace()
        space.mmap(BASE, 4 * MIB)
        return space

    @staticmethod
    def _touch(space, lo, hi, now):
        """Touch pages and assign frames (pages without frames are
        mid-fault and not evictable)."""
        space.flat.touch_range(lo, hi, now=now)
        space.flat.frame[lo:hi] = np.arange(lo, hi)

    def test_selects_least_recently_touched(self):
        space = self._space()
        self._touch(space, 0, 10, now=100 * SEC)
        self._touch(space, 10, 20, now=50 * SEC)  # an older scan bucket
        lru = LruReclaimer(space)
        victims = lru.select_victims(10)
        (idx,) = victims
        assert sorted(idx) == list(range(10, 20))

    def test_victims_split_per_vma(self):
        space = self._space()
        space.mmap(BASE + 8 * MIB, 4 * MIB)
        self._touch(space, 1020, 1030, now=1)
        victims = LruReclaimer(space).select_victims(100)
        assert [sorted(idx) for idx in victims] == [
            list(range(1020, 1024)),
            list(range(1024, 1030)),
        ]

    def test_ordering_is_approximate_within_scan_interval(self):
        """Timestamps inside one scan interval are indistinguishable —
        the imprecision LRU_PRIO/LRU_DEPRIO exist to fix."""
        import numpy as np
        from repro.sim.lru import LRU_SCAN_INTERVAL_US

        space = self._space()
        self._touch(space, 0, 100, now=10 * SEC)
        self._touch(space, 100, 200, now=10 * SEC + LRU_SCAN_INTERVAL_US // 2)
        lru = LruReclaimer(space)
        picks = set()
        for seed in range(5):
            victims = lru.select_victims(50, rng=np.random.default_rng(seed))
            (idx,) = victims
            picks.add(tuple(sorted(idx)))
        # Different seeds pick different victims from the shared bucket.
        assert len(picks) > 1

    def test_caps_at_available(self):
        space = self._space()
        self._touch(space, 0, 5, now=1)
        lru = LruReclaimer(space)
        victims = lru.select_victims(100)
        assert sum(idx.size for idx in victims) == 5

    def test_zero_request(self):
        space = self._space()
        assert LruReclaimer(space).select_victims(0) == []

    def test_huge_pages_not_evictable(self):
        space = self._space()
        self._touch(space, 0, PAGES_PER_HUGE, now=1)
        space.flat.promote_chunks(np.array([0]), now=2)
        victims = LruReclaimer(space).select_victims(100)
        assert victims == []

    def test_list_sizes(self):
        space = self._space()
        self._touch(space, 0, 10, now=1 * SEC)
        self._touch(space, 10, 30, now=20 * SEC)
        lru = LruReclaimer(space)
        active, inactive = lru_list_sizes(lru, now=25 * SEC, window_us=10 * SEC)
        assert active == 20
        assert inactive == 10


class TestCostModel:
    def test_touch_cost_no_huge(self):
        costs = CostModel(dram_cost_us=0.1, tlb_walk_share=0.3)
        assert costs.touch_cost_us(100, 0.0) == pytest.approx(10.0)

    def test_touch_cost_all_huge(self):
        costs = CostModel(dram_cost_us=0.1, tlb_walk_share=0.3)
        assert costs.touch_cost_us(100, 1.0) == pytest.approx(7.0)

    def test_touch_cost_mixed(self):
        costs = CostModel(dram_cost_us=0.1, tlb_walk_share=0.3)
        mixed = costs.touch_cost_us(100, 0.5)
        assert costs.touch_cost_us(100, 1.0) < mixed < costs.touch_cost_us(100, 0.0)

    def test_tlb_scale_amplifies_discount(self):
        costs = CostModel(dram_cost_us=0.1, tlb_walk_share=0.3)
        assert costs.touch_cost_us(100, 1.0, tlb_scale=2.0) == pytest.approx(4.0)

    def test_tlb_scale_capped(self):
        costs = CostModel(dram_cost_us=0.1, tlb_walk_share=0.3)
        # 0.3 * 10 would be a 300% discount; capped at 95%.
        assert costs.touch_cost_us(100, 1.0, tlb_scale=10.0) == pytest.approx(0.5)

    def test_bad_huge_fraction_rejected(self):
        with pytest.raises(ConfigError):
            CostModel().touch_cost_us(1, 1.5)

    def test_negative_tlb_scale_rejected(self):
        with pytest.raises(ConfigError):
            CostModel().touch_cost_us(1, 0.5, tlb_scale=-1)

    def test_monitor_costs(self):
        costs = CostModel(pte_check_us=0.1, monitor_interference=1.0)
        assert costs.monitor_check_cost_us(1000) == pytest.approx(100.0)
        assert costs.interference_us(100.0) == pytest.approx(100.0)

    def test_field_validation(self):
        with pytest.raises(ConfigError):
            CostModel(dram_cost_us=-1)
        with pytest.raises(ConfigError):
            CostModel(tlb_walk_share=1.0)
        with pytest.raises(ConfigError):
            CostModel(monitor_interference=1.5)
