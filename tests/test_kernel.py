"""SimKernel: the access path, management ops, reclaim and accounting."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sanitize import SimSanitizer
from repro.sim.kernel import SimKernel
from repro.sim.machine import GuestSpec, get_instance
from repro.sim.pagetable import PAGE_SIZE, PAGES_PER_HUGE
from repro.sim.swap import NoSwapDevice, ZramDevice
from repro.sim.thp import ThpPolicy
from repro.trace import TraceBus
from repro.trace.events import PageoutBatch
from repro.units import MIB, MSEC, SEC

BASE = 0x7F00_0000_0000
EPOCH = 100 * MSEC


class TestAccessPath:
    def test_first_touch_allocates(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + MIB, now=0, epoch_us=EPOCH)
        assert kernel.rss_bytes() == MIB
        assert kernel.metrics.minor_faults == MIB // PAGE_SIZE
        assert kernel.frames.allocated == MIB // PAGE_SIZE

    def test_second_touch_no_new_faults(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + MIB, now=0, epoch_us=EPOCH)
        before = kernel.metrics.minor_faults
        kernel.apply_access(BASE, BASE + MIB, now=EPOCH, epoch_us=EPOCH)
        assert kernel.metrics.minor_faults == before

    def test_swapped_touch_major_fault_with_latency(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + MIB, now=0, epoch_us=EPOCH)
        kernel.pageout(BASE, BASE + MIB, now=EPOCH)
        kernel.apply_access(BASE, BASE + MIB, now=2 * EPOCH, epoch_us=EPOCH)
        assert kernel.metrics.major_faults == MIB // PAGE_SIZE
        assert kernel.metrics.runtime.major_fault_us > 0
        assert kernel.rss_bytes() == MIB

    def test_rates_declared_per_epoch(self, kernel):
        vma = kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(
            BASE, BASE + MIB, now=0, epoch_us=EPOCH, touches_per_page=50
        )
        lo = kernel.space.segment(vma).start
        assert kernel.space.flat.rate[lo] == pytest.approx(500.0)  # 50 / 0.1 s
        kernel.begin_epoch()
        assert kernel.space.flat.rate[lo] == 0.0

    def test_access_spanning_gap(self, kernel):
        kernel.mmap(BASE, MIB)
        kernel.mmap(BASE + 2 * MIB, MIB)
        kernel.apply_access(BASE, BASE + 3 * MIB, now=0, epoch_us=EPOCH)
        assert kernel.rss_bytes() == 2 * MIB

    def test_memory_stall_accounted(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(
            BASE, BASE + MIB, now=0, epoch_us=EPOCH, stall_weight=2.0
        )
        expected = (MIB // PAGE_SIZE) * 2.0 * kernel.costs.dram_cost_us
        assert kernel.metrics.runtime.memory_stall_us == pytest.approx(expected)

    def test_zero_epoch_rejected(self, kernel):
        kernel.mmap(BASE, MIB)
        with pytest.raises(ConfigError):
            kernel.apply_access(BASE, BASE + MIB, now=0, epoch_us=0)

    def test_end_epoch_records_memory(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + MIB, now=0, epoch_us=EPOCH)
        kernel.end_epoch(EPOCH, compute_us=70000)
        kernel.end_epoch(2 * EPOCH, compute_us=70000)
        assert kernel.metrics.memory.avg_rss() == pytest.approx(MIB)
        assert kernel.metrics.runtime.compute_us == 140000


class TestMunmap:
    def test_releases_frames_and_swap(self, kernel):
        vma = kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + 2 * MIB, now=0, epoch_us=EPOCH)
        kernel.pageout(BASE, BASE + MIB, now=EPOCH)
        swap_used = kernel.swap.used_pages
        assert swap_used > 0
        kernel.munmap(vma)
        assert kernel.frames.allocated == 0
        assert kernel.swap.used_pages == 0
        assert kernel.rss_bytes() == 0

    def test_layout_changes_renumber_the_rmap(self, kernel):
        """A mapping below resident pages shifts them up the page table,
        an unmapping compacts them down; the rmap follows both ways."""
        high = kernel.mmap(BASE + 64 * MIB, 4 * MIB)
        kernel.apply_access(
            high.start, high.start + MIB, now=0, epoch_us=EPOCH, touches_per_page=1000
        )
        low = kernel.mmap(BASE, 2 * MIB)
        kernel.apply_access(BASE, BASE + MIB, now=EPOCH, epoch_us=EPOCH)
        flat = kernel.space.flat
        assert kernel.space.segment(high) == slice(512, 1536)
        assert list(kernel.frames.owners(np.arange(2))) == [512, 513]
        kernel.munmap(low)
        assert kernel.space.segment(high) == slice(0, 1024)
        assert list(kernel.frames.owners(np.arange(2))) == [0, 1]
        assert (flat.frame[kernel.frames.owners(np.arange(256))] == np.arange(256)).all()
        probs = kernel.frame_access_probabilities(np.array([0]), window_us=5000)
        assert probs[0] > 0.9
        assert SimSanitizer().check_all(kernel=kernel) == []


class TestPageout:
    def test_pageout_reduces_rss(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + 2 * MIB, now=0, epoch_us=EPOCH)
        n = kernel.pageout(BASE, BASE + MIB, now=EPOCH)
        assert n == MIB // PAGE_SIZE
        assert kernel.rss_bytes() == MIB
        assert kernel.metrics.pages_swapped_out == n

    def test_pageout_respects_swap_capacity(self, small_guest):
        kernel = SimKernel(small_guest, swap=ZramDevice(PAGE_SIZE * 10), seed=1)
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + MIB, now=0, epoch_us=EPOCH)
        n = kernel.pageout(BASE, BASE + MIB, now=EPOCH)
        assert n == 10  # only ten swap slots exist
        assert kernel.rss_bytes() == MIB - 10 * PAGE_SIZE

    def test_pageout_with_no_swap_is_noop(self, small_guest):
        kernel = SimKernel(small_guest, swap=NoSwapDevice(), seed=1)
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + MIB, now=0, epoch_us=EPOCH)
        assert kernel.pageout(BASE, BASE + MIB, now=EPOCH) == 0
        assert kernel.rss_bytes() == MIB

    @pytest.mark.parametrize("phys", [False, True])
    def test_swap_full_pageout_still_reports_the_attempt(self, small_guest, phys):
        """Candidates existed, swap held none of them: one zero-page
        ``PageoutBatch``, every page back (or still) present."""
        bus = TraceBus()
        events = []
        bus.subscribe(PageoutBatch, events.append)
        kernel = SimKernel(small_guest, swap=NoSwapDevice(), seed=1, trace=bus)
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + MIB, now=0, epoch_us=EPOCH, write_fraction=1.0)
        pt = kernel.space.flat
        if phys:
            assert kernel.pageout_phys(0, MIB, now=EPOCH) == 0
        else:
            assert kernel.pageout(BASE, BASE + MIB, now=EPOCH) == 0
        assert [(e.paged_out_pages, e.written_back_pages, e.phys) for e in events] == [
            (0, 0, phys)
        ]
        n = MIB // PAGE_SIZE
        assert pt.present[:n].all() and not pt.swapped.any()
        assert pt.dirty[:n].all()  # the rollback restores the dirty bits
        assert kernel.frames.allocated == n
        assert kernel.metrics.pages_swapped_out == 0

    def test_pageout_of_nothing_present_asks_the_swap_device_nothing(self, kernel):
        asked = []
        kernel.swap.free_pages = lambda: asked.append("free_pages") or 0
        kernel.swap.store = lambda *a: asked.append("store") or 0
        kernel.mmap(BASE, 4 * MIB)
        assert kernel.pageout(BASE, BASE + 4 * MIB, now=EPOCH) == 0
        assert asked == []


class TestSchemePass:
    """The batched entry's candidate test at the edges a row can have."""

    def _kernel(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.mmap(BASE + 8 * MIB, 4 * MIB)
        # Only the first page of the second VMA and the last page of the
        # table are present.
        kernel.apply_access(BASE + 8 * MIB, BASE + 8 * MIB + PAGE_SIZE, now=0, epoch_us=EPOCH)
        kernel.apply_access(BASE + 12 * MIB - PAGE_SIZE, BASE + 12 * MIB, now=0, epoch_us=EPOCH)
        return kernel

    def test_rows_are_tested_page_by_page(self, kernel):
        k = self._kernel(kernel)
        rows = [
            (BASE, BASE + 4 * MIB),  # nothing present
            (BASE + 4 * MIB, BASE + 8 * MIB + 1),  # gap, then one byte of the page
            (BASE + 8 * MIB - 1, BASE + 8 * MIB),  # ends where the page starts
            (BASE + 4 * MIB, BASE + 8 * MIB),  # the gap alone
            (BASE + 12 * MIB - 1, BASE + 20 * MIB),  # the table's last page, and past it
            (BASE + 8 * MIB + PAGE_SIZE, BASE + 12 * MIB - PAGE_SIZE),
            (BASE + 8 * MIB + PAGE_SIZE, BASE + 12 * MIB),  # up to the last page
        ]
        starts, ends = (np.array(c, dtype=np.int64) for c in zip(*rows))
        want = [False, True, False, False, True, False, True]
        assert k._has_candidates("present", starts, ends).tolist() == want
        # Any row order (quota ranking) gives the same answers.
        order = np.array([4, 1, 6, 5, 0, 3, 2])
        got = k._has_candidates("present", starts[order], ends[order])
        assert got.tolist() == [want[i] for i in order]

    def test_rows_without_candidates_are_not_called(self, kernel):
        k = self._kernel(kernel)
        calls = []
        pageout = k.pageout
        k.pageout = lambda start, end, now: calls.append((start, end)) or pageout(start, end, now)
        starts = [BASE, BASE + 8 * MIB, BASE + 10 * MIB]
        ends = [BASE + 4 * MIB, BASE + 10 * MIB, BASE + 12 * MIB]
        applied = k.scheme_pass("pageout", starts, ends, EPOCH)
        assert applied.tolist() == [0, PAGE_SIZE, PAGE_SIZE]
        assert calls == [(BASE + 8 * MIB, BASE + 10 * MIB), (BASE + 10 * MIB, BASE + 12 * MIB)]
        assert k.scheme_pass("pageout", [BASE], [BASE + 12 * MIB], EPOCH).tolist() == [0]
        assert len(calls) == 2

    def test_budget_clips_regions_in_row_order(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + 4 * MIB, now=0, epoch_us=EPOCH)
        charges = []
        applied = kernel.scheme_pass(
            "pageout",
            [BASE + 2 * MIB, BASE],
            [BASE + 4 * MIB, BASE + 2 * MIB],
            EPOCH,
            budget=3 * MIB + 100,
            on_charge=lambda region, nbytes: charges.append((region, nbytes)),
        )
        assert applied.tolist() == [2 * MIB, MIB]
        assert charges == [(0, 2 * MIB), (1, MIB)]
        assert kernel.rss_bytes() == MIB


class TestMadvise:
    def test_willneed_prefetches(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + MIB, now=0, epoch_us=EPOCH)
        kernel.pageout(BASE, BASE + MIB, now=EPOCH)
        n = kernel.madvise_willneed(BASE, BASE + MIB, now=2 * EPOCH)
        assert n == MIB // PAGE_SIZE
        assert kernel.rss_bytes() == MIB
        # Prefetch is asynchronous: no major-fault latency charged.
        assert kernel.metrics.runtime.major_fault_us == 0

    def test_cold_deactivates_for_lru(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + 2 * MIB, now=0, epoch_us=EPOCH)
        kernel.madvise_cold(BASE, BASE + MIB, now=EPOCH)
        victims = kernel.lru.select_victims(10)
        (idx,) = victims
        assert (idx < MIB // PAGE_SIZE).all()

    def test_hugepage_promotes_and_bloats(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + 64 * PAGE_SIZE, now=0, epoch_us=EPOCH)
        promotions = kernel.madvise_hugepage(BASE, BASE + 2 * MIB, now=EPOCH)
        assert promotions == 1
        assert kernel.rss_bytes() == 2 * MIB
        assert kernel.metrics.thp_bloat_pages == PAGES_PER_HUGE - 64
        assert kernel.metrics.runtime.thp_alloc_us > 0

    def test_hugepage_skips_empty_chunks(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        assert kernel.madvise_hugepage(BASE, BASE + 4 * MIB, now=0) == 0

    def test_nohugepage_returns_bloat(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + 64 * PAGE_SIZE, now=0, epoch_us=EPOCH)
        kernel.madvise_hugepage(BASE, BASE + 2 * MIB, now=EPOCH)
        demotions = kernel.madvise_nohugepage(BASE, BASE + 2 * MIB, now=2 * EPOCH)
        assert demotions == 1
        assert kernel.rss_bytes() == 64 * PAGE_SIZE
        assert kernel.frames.allocated == 64

    def test_partial_chunk_range_not_promoted(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + 2 * MIB, now=0, epoch_us=EPOCH)
        # Range covers only half a chunk: no full chunk inside it.
        assert kernel.madvise_hugepage(BASE, BASE + MIB, now=EPOCH) == 0


class TestPressureReclaim:
    def test_reclaim_triggers_above_watermark(self, small_guest):
        kernel = SimKernel(small_guest, swap=ZramDevice(256 * MIB), seed=1)
        kernel.mmap(BASE, 512 * MIB)
        # Touch more than the 256 MiB of guest DRAM in two waves; the
        # second forces eviction of the (older) first wave.
        kernel.apply_access(BASE, BASE + 200 * MIB, now=0, epoch_us=EPOCH)
        kernel.end_epoch(EPOCH, 1.0)
        kernel.apply_access(
            BASE + 200 * MIB, BASE + 400 * MIB, now=EPOCH, epoch_us=EPOCH
        )
        kernel.end_epoch(2 * EPOCH, 1.0)
        assert kernel.metrics.reclaim_evictions > 0
        assert kernel.frames.allocated <= kernel.frames.n_frames

    def test_khugepaged_scan_respects_mode(self, small_guest):
        kernel = SimKernel(small_guest, thp=ThpPolicy(mode="never"), seed=1)
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + 2 * MIB, now=0, epoch_us=EPOCH)
        assert kernel.khugepaged_scan(now=EPOCH)["promotions"] == 0

    def test_khugepaged_scan_promotes_in_always(self, small_guest):
        kernel = SimKernel(small_guest, thp=ThpPolicy(mode="always"), seed=1)
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + 2 * MIB, now=0, epoch_us=EPOCH)
        result = kernel.khugepaged_scan(now=EPOCH)
        assert result["promotions"] == 1  # the fully-touched chunk


class TestMonitoringHooks:
    def test_access_probabilities_mapped_and_gaps(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(
            BASE, BASE + MIB, now=0, epoch_us=EPOCH, touches_per_page=1000
        )
        addrs = np.array([BASE, BASE + 2 * MIB, BASE + 100 * MIB])
        probs = kernel.access_probabilities(addrs, window_us=5000)
        assert probs[0] > 0.9
        assert probs[1] == 0.0  # mapped but cold
        assert probs[2] == 0.0  # unmapped gap

    def test_frame_access_probabilities_via_rmap(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(
            BASE, BASE + MIB, now=0, epoch_us=EPOCH, touches_per_page=1000
        )
        # Frames 0.. hold the touched pages (allocated lowest-first).
        probs = kernel.frame_access_probabilities(np.array([0, 1]), window_us=5000)
        assert (probs > 0.9).all()

    def test_free_frames_read_as_cold(self, kernel):
        probs = kernel.frame_access_probabilities(np.array([100]), window_us=5000)
        assert probs[0] == 0.0

    def test_charge_monitor_checks(self, kernel):
        kernel.charge_monitor_checks(1000)
        assert kernel.metrics.monitor_checks == 1000
        assert kernel.metrics.monitor_cpu_us == pytest.approx(
            1000 * kernel.costs.pte_check_us + kernel.costs.kdamond_wakeup_us
        )
        assert kernel.metrics.runtime.monitor_interference_us > 0

    def test_charge_monitor_wakeup_only(self, kernel):
        kernel.charge_monitor_checks(0)
        assert kernel.metrics.monitor_cpu_us == pytest.approx(
            kernel.costs.kdamond_wakeup_us
        )


class TestSystemBytes:
    def test_zram_overhead_counted(self, small_guest):
        kernel = SimKernel(small_guest, swap=ZramDevice(64 * MIB), seed=1)
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + 2 * MIB, now=0, epoch_us=EPOCH)
        kernel.pageout(BASE, BASE + 2 * MIB, now=EPOCH)
        assert kernel.rss_bytes() == 0
        assert kernel.system_bytes() == kernel.swap.dram_overhead_bytes()
        assert kernel.system_bytes() > 0

    def test_guest_spec_from_machine(self):
        kernel = SimKernel(get_instance("i3.metal"), seed=1)
        assert kernel.guest.dram_bytes == get_instance("i3.metal").dram_bytes // 4

    def test_bad_guest_rejected(self):
        with pytest.raises(ConfigError):
            SimKernel("not-a-machine")
