"""FlatPageTable: touches, faults, rates, accessed-bit model, THP chunks,
and the segment layout (one segment per VMA, one flat page index)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AddressSpaceError, ConfigError
from repro.sim.kernel import SimKernel
from repro.sim.machine import GuestSpec, get_instance
from repro.sim.pagetable import HUGE_PAGE_SIZE, NEVER, PAGES_PER_HUGE, FlatPageTable
from repro.sim.swap import ZramDevice
from repro.sim.vma import AddressSpace
from repro.units import MIB
from tests.helpers import page_out, set_rate


def table(*sizes):
    """A page table with one segment per size, in order."""
    pt = FlatPageTable()
    for k, n_pages in enumerate(sizes):
        pt.insert_segment(k, n_pages)
    return pt


@pytest.fixture
def pt():
    """Four full huge chunks worth of pages."""
    return table(4 * PAGES_PER_HUGE)


@pytest.fixture
def space():
    """An address space of one VMA, four huge chunks long: its page
    indices are the VMA's, and ``space.flat`` is the table
    ``SimKernel.access_probabilities`` reads."""
    space = AddressSpace()
    space.mmap(0, 4 * HUGE_PAGE_SIZE)
    return space


class TestTouchRange:
    def test_first_touch_is_minor_fault(self, pt):
        result = pt.touch_range(0, 10, now=100)
        assert list(result["minor"]) == list(range(10))
        assert result["major"].size == 0
        assert pt.present[:10].all()

    def test_second_touch_no_fault(self, pt):
        pt.touch_range(0, 10, now=100)
        result = pt.touch_range(0, 10, now=200)
        assert result["minor"].size == 0
        assert result["major"].size == 0

    def test_swapped_touch_is_major_fault(self, pt):
        pt.touch_range(0, 10, now=100)
        page_out(pt, 0, 10)
        result = pt.touch_range(0, 10, now=200)
        assert result["major"].size == 10
        assert pt.present[:10].all()
        assert not pt.swapped[:10].any()

    def test_last_touch_updated(self, pt):
        pt.touch_range(0, 5, now=123)
        assert (pt.last_touch[:5] == 123).all()

    def test_touch_count_accumulates(self, pt):
        pt.touch_range(0, 5, now=1, touches=3)
        pt.touch_range(0, 5, now=2, touches=2)
        assert (pt.touch_count[:5] == 5).all()

    def test_stride_touches_every_nth(self, pt):
        result = pt.touch_range(0, 16, now=1, stride=4)
        assert list(result["touched"]) == [0, 4, 8, 12]
        assert pt.present[[0, 4, 8, 12]].all()
        assert not pt.present[[1, 2, 3, 5]].any()

    def test_fraction_requires_rng(self, pt):
        with pytest.raises(ConfigError):
            pt.touch_range(0, 16, now=1, fraction=0.5)

    def test_fraction_subset(self, pt):
        rng = np.random.default_rng(0)
        result = pt.touch_range(0, 1000, now=1, fraction=0.5, rng=rng)
        assert 350 < result["touched"].size < 650

    def test_fraction_zero_is_noop(self, pt):
        result = pt.touch_range(0, 16, now=1, fraction=0.0)
        assert result["touched"].size == 0
        assert not pt.present.any()

    def test_out_of_range_rejected(self, pt):
        with pytest.raises(AddressSpaceError):
            pt.touch_range(0, pt.n_pages + 1, now=1)

    def test_bad_fraction_rejected(self, pt):
        with pytest.raises(ConfigError):
            pt.touch_range(0, 10, now=1, fraction=1.5)

    def test_bad_stride_rejected(self, pt):
        with pytest.raises(ConfigError):
            pt.touch_range(0, 10, now=1, stride=0)


class TestRates:
    def test_set_rate_overwrites(self, pt):
        set_rate(pt, 0, 10, 100.0)
        set_rate(pt, 0, 10, 40.0)
        assert (pt.rate[:10] == 40.0).all()

    def test_add_rate(self, pt):
        pt.add_rate(0, 10, 100.0)
        assert (pt.rate[:10] == 100.0).all()
        assert (pt.rate[10:] == 0.0).all()

    def test_add_rate_accumulates(self, pt):
        pt.add_rate(0, 10, 100.0)
        pt.add_rate(5, 15, 50.0)
        assert pt.rate[7] == 150.0
        assert pt.rate[12] == 50.0

    def test_add_rate_stride(self, pt):
        pt.add_rate(0, 8, 10.0, stride=2)
        assert pt.rate[0] == 10.0
        assert pt.rate[1] == 0.0

    def test_clear_rates(self, pt):
        pt.add_rate(0, 10, 100.0)
        pt.clear_rates()
        assert not pt.rate.any()

    def test_negative_rate_rejected(self, pt):
        with pytest.raises(ConfigError):
            pt.add_rate(0, 10, -1.0)


class TestAccessProbability:
    def test_zero_rate_never_accessed(self, space):
        probs = space.flat.access_probability(np.arange(10), window_us=5000)
        assert (probs == 0.0).all()

    def test_high_rate_nearly_certain(self, space):
        space.flat.add_rate(0, 10, 10000.0)
        probs = space.flat.access_probability(np.arange(10), window_us=5000)
        assert (probs > 0.99).all()

    def test_poisson_formula(self, space):
        space.flat.add_rate(0, 1, 20.0)  # 20 touches/s over a 5 ms window
        prob = space.flat.access_probability(np.array([0]), window_us=5000)[0]
        assert prob == pytest.approx(1.0 - np.exp(-0.1))

    def test_longer_window_higher_probability(self, space):
        space.flat.add_rate(0, 1, 20.0)
        p_short = space.flat.access_probability(np.array([0]), 1000)[0]
        p_long = space.flat.access_probability(np.array([0]), 50000)[0]
        assert p_long > p_short

    def test_huge_chunk_shares_accessed_bit(self, space):
        # Touch only page 0 at a high rate, then promote chunk 0: the
        # PMD accessed bit makes every page of the chunk look accessed.
        flat = space.flat
        flat.touch_range(0, 1, now=1)
        flat.add_rate(0, 1, 5000.0)
        flat.promote_chunks(np.array([0]), now=2)
        cold_page_in_chunk = PAGES_PER_HUGE - 1
        prob = flat.access_probability(np.array([cold_page_in_chunk]), 5000)[0]
        assert prob > 0.9

    def test_non_huge_chunk_keeps_page_granularity(self, space):
        space.flat.add_rate(0, 1, 5000.0)
        prob = space.flat.access_probability(np.array([1]), 5000)[0]
        assert prob == 0.0


class TestPageout:
    def test_pageout_unmaps_present(self, pt):
        pt.touch_range(0, 100, now=1)
        idx, n_dirty = page_out(pt, 0, 100)
        assert idx.size == 100
        assert n_dirty == 0  # nothing was written
        assert not pt.present[:100].any()
        assert pt.swapped[:100].all()

    def test_pageout_skips_not_present(self, pt):
        pt.touch_range(0, 50, now=1)
        idx, _ = page_out(pt, 0, 100)
        assert idx.size == 50
        assert not pt.swapped[50:100].any()
        assert (pt.n_present, pt.n_swapped) == (0, 50)

    def test_pageout_skips_huge_chunks(self):
        """A huge mapping must be split before its subpages can go: the
        kernel's PAGEOUT leaves a huge chunk resident."""
        guest = GuestSpec(host=get_instance("i3.metal"), vcpus=4, dram_bytes=16 * MIB)
        kernel = SimKernel(guest, swap=ZramDevice(16 * MIB))
        kernel.mmap(0, 2 * HUGE_PAGE_SIZE)
        kernel.apply_access(0, 2 * HUGE_PAGE_SIZE, now=1, epoch_us=100_000)
        assert kernel.madvise_hugepage(0, HUGE_PAGE_SIZE, now=2) == 1
        assert kernel.pageout(0, 2 * HUGE_PAGE_SIZE, now=3) == PAGES_PER_HUGE
        assert kernel.space.flat.present[:PAGES_PER_HUGE].all()

    def test_unmap_returns_frames_and_clears_backing(self, pt):
        pt.touch_range(0, 4, now=1, write_fraction=1.0)
        pt.frame[:4] = [7, 8, 9, 10]
        pt.tier[2:4] = 1
        frames, n_dirty = pt.unmap(np.array([0, 2]), to_swap=False)
        assert list(frames) == [7, 9] and n_dirty == 2
        assert list(pt.present[:4]) == [False, True, False, True]
        assert not pt.swapped[:4].any() and list(pt.dirty[:4]) == [False, True, False, True]
        assert list(pt.frame[:4]) == [-1, 8, -1, 10] and list(pt.tier[:4]) == [0, 0, 0, 1]
        assert (pt.n_present, pt.n_swapped) == (2, 0)

    def test_swap_in_range(self, pt):
        pt.touch_range(0, 50, now=1)
        page_out(pt, 0, 50)
        idx = pt.swap_in_range(0, 100)
        assert idx.size == 50
        assert pt.present[:50].all()


class TestHugeChunks:
    def test_chunk_count_floors(self):
        pt = table(PAGES_PER_HUGE + 7)
        assert pt.n_chunks == 1

    def test_promote_makes_whole_chunk_resident(self, pt):
        pt.touch_range(0, 10, now=1)
        chunks, new_idx, n_swapped = pt.promote_chunks(np.array([0]), now=2)
        assert list(chunks) == [0]
        assert new_idx.size == PAGES_PER_HUGE - 10
        assert n_swapped == 0
        assert pt.present[:PAGES_PER_HUGE].all()

    def test_promote_already_huge_is_noop(self, pt):
        pt.touch_range(0, 10, now=1)
        pt.promote_chunks(np.array([0]), now=2)
        chunks, new_idx, _ = pt.promote_chunks(np.array([0]), now=3)
        assert chunks.size == 0 and new_idx.size == 0

    def test_promote_counts_swapped(self, pt):
        pt.touch_range(0, 10, now=1)
        page_out(pt, 0, 10)
        _, _, n_swapped = pt.promote_chunks(np.array([0]), now=2)
        assert n_swapped == 10
        assert not pt.swapped[:PAGES_PER_HUGE].any()

    def test_bloat_flag_set_only_for_fresh_pages(self, pt):
        pt.touch_range(0, 10, now=1)
        pt.promote_chunks(np.array([0]), now=2)
        assert not pt.bloat[:10].any()
        assert pt.bloat[10:PAGES_PER_HUGE].all()

    def test_touch_clears_bloat(self, pt):
        pt.touch_range(0, 10, now=1)
        pt.promote_chunks(np.array([0]), now=2)
        pt.touch_range(10, 20, now=3)
        assert not pt.bloat[10:20].any()

    def test_demote_frees_only_bloat(self, pt):
        pt.touch_range(0, 10, now=1)
        pt.promote_chunks(np.array([0]), now=2)
        pt.touch_range(10, 20, now=3)  # now real data
        chunks, freed, _ = pt.demote_chunks(np.array([0]), now=4)
        assert list(chunks) == [0]
        assert freed.size == PAGES_PER_HUGE - 20
        assert pt.present[:20].all()
        assert not pt.present[20:PAGES_PER_HUGE].any()

    def test_demote_non_huge_is_noop(self, pt):
        chunks, freed, _ = pt.demote_chunks(np.array([0]), now=1)
        assert chunks.size == 0 and freed.size == 0

    def test_promote_demote_roundtrip_preserves_data_pages(self, pt):
        pt.touch_range(3, 7, now=1)
        pt.promote_chunks(np.array([0]), now=2)
        pt.demote_chunks(np.array([0]), now=3)
        assert pt.present[3:7].all()
        assert pt.n_present == 4

    def test_chunk_out_of_range_rejected(self, pt):
        with pytest.raises(AddressSpaceError):
            pt.promote_chunks(np.array([99]), now=1)

    def test_huge_mask(self, pt):
        pt.touch_range(0, 1, now=1)
        pt.promote_chunks(np.array([0]), now=2)
        mask = pt.huge_page_mask(np.array([0, PAGES_PER_HUGE - 1, PAGES_PER_HUGE]))
        assert list(mask) == [True, True, False]
        assert (pt.huge_page_mask() == (np.arange(pt.n_pages) < PAGES_PER_HUGE)).all()

    def test_huge_mask_tail_pages(self):
        pt = table(PAGES_PER_HUGE + 7)
        pt.touch_range(0, 1, now=1)
        pt.promote_chunks(np.array([0]), now=2)
        mask = pt.huge_page_mask(np.array([PAGES_PER_HUGE + 3]))
        assert not mask[0]


class TestWriteChannel:
    """The write/dirty channel (the paper's stated future work)."""

    def test_writes_set_dirty(self, pt):
        pt.touch_range(0, 10, now=1, write_fraction=1.0)
        assert pt.dirty[:10].all()

    def test_reads_stay_clean(self, pt):
        pt.touch_range(0, 10, now=1, write_fraction=0.0)
        assert not pt.dirty.any()

    def test_partial_writes(self, pt):
        rng = np.random.default_rng(0)
        pt.touch_range(0, 1000, now=1, write_fraction=0.5, rng=rng)
        n_dirty = int(np.count_nonzero(pt.dirty[:1000]))
        assert 350 < n_dirty < 650

    def test_partial_writes_require_rng(self, pt):
        with pytest.raises(ConfigError):
            pt.touch_range(0, 10, now=1, write_fraction=0.5)

    def test_pageout_counts_and_cleans_dirty(self, pt):
        pt.touch_range(0, 10, now=1, write_fraction=1.0)
        pt.touch_range(10, 20, now=1)
        idx, n_dirty = page_out(pt, 0, 20)
        assert idx.size == 20
        assert n_dirty == 10
        assert not pt.dirty[:20].any()

    def test_write_probability_follows_write_rate(self, space):
        space.flat.add_write_rate(0, 5, 10000.0)
        probs = space.flat.write_probability(np.arange(10), window_us=5000)
        assert (probs[:5] > 0.99).all()
        assert (probs[5:] == 0.0).all()

    def test_clear_rates_clears_write_rates(self, pt):
        pt.add_write_rate(0, 5, 100.0)
        pt.clear_rates()
        assert not pt.write_rate.any()

    def test_bad_write_fraction_rejected(self, pt):
        with pytest.raises(ConfigError):
            pt.touch_range(0, 10, now=1, write_fraction=1.5)


class TestAccounting:
    def test_resident_pages(self, pt):
        pt.touch_range(0, 33, now=1)
        assert pt.n_present == 33

    def test_swapped_pages(self, pt):
        pt.touch_range(0, 33, now=1)
        page_out(pt, 0, 10)
        assert pt.n_swapped == 10
        assert pt.n_present == 23

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigError):
            table(0)


class TestStateInvariants:
    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["touch", "pageout", "swapin", "promote", "demote"]),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=30,
        )
    )
    def test_present_and_swapped_disjoint(self, ops):
        """A page is never simultaneously resident and swapped, and
        huge-mapped chunks are always fully resident."""
        pt = table(4 * PAGES_PER_HUGE)
        now = 0
        for op, chunk in ops:
            now += 1
            lo = chunk * PAGES_PER_HUGE
            hi = lo + PAGES_PER_HUGE
            if op == "touch":
                pt.touch_range(lo, hi, now=now, stride=3)
            elif op == "pageout":
                page_out(pt, lo, hi)
            elif op == "swapin":
                pt.swap_in_range(lo, hi)
            elif op == "promote":
                pt.promote_chunks(np.array([chunk]), now=now)
            elif op == "demote":
                pt.demote_chunks(np.array([chunk]), now=now)
            assert not (pt.present & pt.swapped).any()
            for c in range(pt.n_chunks):
                if pt.chunk_huge[c]:
                    assert pt.present[c * PAGES_PER_HUGE : (c + 1) * PAGES_PER_HUGE].all()
            # Bloat pages are always resident and never swapped.
            assert not (pt.bloat & ~pt.present).any()


class TestSegments:
    """One segment per VMA: chunk alignment is segment-local, and
    inserting or removing a segment moves the pages after it."""

    def test_chunks_align_to_their_segment(self):
        pt = table(PAGES_PER_HUGE + 7, 2 * PAGES_PER_HUGE)
        assert pt.n_chunks == 3
        assert list(pt.page_offset) == [0, PAGES_PER_HUGE + 7, 3 * PAGES_PER_HUGE + 7]
        assert list(pt.chunk_offset) == [0, 1, 3]
        second = PAGES_PER_HUGE + 7
        pages = np.array([0, PAGES_PER_HUGE + 3, second, second + PAGES_PER_HUGE])
        assert list(pt.chunk_of(pages)) == [0, -1, 1, 2]
        assert list(pt.chunk_pages(np.array([1]))[[0, -1]]) == [second, second + PAGES_PER_HUGE - 1]

    def test_promote_in_a_later_segment(self):
        pt = table(PAGES_PER_HUGE + 7, 2 * PAGES_PER_HUGE)
        second = PAGES_PER_HUGE + 7
        pt.touch_range(second, second + 1, now=1)
        chunks, new_idx, _ = pt.promote_chunks(np.array([1]), now=2)
        assert list(chunks) == [1]
        assert new_idx.min() == second + 1 and new_idx.max() == second + PAGES_PER_HUGE - 1
        pages = np.array([second - 1, second, second + PAGES_PER_HUGE])
        assert pt.huge_page_mask(pages).tolist() == [False, True, False]
        assert pt.chunk_present_counts().tolist() == [0, PAGES_PER_HUGE, 0]

    def test_chunk_span(self):
        pt = table(PAGES_PER_HUGE + 7, 2 * PAGES_PER_HUGE)
        second = PAGES_PER_HUGE + 7
        assert pt.chunk_span(1, PAGES_PER_HUGE + 7, inner=True) == (1, 1)
        assert pt.chunk_span(1, PAGES_PER_HUGE + 7, inner=False) == (0, 1)
        assert pt.chunk_span(second, second + PAGES_PER_HUGE + 1, inner=True) == (1, 2)
        assert pt.chunk_span(second, second + PAGES_PER_HUGE + 1, inner=False) == (1, 3)

    def test_split_segments_keeps_order(self):
        pt = table(10, 10, 10)
        parts = pt.split_segments(np.array([25, 3, 12, 1, 21]))
        assert [p.tolist() for p in parts] == [[3, 1], [12], [25, 21]]
        assert pt.split_segments(np.array([], dtype=np.int64)) == []

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_split_segments_matches_unique(self, data):
        """Same parts as a split over ``np.unique`` of the segment ids,
        the empty input included."""
        sizes = data.draw(st.lists(st.integers(1, 20), min_size=1, max_size=6))
        pt = table(*sizes)
        idx = np.array(
            data.draw(st.lists(st.integers(0, pt.n_pages - 1), max_size=40)), dtype=np.int64
        )
        seg = np.searchsorted(pt.page_offset, idx, side="right") - 1
        expected = [idx[seg == k] for k in np.unique(seg)]
        parts = pt.split_segments(idx)
        assert [part.tolist() for part in parts] == [part.tolist() for part in expected]
        assert all(part.dtype == idx.dtype for part in parts)

    def test_insert_moves_later_pages(self):
        pt = table(10, 10)
        pt.touch_range(12, 14, now=5)
        pt.add_rate(12, 14, 3.0)
        pt.insert_segment(1, 4)
        assert pt.n_pages == 24
        assert list(pt.page_offset) == [0, 10, 14, 24]
        assert pt.present[16:18].all() and pt.present.sum() == 2
        assert (pt.last_touch[16:18] == 5).all()
        assert not pt.present[10:14].any() and (pt.frame[10:14] == -1).all()
        pt.clear_rates()
        assert not pt.rate.any()

    def test_append_keeps_pages_and_fills_the_new_ones(self):
        # A short tail grows the columns in place; with a column held
        # elsewhere, that column is copied instead and the holder keeps
        # the old array.
        for hold in (False, True):
            pt = table(2 * PAGES_PER_HUGE)
            pt.touch_range(0, 3, now=7)
            pt.frame[:3] = [5, 6, 7]
            held = pt.frame if hold else None
            pt.insert_segment(1, 10)
            assert pt.n_pages == 2 * PAGES_PER_HUGE + 10 and pt.n_chunks == 2
            assert list(pt.frame[:4]) == [5, 6, 7, -1] and (pt.frame[-10:] == -1).all()
            assert (pt.last_touch[:3] == 7).all() and (pt.last_touch[-10:] == NEVER).all()
            assert pt.present[:3].all() and not pt.present[3:].any()
            if hold:
                assert held is not pt.frame and held.size == 2 * PAGES_PER_HUGE

    def test_remove_drops_pages_and_counts(self):
        pt = table(10, 10, 10)
        pt.touch_range(0, 2, now=1)
        pt.touch_range(12, 15, now=1)
        page_out(pt, 12, 13)
        pt.touch_range(25, 26, now=1)
        pt.remove_segment(1)
        assert pt.n_pages == 20
        assert list(pt.page_offset) == [0, 10, 20]
        assert (pt.n_present, pt.n_swapped) == (3, 0)
        assert pt.present[[0, 1, 15]].all()
