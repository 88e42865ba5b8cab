"""VMAs and address spaces."""

import numpy as np
import pytest

from repro.errors import AddressSpaceError, ConfigError
from repro.sim.pagetable import PAGE_SIZE
from repro.sim.vma import VMA, AddressSpace
from repro.units import KIB, MIB

from tests.helpers import mapped_bytes, page_out, swapped_bytes

BASE = 0x1_0000_0000


class TestVMA:
    def test_alignment_enforced(self):
        with pytest.raises(ConfigError):
            VMA(BASE + 1, BASE + PAGE_SIZE + 1)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            VMA(BASE, BASE)

    def test_size_and_pages(self):
        space = AddressSpace()
        vma = space.mmap(BASE, 16 * PAGE_SIZE)
        assert vma.size == 16 * PAGE_SIZE
        assert space.segment(vma) == slice(0, 16)
        assert space.flat.n_pages == 16

    def test_page_index(self):
        space = AddressSpace()
        space.mmap(BASE, 16 * PAGE_SIZE)
        assert list(space.resolve(np.array([BASE, BASE + 5 * PAGE_SIZE + 100]))) == [0, 5]

    def test_page_index_out_of_range(self):
        space = AddressSpace()
        space.mmap(BASE, PAGE_SIZE)
        assert list(space.resolve(np.array([BASE + PAGE_SIZE]))) == [-1]


class TestAddressSpace:
    def test_mmap_returns_sorted(self):
        space = AddressSpace()
        space.mmap(BASE + 10 * MIB, MIB)
        space.mmap(BASE, MIB)
        assert [v.start for v in space.vmas] == [BASE, BASE + 10 * MIB]

    def test_overlap_rejected(self):
        space = AddressSpace()
        space.mmap(BASE, 2 * MIB)
        with pytest.raises(AddressSpaceError):
            space.mmap(BASE + MIB, 2 * MIB)

    def test_adjacent_allowed(self):
        space = AddressSpace()
        space.mmap(BASE, MIB)
        space.mmap(BASE + MIB, MIB)
        assert len(space.vmas) == 2

    def test_munmap(self):
        space = AddressSpace()
        vma = space.mmap(BASE, MIB)
        space.munmap(vma)
        assert space.vmas == []
        assert space.flat.n_pages == 0

    def test_segments_follow_address_order(self):
        space = AddressSpace()
        high = space.mmap(BASE + 10 * MIB, MIB)
        low = space.mmap(BASE, 2 * MIB)
        assert space.segment(low) == slice(0, 512)
        assert space.segment(high) == slice(512, 768)
        space.munmap(low)
        assert space.segment(high) == slice(0, 256)

    def test_munmap_unknown_rejected(self):
        space = AddressSpace()
        vma = VMA(BASE, BASE + MIB)
        with pytest.raises(AddressSpaceError):
            space.munmap(vma)

    def test_generation_bumps_on_layout_change(self):
        space = AddressSpace()
        g0 = space.generation
        vma = space.mmap(BASE, MIB)
        g1 = space.generation
        space.munmap(vma)
        g2 = space.generation
        assert g0 < g1 < g2

    def test_find(self):
        space = AddressSpace()
        space.mmap(BASE, MIB)
        assert list(space.resolve(np.array([BASE + 100, BASE - 1, BASE + MIB]))) == [0, -1, -1]

    def test_find_empty_space(self):
        assert list(AddressSpace().resolve(np.array([BASE]))) == [-1]


class TestResolve:
    def test_resolve_mixed(self):
        space = AddressSpace()
        space.mmap(BASE, MIB)
        space.mmap(BASE + 10 * MIB, MIB)
        addrs = np.array(
            [BASE, BASE + MIB - 1, BASE + 2 * MIB, BASE + 10 * MIB + PAGE_SIZE]
        )
        idx = space.resolve(addrs)
        assert list(idx) == [0, MIB // PAGE_SIZE - 1, -1, MIB // PAGE_SIZE + 1]

    def test_resolve_empty_space(self):
        space = AddressSpace()
        assert list(space.resolve(np.array([BASE]))) == [-1]

    def test_resolve_below_first_vma(self):
        space = AddressSpace()
        space.mmap(BASE, MIB)
        assert list(space.resolve(np.array([BASE - PAGE_SIZE]))) == [-1]


class TestRangesIn:
    def test_single_vma_clip(self):
        space = AddressSpace()
        space.mmap(BASE, MIB)
        assert list(space.spans(BASE + PAGE_SIZE, BASE + 3 * PAGE_SIZE)) == [(1, 3)]

    def test_spans_multiple_vmas(self):
        space = AddressSpace()
        space.mmap(BASE, MIB)
        space.mmap(BASE + 2 * MIB, MIB)
        assert list(space.spans(BASE, BASE + 3 * MIB)) == [(0, 256), (256, 512)]

    def test_gap_only_range_is_empty(self):
        space = AddressSpace()
        space.mmap(BASE, MIB)
        space.mmap(BASE + 4 * MIB, MIB)
        assert list(space.spans(BASE + 2 * MIB, BASE + 3 * MIB)) == []

    def test_partial_page_rounds_up(self):
        space = AddressSpace()
        space.mmap(BASE, MIB)
        assert list(space.spans(BASE, BASE + PAGE_SIZE + 7)) == [(0, 2)]

    def test_empty_range(self):
        space = AddressSpace()
        space.mmap(BASE, MIB)
        assert list(space.spans(BASE + MIB, BASE)) == []

    def test_page_spans_cover_what_spans_yields(self):
        space = AddressSpace()
        space.mmap(BASE, MIB)
        space.mmap(BASE + 2 * MIB, MIB)
        starts = np.array([BASE + PAGE_SIZE + 7, BASE + MIB, BASE - MIB])
        ends = np.array([BASE + 3 * MIB, BASE + 2 * MIB + 1, BASE])
        lo, hi = space.page_spans(starts, ends)
        assert list(zip(lo.tolist(), hi.tolist())) == [(1, 512), (256, 257), (0, 0)]


class TestThreeRegions:
    def test_classic_layout(self):
        """heap | big gap | mmap area | big gap | stack."""
        space = AddressSpace()
        space.mmap(0x5600_0000_0000, 8 * MIB, "heap")
        space.mmap(0x7F00_0000_0000, 512 * MIB, "data")
        space.mmap(0x7FFF_FFC0_0000, 256 * KIB, "stack")
        regions = space.three_regions()
        assert len(regions) == 3
        assert regions[0] == (0x5600_0000_0000, 0x5600_0000_0000 + 8 * MIB)
        assert regions[1] == (0x7F00_0000_0000, 0x7F00_0000_0000 + 512 * MIB)
        assert regions[2][1] == 0x7FFF_FFC0_0000 + 256 * KIB

    def test_single_vma_yields_one_region(self):
        space = AddressSpace()
        space.mmap(BASE, MIB)
        assert space.three_regions() == [(BASE, BASE + MIB)]

    def test_two_vmas_small_gap_spanned(self):
        # With only one gap, three_regions splits on it (it is one of
        # the two biggest by definition).
        space = AddressSpace()
        space.mmap(BASE, MIB)
        space.mmap(BASE + 2 * MIB, MIB)
        regions = space.three_regions()
        assert len(regions) == 2

    def test_empty_space_rejected(self):
        with pytest.raises(AddressSpaceError):
            AddressSpace().three_regions()


class TestAccounting:
    def test_mapped_and_resident_bytes(self):
        space = AddressSpace()
        space.mmap(BASE, MIB)
        assert mapped_bytes(space) == MIB
        assert space.resident_bytes() == 0
        space.flat.touch_range(0, 10, now=1)
        assert space.resident_bytes() == 10 * PAGE_SIZE

    def test_swapped_bytes(self):
        space = AddressSpace()
        space.mmap(BASE, MIB)
        space.flat.touch_range(0, 10, now=1)
        page_out(space.flat, 0, 4)
        assert swapped_bytes(space) == 4 * PAGE_SIZE

    def test_span(self):
        space = AddressSpace()
        space.mmap(BASE, MIB)
        space.mmap(BASE + 10 * MIB, MIB)
        assert space.span() == (BASE, BASE + 11 * MIB)

    def test_clear_rates_cascades(self):
        space = AddressSpace()
        space.mmap(BASE, MIB)
        space.mmap(BASE + 4 * MIB, MIB)
        space.flat.add_rate(0, 10, 5.0)
        space.flat.add_rate(300, 310, 5.0)
        space.flat.clear_rates()
        assert not space.flat.rate.any()
