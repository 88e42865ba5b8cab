"""Physical frame table and reverse map."""

import numpy as np
import pytest

from repro.errors import AddressSpaceError, ConfigError
from repro.sim.pagetable import PAGE_SIZE
from repro.sim.physmem import FrameTable
from repro.units import MIB


@pytest.fixture
def frames():
    return FrameTable(4 * MIB)  # 1024 frames


class TestAllocate:
    def test_sequential_from_zero(self, frames):
        got = frames.allocate(4, page_idx=np.arange(4))
        assert list(got) == [0, 1, 2, 3]

    def test_counts(self, frames):
        frames.allocate(10, np.arange(10))
        assert frames.allocated == 10
        assert frames.free_frames() == frames.n_frames - 10

    def test_zero_allocation(self, frames):
        assert frames.allocate(0, np.empty(0)).size == 0

    def test_exhaustion_raises(self, frames):
        frames.allocate(frames.n_frames, np.arange(frames.n_frames))
        with pytest.raises(AddressSpaceError):
            frames.allocate(1, np.array([0]))

    def test_peak_tracking(self, frames):
        frames.allocate(100, np.arange(100))
        got = frames.allocate(50, np.arange(50))
        frames.release(got)
        assert frames.peak_allocated == 150
        assert frames.allocated == 100


class TestRelease:
    def test_release_recycles(self, frames):
        got = frames.allocate(4, np.arange(4))
        frames.release(got)
        again = frames.allocate(4, np.arange(4))
        assert sorted(again) == [0, 1, 2, 3]

    def test_double_free_rejected(self, frames):
        got = frames.allocate(4, np.arange(4))
        frames.release(got)
        with pytest.raises(AddressSpaceError):
            frames.release(got)

    def test_release_empty_is_noop(self, frames):
        frames.release(np.empty(0, dtype=np.int64))
        assert frames.allocated == 0

    def test_interleaved_alloc_release(self, frames):
        a = frames.allocate(8, np.arange(8))
        frames.release(a[:4])
        b = frames.allocate(6, np.arange(6))
        assert frames.allocated == 10
        # No frame is handed out twice while allocated.
        assert len(set(a[4:]) & set(b)) == 0


class TestRmap:
    def test_owners(self, frames):
        frames.allocate(3, page_idx=np.array([10, 11, 12]))
        assert list(frames.owners(np.array([0, 1, 2]))) == [10, 11, 12]

    def test_free_frames_have_no_owner(self, frames):
        assert frames.owners(np.array([100]))[0] == -1

    def test_release_clears_owner(self, frames):
        got = frames.allocate(1, np.array([5]))
        frames.release(got)
        assert frames.owners(got)[0] == -1

    def test_shift_owners_renumbers_pages_from_a_point(self, frames):
        frames.allocate(4, np.array([3, 10, 11, 40]))
        frames.shift_owners(10, 5)
        assert list(frames.owners(np.arange(4))) == [3, 15, 16, 45]
        frames.shift_owners(40, -20)
        assert list(frames.owners(np.arange(4))) == [3, 15, 16, 25]

    def test_out_of_range_rejected(self, frames):
        with pytest.raises(AddressSpaceError):
            frames.owners(np.array([frames.n_frames]))
        with pytest.raises(AddressSpaceError):
            frames.owners(np.array([-1]))


class TestSpan:
    def test_span_bytes(self, frames):
        assert frames.span_bytes() == 4 * MIB

    def test_minimum_capacity(self):
        with pytest.raises(ConfigError):
            FrameTable(PAGE_SIZE - 1)
        assert FrameTable(PAGE_SIZE).n_frames == 1
