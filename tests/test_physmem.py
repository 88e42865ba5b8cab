"""Physical frame table and reverse map."""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AddressSpaceError, ConfigError
from repro.sim.pagetable import PAGE_SIZE
from repro.sim.physmem import FrameTable
from repro.units import GIB, MIB


@pytest.fixture
def frames():
    return FrameTable(4 * MIB)  # 1024 frames


def assert_untouched(frames, n):
    """A rejected release left the table as ``allocate(n, arange(n))``
    made it: same counters, owners and next frame handed out."""
    assert frames.allocated == n
    assert list(frames.owners(np.arange(n))) == list(range(n))
    assert list(frames.allocated_frames()) == list(range(n))
    if n < frames.n_frames:
        assert list(frames.allocate(1, np.array([7]))) == [n]


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

    def test_out_of_range_rejected(self, frames):
        frames.allocate(4, np.arange(4))
        with pytest.raises(AddressSpaceError):
            frames.release(np.array([0, frames.n_frames + 3976]))
        assert_untouched(frames, 4)

    def test_negative_frame_rejected(self, frames):
        # On a full table -1 would wrap to the last frame, which is live.
        frames.allocate(frames.n_frames, np.arange(frames.n_frames))
        with pytest.raises(AddressSpaceError):
            frames.release(np.array([-1]))
        assert_untouched(frames, frames.n_frames)

    def test_never_allocated_frame_rejected(self, frames):
        frames.allocate(4, np.arange(4))
        with pytest.raises(AddressSpaceError):
            frames.release(np.array([1, 100]))
        assert_untouched(frames, 4)

    def test_frame_named_twice_rejected(self, frames):
        frames.allocate(4, np.arange(4))
        with pytest.raises(AddressSpaceError):
            frames.release(np.array([3, 1, 3]))
        assert_untouched(frames, 4)

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


# ----------------------------------------------------------------------
# The live-prefix table against a full-size reference
# ----------------------------------------------------------------------
class Reference:
    """One owner entry per frame of the machine and the same stack
    discipline; ``state()`` is the pickled state a table must emit."""

    def __init__(self, n_fast, n_slow):
        self.n_fast, self.n_slow = n_fast, n_slow
        self.owner = np.full(n_fast + n_slow, -1, dtype=np.int64)
        self.fresh, self.stacks, self.peak = [0, n_fast], [[], []], 0

    def allocate(self, pool, pages):
        stack, n = self.stacks[pool], len(pages)
        k = min(n, len(stack))
        fresh = range(self.fresh[pool], self.fresh[pool] + n - k)
        frames = stack[len(stack) - k :] + list(fresh)
        del stack[len(stack) - k :]
        self.fresh[pool] += n - k
        self.owner[frames] = pages
        self.peak = max(self.peak, int(np.count_nonzero(self.owner >= 0)))
        return frames

    def release(self, frames):
        self.owner[frames] = -1
        for pool in (0, 1):
            self.stacks[pool] += [f for f in frames if (f >= self.n_fast) == pool]

    def state(self):
        live = self.owner >= 0
        n_fast, (fast, slow) = self.n_fast, self.stacks
        return {
            "n_fast_frames": n_fast,
            "n_slow_frames": self.n_slow,
            "n_frames": n_fast + self.n_slow,
            "owner": self.owner[: self.fresh[0]].copy(),
            "_next_fresh": self.fresh[0],
            "_recycled": np.array(fast, dtype=np.int64),
            "_recycled_top": len(fast),
            "_next_fresh_slow": self.fresh[1],
            "_recycled_slow": np.array(slow, dtype=np.int64),
            "_recycled_slow_top": len(slow),
            "allocated": int(np.count_nonzero(live)),
            "allocated_slow": int(np.count_nonzero(live[n_fast:])),
            "peak_allocated": self.peak,
            "_slow_owner": self.owner[n_fast : self.fresh[1]].copy(),
        }


_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["allocate", "allocate_slow"]), st.integers(0, 900)),
        st.tuples(st.just("release"), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0)),
        st.tuples(st.just("shift"), st.integers(0, 3000), st.integers(-300, 300)),
        st.tuples(st.just("pickle")),
    ),
    max_size=25,
)


@given(n_fast=st.integers(1, 3000), n_slow=st.integers(0, 2500), ops=_ops)
@settings(max_examples=80, deadline=None)
def test_live_prefix_table_matches_full_size_reference(n_fast, n_slow, ops):
    """Every allocate, release, renumbering and pickle round trip leaves
    the table answering as the full-size reference does, and emitting
    the reference's state, key for key and byte for byte."""
    table = FrameTable(n_fast * PAGE_SIZE, n_slow * PAGE_SIZE)
    ref = Reference(n_fast, n_slow)
    next_page = 0
    for op in ops:
        if op[0] in ("allocate", "allocate_slow"):
            slow = op[0] == "allocate_slow"
            free = table.free_slow_frames() if slow else table.free_frames()
            pages = np.arange(next_page, next_page + min(op[1], free))
            next_page += pages.size
            got = getattr(table, op[0])(pages.size, pages)
            assert list(got) == ref.allocate(int(slow), pages)
        elif op[0] == "release":
            live = table.allocated_frames()
            rng = np.random.default_rng(op[1])
            frames = rng.permutation(live)[: int(op[2] * live.size)]
            table.release(frames)
            ref.release(frames.tolist())
        elif op[0] == "shift":
            first, delta = op[1], max(op[2], -op[1])
            table.shift_owners(first, delta)
            ref.owner[ref.owner >= first] += delta
        else:
            table = pickle.loads(pickle.dumps(table))
        assert np.array_equal(table.owners(np.arange(table.n_frames)), ref.owner)
        assert np.array_equal(table.allocated_frames(), np.flatnonzero(ref.owner >= 0))
        assert table.free_frames() == n_fast - int(np.count_nonzero(ref.owner[:n_fast] >= 0))
        assert table.free_slow_frames() == n_slow - int(
            np.count_nonzero(ref.owner[n_fast:] >= 0)
        )
    got, want = table.__getstate__(), ref.state()
    assert list(got) == list(want)
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[key].dtype == value.dtype and got[key].tobytes() == value.tobytes(), key
        else:
            assert type(got[key]) is type(value) and got[key] == value, key


def traced_peak(fn):
    """Peak bytes traced while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_terabyte_table_costs_what_was_touched():
    assert traced_peak(lambda: FrameTable(1024 * GIB, 1024 * GIB)) < MIB
    table = FrameTable(1024 * GIB, 1024 * GIB)
    table.allocate(5000, np.arange(5000))
    table.release(np.arange(0, 5000, 3))
    table.allocate_slow(3000, np.arange(5000, 8000))
    blob = pickle.dumps(table)
    assert traced_peak(lambda: pickle.loads(blob)) < MIB
