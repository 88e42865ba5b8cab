"""Physical frame accounting and the reverse map.

The physical-address monitoring primitive (the paper's ``prec``
configuration) monitors the guest's whole physical address space and uses
the kernel's reverse map (rmap) to find, for a physical frame, the page
table entry that maps it.  :class:`FrameTable` provides the synthetic
equivalents: a frame allocator plus a ``frame → page`` owner column,
holding each frame's page-table index
(:class:`~repro.sim.pagetable.FlatPageTable`).

The table costs what the guest touched, not the machine's capacity.
Each pool hands frames out lowest-first from a fresh mark, so every
frame it ever allocated lies in the pool's *live prefix*, below that
mark.  The owner column and the recycled stacks hold the live prefixes
only and grow geometrically as the marks advance; a frame past its
pool's prefix was never allocated and has no owner.  An i3.metal guest
has 8 388 608 frames, of which a freqmine run touches 111 424.

The free list is an array-backed stack so that allocating or releasing
millions of frames (a multi-GiB workload's first-touch epoch) is a single
slice operation, never a per-frame Python loop.
"""

from __future__ import annotations

import numpy as np

from ..errors import AddressSpaceError, ConfigError
from .pagetable import PAGE_SIZE

__all__ = ["FrameTable"]

#: Smallest size a pool's arrays grow to, in frames.
_MIN_CAPACITY = 1024


def _capacity(mark: int, pool: int) -> int:
    """Array size for a pool of ``pool`` frames whose live prefix is
    ``mark`` frames long: the next power of two, at least
    :data:`_MIN_CAPACITY`, at most the pool.  A function of the mark
    alone, so a restored table's arrays are the original's."""
    if mark == 0:
        return 0
    return min(pool, max(_MIN_CAPACITY, 1 << (mark - 1).bit_length()))


def _grown(stack: np.ndarray, top: int, size: int) -> np.ndarray:
    """A recycled stack resized to ``size`` entries.  Only its ``top``
    live entries are copied: the rest are dead, and pages no push has
    reached stay untouched."""
    if stack.size == size:
        return stack
    grown = np.empty(size, dtype=np.int64)
    grown[:top] = stack[:top]
    return grown


class FrameTable:
    """Allocator and reverse map over ``capacity_bytes`` of physical memory.

    Frames are handed out lowest-first from boot, which mirrors the
    tendency of a fresh guest to fill physical memory roughly in order
    and keeps the physical-address monitor's region picture contiguous.
    """

    def __init__(self, capacity_bytes: int, slow_capacity_bytes: int = 0):
        if capacity_bytes < PAGE_SIZE:
            raise ConfigError(f"capacity below one page: {capacity_bytes}")
        if slow_capacity_bytes < 0:
            raise ConfigError(
                f"slow capacity cannot be negative: {slow_capacity_bytes}"
            )
        #: Fast (DRAM) frames occupy [0, n_fast_frames); slow-tier frames
        #: occupy [n_fast_frames, n_frames).  A frame's tier is its
        #: number's side of the split.
        self.n_fast_frames = capacity_bytes // PAGE_SIZE
        self.n_slow_frames = slow_capacity_bytes // PAGE_SIZE
        self.n_frames = self.n_fast_frames + self.n_slow_frames
        # The rmap: each owner entry holds the owning page's page-table
        # index, -1 = free.  Fast frame f sits at slot f and slow frame s
        # at _recycled.size + s - n_fast_frames (see _slots): each pool's
        # section is as long as its recycled stack, and the entries past
        # its live prefix are -1.  The last slot stays -1 and stands for
        # every frame past a prefix, so a lookup is one gather.
        self.owner = np.full(1, -1, dtype=np.int64)
        # Never-allocated fast frames are [_next_fresh, n_fast_frames);
        # released ones sit in the recycled stack [0, _recycled_top).
        # The stack's size is the fast pool's array capacity.
        self._next_fresh = 0
        self._recycled = np.empty(0, dtype=np.int64)
        self._recycled_top = 0
        # The slow pool mirrors the fast pool's stack discipline over
        # [n_fast_frames, n_frames).
        self._next_fresh_slow = self.n_fast_frames
        self._recycled_slow = np.empty(0, dtype=np.int64)
        self._recycled_slow_top = 0
        #: Total allocated frames across both tiers; the slow share is
        #: ``allocated_slow`` and the fast share ``fast_allocated``.
        self.allocated = 0
        self.allocated_slow = 0
        #: High-water mark, for reporting.
        self.peak_allocated = 0
        #: Bumped on every store into the owner column, so the
        #: sanitizer's keyed checks can tell when the frame → page map
        #: may have moved.  Not pickled and zero on restore, where the
        #: sanitizer's cached key is not carried over either.
        self.rmap_generation = 0

    # ------------------------------------------------------------------
    # Pickle support (checkpoint codec)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """The live prefixes and the counters, without the arrays' spare
        capacity: the owners of ``[0, _next_fresh)`` and of
        ``[n_fast_frames, _next_fresh_slow)`` (``_slow_owner``) and the
        occupied part of each recycled stack."""
        base = self._recycled.size
        n_slow = self._next_fresh_slow - self.n_fast_frames
        return {
            "n_fast_frames": self.n_fast_frames,
            "n_slow_frames": self.n_slow_frames,
            "n_frames": self.n_frames,
            "owner": self.owner[: self._next_fresh].copy(),
            "_next_fresh": self._next_fresh,
            "_recycled": self._recycled[: self._recycled_top].copy(),
            "_recycled_top": self._recycled_top,
            "_next_fresh_slow": self._next_fresh_slow,
            "_recycled_slow": self._recycled_slow[: self._recycled_slow_top].copy(),
            "_recycled_slow_top": self._recycled_slow_top,
            "allocated": self.allocated,
            "allocated_slow": self.allocated_slow,
            "peak_allocated": self.peak_allocated,
            "_slow_owner": self.owner[base : base + n_slow].copy(),
        }

    def __setstate__(self, state):
        owner, slow_owner = state.pop("owner"), state.pop("_slow_owner")
        recycled, recycled_slow = state.pop("_recycled"), state.pop("_recycled_slow")
        self.__dict__.update(state)
        fast, slow = self._capacities()
        self.owner = np.full(fast + slow + 1, -1, dtype=np.int64)
        self.owner[: owner.size] = owner
        self.owner[fast : fast + slow_owner.size] = slow_owner
        self._recycled = _grown(recycled, recycled.size, fast)
        self._recycled_slow = _grown(recycled_slow, recycled_slow.size, slow)
        self.rmap_generation = 0

    def _capacities(self):
        """The fast and slow pools' array sizes for the current fresh
        marks."""
        return (
            _capacity(self._next_fresh, self.n_fast_frames),
            _capacity(self._next_fresh_slow - self.n_fast_frames, self.n_slow_frames),
        )

    def _reserve(self) -> None:
        """Size the arrays for the current fresh marks.  Live entries are
        copied, so no frame changes owner."""
        fast, slow = self._capacities()
        old_fast, old_slow = self._recycled.size, self._recycled_slow.size
        owner = np.full(fast + slow + 1, -1, dtype=np.int64)
        owner[:old_fast] = self.owner[:old_fast]
        owner[fast : fast + old_slow] = self.owner[old_fast:-1]
        self.owner = owner
        self._recycled = _grown(self._recycled, self._recycled_top, fast)
        self._recycled_slow = _grown(self._recycled_slow, self._recycled_slow_top, slow)

    # ------------------------------------------------------------------
    @property
    def fast_allocated(self) -> int:
        """Allocated frames in the fast (DRAM) tier."""
        return self.allocated - self.allocated_slow

    def free_frames(self) -> int:
        """Unallocated *fast* frame count — the allocation-eligible pool.

        Faults always land in DRAM; the slow tier is reached only by
        explicit demotion, so for watermark and OOM purposes "free" means
        free DRAM.  On a flat machine this is the whole capacity.
        """
        return self.n_fast_frames - self.fast_allocated

    def free_slow_frames(self) -> int:
        """Unallocated slow-tier frame count (0 on a flat machine)."""
        return self.n_slow_frames - self.allocated_slow

    def allocate(self, count: int, page_idx: np.ndarray) -> np.ndarray:
        """Allocate ``count`` fast frames owned by pages ``page_idx``.
        Raises :class:`AddressSpaceError` when DRAM is
        exhausted — the kernel façade triggers reclaim before letting
        that happen."""
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if count > self.free_frames():
            raise AddressSpaceError(
                f"out of physical memory: need {count}, free {self.free_frames()}"
            )
        from_recycled = min(count, self._recycled_top)
        parts = []
        if from_recycled:
            self._recycled_top -= from_recycled
            parts.append(
                self._recycled[self._recycled_top : self._recycled_top + from_recycled].copy()
            )
        fresh = count - from_recycled
        if fresh:
            parts.append(
                np.arange(self._next_fresh, self._next_fresh + fresh, dtype=np.int64)
            )
            self._next_fresh += fresh
            if self._next_fresh > self._recycled.size:
                self._reserve()
        frames = parts[0] if len(parts) == 1 else np.concatenate(parts)
        self.owner[frames] = np.asarray(page_idx, dtype=np.int64)
        self.rmap_generation += 1
        self.allocated += count
        self.peak_allocated = max(self.peak_allocated, self.allocated)
        return frames

    def allocate_slow(self, count: int, page_idx: np.ndarray) -> np.ndarray:
        """Allocate ``count`` slow-tier frames (demotion target).  Raises
        :class:`AddressSpaceError` when the slow tier is exhausted — the
        reclaim path sizes its demotion budget by ``free_slow_frames``
        before calling."""
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if count > self.free_slow_frames():
            raise AddressSpaceError(
                f"out of slow-tier memory: need {count}, free {self.free_slow_frames()}"
            )
        from_recycled = min(count, self._recycled_slow_top)
        parts = []
        if from_recycled:
            self._recycled_slow_top -= from_recycled
            parts.append(
                self._recycled_slow[
                    self._recycled_slow_top : self._recycled_slow_top + from_recycled
                ].copy()
            )
        fresh = count - from_recycled
        if fresh:
            parts.append(
                np.arange(
                    self._next_fresh_slow, self._next_fresh_slow + fresh, dtype=np.int64
                )
            )
            self._next_fresh_slow += fresh
            if self._next_fresh_slow - self.n_fast_frames > self._recycled_slow.size:
                self._reserve()
        frames = parts[0] if len(parts) == 1 else np.concatenate(parts)
        # The slow section of the owner column follows the fast one.
        self.owner[frames + (self._recycled.size - self.n_fast_frames)] = np.asarray(
            page_idx, dtype=np.int64
        )
        self.rmap_generation += 1
        self.allocated += count
        self.allocated_slow += count
        self.peak_allocated = max(self.peak_allocated, self.allocated)
        return frames

    def release(self, frames: np.ndarray) -> None:
        """Return frames to their tier's free list.  Raises
        :class:`AddressSpaceError`, before any state changes, for a frame
        out of range, one that is not allocated (a double free) or one
        named twice."""
        frames = np.asarray(frames, dtype=np.int64)
        if frames.size == 0:
            return
        ordered = np.sort(frames)
        hi = int(ordered[-1])
        if ordered[0] < 0 or hi >= self.n_frames:
            raise AddressSpaceError("frame number out of range")
        slots = self._slots(ordered, hi)
        if np.count_nonzero(self.owner[slots] < 0):
            raise AddressSpaceError("double free of a physical frame")
        if np.count_nonzero(ordered[1:] == ordered[:-1]):
            raise AddressSpaceError("physical frame released twice in one call")
        self.owner[slots] = -1
        self.rmap_generation += 1
        self.allocated -= frames.size
        if self.n_slow_frames:
            slow = frames >= self.n_fast_frames
            n_slow = int(np.count_nonzero(slow))
            if n_slow:
                top = self._recycled_slow_top
                self._recycled_slow[top : top + n_slow] = frames[slow]
                self._recycled_slow_top = top + n_slow
                self.allocated_slow -= n_slow
                frames = frames[~slow]
        top = self._recycled_top
        self._recycled[top : top + frames.size] = frames
        self._recycled_top = top + frames.size

    # ------------------------------------------------------------------
    def _slots(self, frames: np.ndarray, hi: int) -> np.ndarray:
        """Owner-column slot per frame number of ``frames``, all in
        range and none above ``hi``.  A frame past its pool's live prefix
        gets the last slot, which holds -1; frames all below the fast
        pool's fresh mark (a flat machine's live set) are their own
        slots."""
        if hi < self._next_fresh:
            return frames
        slow = frames >= self.n_fast_frames
        slots = frames.copy()
        np.add(slots, self._recycled.size - self.n_fast_frames, out=slots, where=slow)
        dead = (frames >= self._next_fresh) & ~slow
        dead |= frames >= self._next_fresh_slow
        slots[dead] = self.owner.size - 1
        return slots

    def owners(self, frames: np.ndarray) -> np.ndarray:
        """rmap lookup: the owning page per frame, one gather; -1
        entries are free."""
        frames = np.asarray(frames, dtype=np.int64)
        # Read as unsigned, a negative frame number lands past n_frames.
        hi = int(np.maximum.reduce(frames.view(np.uint64), initial=0))
        if hi >= self.n_frames:
            raise AddressSpaceError("frame number out of range")
        return self.owner[self._slots(frames, hi)]

    def shift_owners(self, first: int, delta: int) -> None:
        """Renumber the owners from page ``first`` on by ``delta``: the
        page table gained (or lost) ``|delta|`` pages before them.  The
        one remap a layout change costs the rmap."""
        moved = np.nonzero(self.owner >= first)[0]
        self.owner[moved] += delta
        self.rmap_generation += 1

    def prefix_frames(self, lo: int, hi: int) -> np.ndarray:
        """The frame numbers of ``[lo, hi)`` inside a pool's live prefix,
        ascending: the only frames there that can have an owner."""
        fast = np.arange(max(lo, 0), min(hi, self._next_fresh), dtype=np.int64)
        if self._next_fresh_slow == self.n_fast_frames:
            return fast
        slow = np.arange(
            max(lo, self.n_fast_frames), min(hi, self._next_fresh_slow), dtype=np.int64
        )
        return np.concatenate([fast, slow])

    def allocated_frames(self) -> np.ndarray:
        """All currently allocated frame numbers, ascending.

        O(peak allocation), not O(capacity): fresh frames are only drawn
        past ``_next_fresh`` when the recycled stack is empty, so
        ``[0, _next_fresh)`` minus the stack is exactly the fast live
        set, and likewise for the slow pool.  Fast frame numbers all
        precede slow ones, so concatenation stays ascending.
        """
        mask = np.ones(self._next_fresh, dtype=bool)
        mask[self._recycled[: self._recycled_top]] = False
        fast = np.nonzero(mask)[0]
        if self._next_fresh_slow == self.n_fast_frames:
            return fast
        n_live = self._next_fresh_slow - self.n_fast_frames
        mask = np.ones(n_live, dtype=bool)
        mask[self._recycled_slow[: self._recycled_slow_top] - self.n_fast_frames] = False
        slow = np.nonzero(mask)[0] + self.n_fast_frames
        return np.concatenate([fast, slow])

    def span_bytes(self) -> int:
        """Size of the physical address space in bytes."""
        return self.n_frames * PAGE_SIZE
