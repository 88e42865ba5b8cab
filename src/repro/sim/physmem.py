"""Physical frame accounting and the reverse map.

The physical-address monitoring primitive (the paper's ``prec``
configuration) monitors the guest's whole physical address space and uses
the kernel's reverse map (rmap) to find, for a physical frame, the page
table entry that maps it.  :class:`FrameTable` provides the synthetic
equivalents: a frame allocator plus a ``frame → page`` owner column,
holding each frame's page-table index
(:class:`~repro.sim.pagetable.FlatPageTable`).

The free list is an array-backed stack so that allocating or releasing
millions of frames (a multi-GiB workload's first-touch epoch) is a single
slice operation, never a per-frame Python loop.
"""

from __future__ import annotations

import numpy as np

from ..errors import AddressSpaceError, ConfigError
from .pagetable import PAGE_SIZE

__all__ = ["FrameTable"]


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
        #: occupy [n_fast_frames, n_frames).  The split by frame number
        #: makes a frame's tier derivable without a lookup, but the
        #: explicit ``tier`` column below keeps masked whole-table passes
        #: one gather instead of a comparison per consumer.
        self.n_fast_frames = capacity_bytes // PAGE_SIZE
        self.n_slow_frames = slow_capacity_bytes // PAGE_SIZE
        self.n_frames = self.n_fast_frames + self.n_slow_frames
        #: Per-frame tier column: 0 = DRAM, 1 = slow tier.  Derived from
        #: the frame-number split, so it is rebuilt (not pickled) on
        #: checkpoint restore.
        self.tier = np.zeros(self.n_frames, dtype=np.int8)
        self.tier[self.n_fast_frames :] = 1
        # The rmap: index = frame number, value = the owning page's
        # page-table index.  -1 = free.
        self.owner = np.full(self.n_frames, -1, dtype=np.int64)
        # Never-allocated fast frames are [_next_fresh, n_fast_frames);
        # released ones sit in the recycled stack [0, _recycled_top).
        self._next_fresh = 0
        # Zeroed, not np.empty: entries past _recycled_top are dead
        # storage, but they end up inside checkpoint payloads — garbage
        # there would make equal allocator states hash differently.
        self._recycled = np.zeros(self.n_fast_frames, dtype=np.int64)
        self._recycled_top = 0
        # The slow pool mirrors the fast pool's stack discipline over
        # [n_fast_frames, n_frames).
        self._next_fresh_slow = self.n_fast_frames
        self._recycled_slow = np.zeros(self.n_slow_frames, dtype=np.int64)
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
        """Pickle the live prefixes only.

        The arrays are sized to the *machine's* physical memory, but a
        workload only ever touches ``[0, _next_fresh)`` of the owner
        column (lowest-first allocation) and ``[0, _recycled_top)`` of
        the recycled stack — everything past those marks is the
        constructor's fill values.  Storing just the prefixes keeps a
        checkpoint proportional to the workload's footprint instead of
        the machine's capacity (hundreds of MB of ``-1``).
        """
        state = dict(self.__dict__)
        state["owner"] = self.owner[: self._next_fresh].copy()
        state["_recycled"] = self._recycled[: self._recycled_top].copy()
        # Slow-pool live prefixes: owners of [n_fast_frames,
        # _next_fresh_slow) plus the slow recycled stack.
        state["_slow_owner"] = self.owner[self.n_fast_frames : self._next_fresh_slow].copy()
        state["_recycled_slow"] = self._recycled_slow[: self._recycled_slow_top].copy()
        # Derived from the frame-number split; rebuilt on restore.
        del state["tier"]
        del state["rmap_generation"]
        return state

    def __setstate__(self, state):
        slow = state.pop("_slow_owner")
        self.__dict__.update(state)
        n = self.n_frames
        prefix = self.owner
        self.owner = np.full(n, -1, dtype=np.int64)
        self.owner[: prefix.size] = prefix
        self.owner[self.n_fast_frames : self.n_fast_frames + slow.size] = slow
        prefix = self._recycled
        self._recycled = np.zeros(self.n_fast_frames, dtype=np.int64)
        self._recycled[: prefix.size] = prefix
        prefix = self._recycled_slow
        self._recycled_slow = np.zeros(self.n_slow_frames, dtype=np.int64)
        self._recycled_slow[: prefix.size] = prefix
        self.tier = np.zeros(n, dtype=np.int8)
        self.tier[self.n_fast_frames :] = 1
        self.rmap_generation = 0

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
        frames = parts[0] if len(parts) == 1 else np.concatenate(parts)
        self.owner[frames] = np.asarray(page_idx, dtype=np.int64)
        self.rmap_generation += 1
        self.allocated += count
        self.allocated_slow += count
        self.peak_allocated = max(self.peak_allocated, self.allocated)
        return frames

    def release(self, frames: np.ndarray) -> None:
        """Return frames to their tier's free list."""
        frames = np.asarray(frames, dtype=np.int64)
        if frames.size == 0:
            return
        if (self.owner[frames] < 0).any():
            raise AddressSpaceError("double free of a physical frame")
        self.owner[frames] = -1
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
    def owners(self, frames: np.ndarray) -> np.ndarray:
        """rmap lookup: the owning page per frame; -1 entries are free."""
        frames = np.asarray(frames, dtype=np.int64)
        if frames.size and (int(frames.max()) >= self.n_frames or int(frames.min()) < 0):
            raise AddressSpaceError("frame number out of range")
        return self.owner[frames]

    def shift_owners(self, first: int, delta: int) -> None:
        """Renumber the owners from page ``first`` on by ``delta``: the
        page table gained (or lost) ``|delta|`` pages before them.  The
        one remap a layout change costs the rmap."""
        for lo, hi in ((0, self._next_fresh), (self.n_fast_frames, self._next_fresh_slow)):
            moved = np.nonzero(self.owner[lo:hi] >= first)[0] + lo
            self.owner[moved] += delta
        self.rmap_generation += 1

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
