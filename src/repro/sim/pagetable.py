"""Page-granular state for one VMA.

The monitor only ever interacts with memory through two operations —
*clear the accessed bit of a page* and *was this page accessed since the
bit was cleared* — and the schemes engine through bulk state transitions
(page out, fault in, promote, demote).  This module stores that state in
NumPy struct-of-arrays form so every bulk operation is vectorized.

Accessed-bit semantics
----------------------
Workloads declare, per epoch, a *touch rate* (expected touches per second)
for each page.  A page's accessed bit, cleared at time ``t0`` and read at
``t1``, is set with probability ``1 - exp(-rate * (t1 - t0))`` — the
Poisson model of whether at least one touch landed in the window.  This
reproduces exactly the statistics the kernel monitor sees from real PTE
accessed bits, while letting the simulation emit accesses at epoch
granularity instead of one event per load instruction.  Rates are
declared here, per VMA; the probability is read in one place, off the
address space's flat table
(:meth:`repro.sim.flatpages.FlatPageTable.access_probability`).

Concrete page touches (faults, RSS changes, LRU recency) are applied
separately through :meth:`PageTable.touch_range`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import AddressSpaceError, ConfigError

__all__ = ["PAGE_SIZE", "PAGE_SHIFT", "HUGE_PAGE_SIZE", "PAGES_PER_HUGE", "PageTable"]

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT  # 4 KiB
HUGE_PAGE_SIZE = 2 << 20  # 2 MiB
PAGES_PER_HUGE = HUGE_PAGE_SIZE // PAGE_SIZE  # 512

#: last_touch value for pages never touched.
NEVER = np.int64(-(1 << 62))


class PageTable:
    """State arrays for ``n_pages`` contiguous virtual pages.

    Attributes
    ----------
    present : bool[n]
        Page is resident in DRAM (has a frame).
    swapped : bool[n]
        Page content lives on the swap device.
    rate : float32[n]
        Current-epoch touch rate in touches/second (accessed-bit model).
    last_touch : int64[n]
        Virtual time (usec) of the most recent concrete touch; ``NEVER``
        if untouched.  Drives the LRU baseline and THP demotion.
    touch_count : int64[n]
        Cumulative concrete touches — ground truth for accuracy tests.
    frame : int64[n]
        Physical frame number, or -1 when not present.
    write_rate : float32[n]
        Current-epoch write rate (dirty-bit model; write channel).
    dirty : bool[n]
        PTE dirty bit: set on write, cleared by writeback.
    bloat : bool[n]
        Resident purely due to a huge-page promotion, never touched —
        the only pages a demotion may free.
    lru_gen : int8[n]
        LRU placement class (-1 deprioritised / 0 normal / +1 protected)
        set by the LRU_PRIO / LRU_DEPRIO actions.
    tier : int8[n]
        Memory tier of a present page's frame: 0 = DRAM, 1 = slow tier.
        Always 0 for non-present pages (tier is a property of the frame,
        and a page without a frame has none).
    chunk_huge : bool[n_chunks]
        The 2 MiB chunk is mapped by a huge page.
    chunk_promoted_at : int64[n_chunks]
        Virtual time of the chunk's most recent promotion (``NEVER`` if
        never promoted); used to return bloat on demotion.
    """

    __slots__ = (
        "n_pages",
        "present",
        "swapped",
        "rate",
        "write_rate",
        "dirty",
        "last_touch",
        "touch_count",
        "frame",
        "bloat",
        "lru_gen",
        "tier",
        "n_chunks",
        "chunk_huge",
        "chunk_promoted_at",
        "n_present",
        "n_swapped",
        "_owner",
        "_rate_slices",
    )

    def __init__(self, n_pages: int):
        if n_pages <= 0:
            raise ConfigError(f"a VMA needs at least one page: {n_pages}")
        self.n_pages = int(n_pages)
        self.present = np.zeros(n_pages, dtype=bool)
        self.swapped = np.zeros(n_pages, dtype=bool)
        self.rate = np.zeros(n_pages, dtype=np.float32)
        # Write channel (the paper's stated future work: distinguishing
        # reads from writes).  ``dirty`` models the PTE dirty bit: set on
        # write, cleared by writeback (swap-out); ``write_rate`` is the
        # per-epoch write rate feeding the dirty-bit sampling model.
        self.write_rate = np.zeros(n_pages, dtype=np.float32)
        self.dirty = np.zeros(n_pages, dtype=bool)
        self.last_touch = np.full(n_pages, NEVER, dtype=np.int64)
        self.touch_count = np.zeros(n_pages, dtype=np.int64)
        self.frame = np.full(n_pages, -1, dtype=np.int64)
        # Pages made resident purely by a huge-page promotion and never
        # touched since: the only pages a demotion may free (they carry
        # no application data).
        self.bloat = np.zeros(n_pages, dtype=bool)
        # LRU placement class: -1 = deprioritised (inactive tail),
        # 0 = normal, +1 = prioritised (active head).  Reclaim consumes
        # lower classes first; the LRU_PRIO/LRU_DEPRIO actions set it.
        self.lru_gen = np.zeros(n_pages, dtype=np.int8)
        # Memory tier of the backing frame (0 = DRAM, 1 = slow tier);
        # meaningful only while present, and kept 0 otherwise.
        self.tier = np.zeros(n_pages, dtype=np.int8)
        # Only chunks fully inside the mapping can be huge-mapped (a huge
        # page needs a full, aligned 2 MiB of VMA); tail pages past the
        # last full chunk are never huge.
        self.n_chunks = n_pages // PAGES_PER_HUGE
        self.chunk_huge = np.zeros(self.n_chunks, dtype=bool)
        self.chunk_promoted_at = np.full(self.n_chunks, NEVER, dtype=np.int64)
        # Incremental residency accounting: every state transition that
        # flips ``present``/``swapped`` goes through a method of this
        # class and keeps these counters exact, so RSS reads are O(1)
        # instead of a whole-table count.
        self.n_present = 0
        self.n_swapped = 0
        # The FlatPageTable this table's columns are views into (None
        # while standalone); rate mutations invalidate its chunk cache.
        self._owner = None
        # Ranges written by rate declarations since the last clear, so
        # the epoch-boundary reset zeroes only what was touched instead
        # of the whole table.  ``None`` = lost track, do a full fill.
        self._rate_slices = []

    def __getstate__(self):
        """Pickle as a standalone table: no owner.

        The column arrays may be views into a
        :class:`~repro.sim.flatpages.FlatPageTable`; pickling serializes
        their *values* (a view materializes as a copy), and carrying the
        owner along would both duplicate the flat storage in the payload
        and leave the restored table bound to an orphaned flat.  The
        address space rebuilds and rebinds the flat table on first use.
        """
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_owner"] = None
        return (None, state)

    def _bind(self, flat, page_sl: slice, chunk_sl: slice) -> None:
        """Rebind every column to a slice view of ``flat``'s storage.

        Called by :class:`repro.sim.flatpages.FlatPageTable` after it
        copied this table's current state into its flat arrays.  Views
        share memory, so all per-VMA methods keep writing through.
        """
        self.present = flat.present[page_sl]
        self.swapped = flat.swapped[page_sl]
        self.rate = flat.rate[page_sl]
        self.write_rate = flat.write_rate[page_sl]
        self.dirty = flat.dirty[page_sl]
        self.last_touch = flat.last_touch[page_sl]
        self.touch_count = flat.touch_count[page_sl]
        self.frame = flat.frame[page_sl]
        self.bloat = flat.bloat[page_sl]
        self.lru_gen = flat.lru_gen[page_sl]
        self.tier = flat.tier[page_sl]
        self.chunk_huge = flat.chunk_huge[chunk_sl]
        self.chunk_promoted_at = flat.chunk_promoted_at[chunk_sl]
        self._owner = flat

    def _invalidate_chunk_rates(self) -> None:
        """Every ``rate`` store ends here: drop the owning flat table's
        chunk-sum cache."""
        if self._owner is not None:
            self._owner._chunk_rates = None

    # ------------------------------------------------------------------
    # Bounds helpers
    # ------------------------------------------------------------------
    def _check_range(self, lo: int, hi: int) -> None:
        if not (0 <= lo <= hi <= self.n_pages):
            raise AddressSpaceError(
                f"page range [{lo}, {hi}) outside table of {self.n_pages} pages"
            )

    # ------------------------------------------------------------------
    # Concrete touches (channel 1: faults, RSS, recency)
    # ------------------------------------------------------------------
    def touch_range(
        self,
        lo: int,
        hi: int,
        now: int,
        *,
        fraction: float = 1.0,
        touches: float = 1.0,
        stride: int = 1,
        write_fraction: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        """Touch a subset of pages in ``[lo, hi)`` at virtual time ``now``.

        ``fraction`` of the pages (a seeded random subset when < 1) are
        touched ``touches`` times each; a ``stride`` > 1 instead touches
        every ``stride``-th page — the *same* pages every epoch, which is
        how sparse-but-stable residency (the THP bloat scenario) is
        expressed.  Returns a dict with the indices of major faults
        (swap-ins), minor faults (first-touch allocations) and the full
        touched index array — the kernel turns these into latency costs
        and frame (de)allocations.
        """
        self._check_range(lo, hi)
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError(f"fraction must be in [0, 1]: {fraction}")
        if not 0.0 <= write_fraction <= 1.0:
            raise ConfigError(f"write_fraction must be in [0, 1]: {write_fraction}")
        if stride < 1:
            raise ConfigError(f"stride must be at least 1: {stride}")
        if fraction == 0.0 or lo == hi:
            empty = np.empty(0, dtype=np.int64)
            return {"touched": empty, "major": empty, "minor": empty}
        if stride == 1 and fraction >= 1.0:
            # Contiguous full-range touch — the dominant burst shape
            # (sweeps, streams, hotspots).  Slice assignments avoid the
            # index gather/scatter of the general path; fault indices
            # from nonzero match the gathered ones element for element.
            sl = slice(lo, hi)
            major = np.nonzero(self.swapped[sl])[0] + lo
            minor = np.nonzero(~(self.present[sl] | self.swapped[sl]))[0] + lo
            self.present[sl] = True
            self.swapped[sl] = False
            self.bloat[sl] = False
            self.last_touch[sl] = now
            self.touch_count[sl] += max(1, int(round(touches)))
            touched = np.arange(lo, hi, dtype=np.int64)
            if write_fraction >= 1.0:
                self.dirty[sl] = True
            elif write_fraction > 0.0:
                if rng is None:
                    raise ConfigError("fractional writes require an RNG")
                writers = touched[rng.random(touched.size) < write_fraction]
                self.dirty[writers] = True
            self.n_present += int(major.size + minor.size)
            self.n_swapped -= int(major.size)
            return {"touched": touched, "major": major, "minor": minor}
        if stride > 1:
            touched = np.arange(lo, hi, stride, dtype=np.int64)
        else:
            if rng is None:
                raise ConfigError("fractional touch requires an RNG")
            mask = rng.random(hi - lo) < fraction
            touched = np.nonzero(mask)[0].astype(np.int64) + lo

        swapped = self.swapped[touched]
        present = self.present[touched]
        major = touched[swapped]
        minor = touched[~present & ~swapped]

        self.present[touched] = True
        self.swapped[touched] = False
        self.bloat[touched] = False
        self.last_touch[touched] = now
        self.touch_count[touched] += max(1, int(round(touches)))
        if write_fraction >= 1.0:
            self.dirty[touched] = True
        elif write_fraction > 0.0:
            if rng is None:
                raise ConfigError("fractional writes require an RNG")
            writers = touched[rng.random(touched.size) < write_fraction]
            self.dirty[writers] = True
        self.n_present += int(major.size + minor.size)
        self.n_swapped -= int(major.size)
        return {"touched": touched, "major": major, "minor": minor}

    # ------------------------------------------------------------------
    # Accessed-bit channel (channel 2: monitoring)
    # ------------------------------------------------------------------
    def _record_rate_slice(self, lo: int, hi: int) -> None:
        slices = self._rate_slices
        if slices is not None:
            if len(slices) >= 64:
                self._rate_slices = None  # too fragmented; full clear
            else:
                slices.append((lo, hi))

    def set_rate(self, lo: int, hi: int, rate_per_sec: float) -> None:
        """Declare the touch rate of ``[lo, hi)`` for the current epoch."""
        self._check_range(lo, hi)
        if rate_per_sec < 0:
            raise ConfigError(f"rate must be non-negative: {rate_per_sec}")
        self.rate[lo:hi] = rate_per_sec
        self._record_rate_slice(lo, hi)
        self._invalidate_chunk_rates()

    def add_rate(self, lo: int, hi: int, rate_per_sec: float, stride: int = 1) -> None:
        """Accumulate touch rate over ``[lo, hi)`` — bursts may overlap."""
        self._check_range(lo, hi)
        if rate_per_sec < 0:
            raise ConfigError(f"rate must be non-negative: {rate_per_sec}")
        if stride < 1:
            raise ConfigError(f"stride must be at least 1: {stride}")
        self.rate[lo:hi:stride] += rate_per_sec
        self._record_rate_slice(lo, hi)
        self._invalidate_chunk_rates()

    def add_write_rate(self, lo: int, hi: int, rate_per_sec: float, stride: int = 1) -> None:
        """Accumulate write rate over ``[lo, hi)`` (dirty-bit channel)."""
        self._check_range(lo, hi)
        if rate_per_sec < 0:
            raise ConfigError(f"rate must be non-negative: {rate_per_sec}")
        if stride < 1:
            raise ConfigError(f"stride must be at least 1: {stride}")
        self.write_rate[lo:hi:stride] += rate_per_sec
        self._record_rate_slice(lo, hi)

    def clear_rates(self) -> None:
        """Reset all touch rates at an epoch boundary.

        Zeroes only the ranges declared since the last clear (every
        declaration goes through the methods above, which record their
        range); a whole-table fill would cost O(table) per epoch no
        matter how little of it the workload touched.
        """
        slices = self._rate_slices
        if slices is None:
            self.rate.fill(0.0)
            self.write_rate.fill(0.0)
        else:
            for lo, hi in slices:
                self.rate[lo:hi] = 0.0
                self.write_rate[lo:hi] = 0.0
        self._rate_slices = []
        self._invalidate_chunk_rates()

    def huge_mask(self, idx: np.ndarray) -> np.ndarray:
        """Which of pages ``idx`` sit inside a huge-mapped chunk."""
        idx = np.asarray(idx, dtype=np.int64)
        if self.n_chunks == 0 or not self.chunk_huge.any():
            return np.zeros(idx.shape, dtype=bool)
        chunk_ids = idx >> 9
        safe = np.minimum(chunk_ids, self.n_chunks - 1)
        return self.chunk_huge[safe] & (chunk_ids < self.n_chunks)

    # ------------------------------------------------------------------
    # State transitions used by scheme actions and reclaim
    # ------------------------------------------------------------------
    def pageout_range(self, lo: int, hi: int):
        """Unmap present pages in ``[lo, hi)`` to swap; returns
        ``(indices, n_dirty)`` where ``n_dirty`` prices the writeback.

        Pages inside huge-mapped chunks are skipped: the kernel must split
        (demote) a huge mapping before it can reclaim its subpages, and
        DAMOS's PAGEOUT does not do that implicitly.
        """
        self._check_range(lo, hi)
        candidates = self.present[lo:hi].copy()
        if self.chunk_huge.any():
            candidates &= ~self.huge_mask(np.arange(lo, hi, dtype=np.int64))
        idx = np.nonzero(candidates)[0].astype(np.int64) + lo
        n_dirty = int(np.count_nonzero(self.dirty[idx]))
        self.present[idx] = False
        self.swapped[idx] = True
        self.lru_gen[idx] = 0
        # Writeback cleans the pages; clean pages whose content already
        # sits in swap cost nothing to store again.
        self.dirty[idx] = False
        self.n_present -= int(idx.size)
        self.n_swapped += int(idx.size)
        return idx, n_dirty

    def swap_in_range(self, lo: int, hi: int) -> np.ndarray:
        """Fault swapped pages of ``[lo, hi)`` back in; returns their indices."""
        self._check_range(lo, hi)
        idx = np.nonzero(self.swapped[lo:hi])[0].astype(np.int64) + lo
        self.swapped[idx] = False
        self.present[idx] = True
        self.n_present += int(idx.size)
        self.n_swapped -= int(idx.size)
        return idx

    def promote_chunks(self, chunks: np.ndarray, now: int):
        """Map the given (full) chunks with huge pages.

        All 512 pages of each chunk become resident — this is exactly
        THP's memory bloat.  Already-huge chunks are skipped.  Returns
        ``(promoted_chunks, new_page_idx, n_swapped)``: the chunks
        actually promoted, the pages that became newly present (the
        caller allocates frames for them), and how many of those were
        swapped out (the caller settles the swap device's accounting).
        """
        chunks = np.asarray(chunks, dtype=np.int64)
        if chunks.size and (int(chunks.max()) >= self.n_chunks or int(chunks.min()) < 0):
            raise AddressSpaceError(f"chunk index outside [0, {self.n_chunks})")
        chunks = chunks[~self.chunk_huge[chunks]]
        if chunks.size == 0:
            return chunks, np.empty(0, dtype=np.int64), 0
        pages = (chunks[:, None] * PAGES_PER_HUGE + np.arange(PAGES_PER_HUGE)).ravel()
        new_idx = pages[~self.present[pages]]
        n_swapped = int(np.count_nonzero(self.swapped[pages]))
        self.present[pages] = True
        self.swapped[pages] = False
        # Pages that ever held data (touched at least once, including
        # swapped ones) are not bloat; truly fresh subpages are.
        self.bloat[new_idx] = True
        self.bloat[new_idx[self.last_touch[new_idx] > NEVER]] = False
        self.chunk_huge[chunks] = True
        self.chunk_promoted_at[chunks] = now
        self.n_present += int(new_idx.size)
        self.n_swapped -= n_swapped
        return chunks, new_idx, n_swapped

    def demote_chunks(self, chunks: np.ndarray, now: int):
        """Split huge mappings back into 4 KiB pages.

        Subpages never touched since the promotion carry no data the
        application ever used, so the split returns them to the allocator
        (the Ingens-style bloat recovery the paper's ``ethp`` relies on).
        Returns ``(demoted_chunks, freed_page_idx)``.
        """
        chunks = np.asarray(chunks, dtype=np.int64)
        if chunks.size and (int(chunks.max()) >= self.n_chunks or int(chunks.min()) < 0):
            raise AddressSpaceError(f"chunk index outside [0, {self.n_chunks})")
        chunks = chunks[self.chunk_huge[chunks]]
        if chunks.size == 0:
            return chunks, np.empty(0, dtype=np.int64)
        pages = (chunks[:, None] * PAGES_PER_HUGE + np.arange(PAGES_PER_HUGE)).ravel()
        freed_idx = pages[self.bloat[pages] & self.present[pages]]
        self.present[freed_idx] = False
        self.bloat[freed_idx] = False
        self.chunk_huge[chunks] = False
        self.n_present -= int(freed_idx.size)
        return chunks, freed_idx

    # ------------------------------------------------------------------
    # Kernel-side transitions (the façade's write paths).  Every flip of
    # ``present``/``swapped`` goes through this class, which keeps the
    # residency counters exact; the kernel itself stores only ``frame``
    # and ``tier`` (backing) and ``lru_gen``/``last_touch`` (LRU hints).
    # ------------------------------------------------------------------
    def evict_pages(self, idx: np.ndarray, *, clear_bloat: bool = False):
        """Move present pages ``idx`` to swap (reclaim / phys pageout).

        Returns ``(frames, n_dirty)``: the physical frames to release and
        the dirty count that prices the writeback.  ``clear_bloat``
        matches the physical pageout path, which drops bloat status on
        eviction (the page's content now lives in swap).
        """
        frames = self.frame[idx]
        frames = frames[frames >= 0]
        n_dirty = int(np.count_nonzero(self.dirty[idx]))
        self.present[idx] = False
        self.swapped[idx] = True
        self.dirty[idx] = False
        self.frame[idx] = -1
        self.tier[idx] = 0
        if clear_bloat:
            self.bloat[idx] = False
        self.n_present -= int(idx.size)
        self.n_swapped += int(idx.size)
        return frames, n_dirty

    def revert_faults(self, drop_major: np.ndarray, drop_minor: np.ndarray) -> None:
        """Undo this batch's faults on the given pages (allocation shed):
        major-fault pages return to swap, minor-fault pages to untouched."""
        if drop_major.size:
            self.present[drop_major] = False
            self.swapped[drop_major] = True
            self.dirty[drop_major] = False
            self.frame[drop_major] = -1
            self.tier[drop_major] = 0
        if drop_minor.size:
            self.present[drop_minor] = False
            self.dirty[drop_minor] = False
            self.frame[drop_minor] = -1
            self.tier[drop_minor] = 0
        self.n_present -= int(drop_major.size + drop_minor.size)
        self.n_swapped += int(drop_major.size)

    def rollback_pageout(self, idx: np.ndarray, dirty: np.ndarray) -> None:
        """Re-map pages ``idx`` that :meth:`pageout_range` already moved
        to swap but the device could not store (swap full), restoring
        their dirty bits."""
        self.present[idx] = True
        self.swapped[idx] = False
        self.dirty[idx] = dirty
        self.n_present += int(idx.size)
        self.n_swapped -= int(idx.size)

    def rollback_swapin(self, idx: np.ndarray) -> None:
        """Return pages ``idx`` to swap after a prefetch could not get
        frames (advisory WILLNEED overflow)."""
        self.present[idx] = False
        self.swapped[idx] = True
        self.frame[idx] = -1
        self.tier[idx] = 0
        self.n_present -= int(idx.size)
        self.n_swapped += int(idx.size)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def resident_pages(self) -> int:
        """Number of DRAM-resident pages (RSS contribution); O(1) via
        the incremental counter."""
        return self.n_present

    def swapped_pages(self) -> int:
        """Number of pages currently on the swap device; O(1)."""
        return self.n_swapped
