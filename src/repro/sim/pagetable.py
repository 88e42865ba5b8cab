"""The page table: page-granular state for one address space.

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
granularity instead of one event per load instruction.  Concrete page
touches (faults, RSS changes, LRU recency) are applied separately
through :meth:`FlatPageTable.touch_range`.

Layout
------
One set of page columns and one set of 2 MiB chunk columns per address
space, addressed by one flat page index.  Each VMA owns one *segment*:
segment ``k`` (the ``k``-th VMA in address order) holds pages
``[page_offset[k], page_offset[k + 1])`` and chunks
``[chunk_offset[k], chunk_offset[k + 1])``.

* Segments are in VMA address order.  The kernel draws its RNG once
  over a whole-table candidate set and breaks ``argpartition`` ties by
  position, so this order fixes which pages a seed faults, reclaims and
  promotes; reorder the segments and every seeded result changes.
* Chunk alignment is segment-local: a segment's ``j``-th chunk covers
  its pages ``[512 j, 512 j + 512)``, and the tail pages past its last
  full chunk belong to no chunk (a huge page needs a full, aligned
  2 MiB of VMA).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import AddressSpaceError, ConfigError

__all__ = ["PAGE_SIZE", "PAGE_SHIFT", "HUGE_PAGE_SIZE", "PAGES_PER_HUGE", "FlatPageTable"]

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT  # 4 KiB
HUGE_PAGE_SIZE = 2 << 20  # 2 MiB
PAGES_PER_HUGE = HUGE_PAGE_SIZE // PAGE_SIZE  # 512

#: last_touch value for pages never touched.
NEVER = np.int64(-(1 << 62))

#: Page columns, name -> (dtype, value of a freshly mapped page).
_PAGE_COLUMNS = {
    "present": (bool, False),
    "swapped": (bool, False),
    "rate": (np.float32, 0.0),
    "write_rate": (np.float32, 0.0),
    "dirty": (bool, False),
    "last_touch": (np.int64, NEVER),
    "touch_count": (np.int64, 0),
    "frame": (np.int64, -1),
    "bloat": (bool, False),
    "lru_gen": (np.int8, 0),
    "tier": (np.int8, 0),
}

#: Chunk columns, name -> (dtype, value of a freshly mapped chunk).
_CHUNK_COLUMNS = {
    "chunk_huge": (bool, False),
    "chunk_promoted_at": (np.int64, NEVER),
}


class FlatPageTable:
    """State arrays for every page of one address space.

    Attributes
    ----------
    present : bool[n]
        Page is resident in DRAM (has a frame).
    swapped : bool[n]
        Page content lives on the swap device.
    rate : float32[n]
        Current-epoch touch rate in touches/second (accessed-bit model).
    write_rate : float32[n]
        Current-epoch write rate (dirty-bit model; write channel).
    dirty : bool[n]
        PTE dirty bit: set on write, cleared by writeback.
    last_touch : int64[n]
        Virtual time (usec) of the most recent concrete touch; ``NEVER``
        if untouched.  Drives the LRU baseline and THP demotion.
    touch_count : int64[n]
        Cumulative concrete touches — ground truth for accuracy tests.
    frame : int64[n]
        Physical frame number, or -1 when not present.
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
        never promoted).
    n_present, n_swapped : int
        Incremental residency counters: every transition that flips
        ``present``/``swapped`` is a method of this class and keeps them
        exact, so RSS reads are O(1).
    """

    __slots__ = (
        "n_pages",
        "n_chunks",
        "page_offset",
        "chunk_offset",
        *_PAGE_COLUMNS,
        *_CHUNK_COLUMNS,
        "n_present",
        "n_swapped",
        "_rate_slices",
        "_chunk_rates",
    )

    def __init__(self):
        self.n_pages = 0
        self.n_chunks = 0
        self.page_offset = np.zeros(1, dtype=np.int64)
        self.chunk_offset = np.zeros(1, dtype=np.int64)
        for name, (dtype, _) in {**_PAGE_COLUMNS, **_CHUNK_COLUMNS}.items():
            setattr(self, name, np.zeros(0, dtype=dtype))
        self.n_present = 0
        self.n_swapped = 0
        # Ranges written by rate declarations since the last clear, so
        # the epoch-boundary reset zeroes only what was touched instead
        # of the whole table.  ``None`` = lost track, do a full fill.
        self._rate_slices = []
        # Per-chunk rate sums, cached until the next rate change.
        self._chunk_rates = None

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def insert_segment(self, k: int, n_pages: int) -> None:
        """Insert a segment of ``n_pages`` fresh pages as segment ``k``.

        Every column is resized to its exact new size, one at a time, so
        the peak is the table plus one column.  Later segments' indices
        grow by ``n_pages`` (the rmap follows through
        :meth:`repro.sim.physmem.FrameTable.shift_owners`).
        """
        if n_pages <= 0:
            raise ConfigError(f"a segment needs at least one page: {n_pages}")
        n_chunks = n_pages // PAGES_PER_HUGE
        p, c = int(self.page_offset[k]), int(self.chunk_offset[k])
        for columns, at, n in ((_PAGE_COLUMNS, p, n_pages), (_CHUNK_COLUMNS, c, n_chunks)):
            for name, (dtype, fill) in columns.items():
                # A short tail appended to a long column grows its buffer in
                # place (realloc, no copy; numpy zero-fills the tail).  Any
                # other shape, or a buffer something else holds, is copied
                # into fresh zero pages, which stay lazy until written.
                try:
                    if at != getattr(self, name).size or n > at:
                        raise ValueError(name)
                    getattr(self, name).resize(at + n, refcheck=True)
                except ValueError:
                    old = getattr(self, name)
                    new = np.zeros(old.size + n, dtype=dtype)
                    new[:at], new[at + n :] = old[:at], old[at:]
                    setattr(self, name, new)
                if fill:
                    getattr(self, name)[at : at + n] = fill
        po, co = self.page_offset, self.chunk_offset
        self.page_offset = np.concatenate((po[: k + 1], po[k:] + n_pages))
        self.chunk_offset = np.concatenate((co[: k + 1], co[k:] + n_chunks))
        self._layout_changed()

    def remove_segment(self, k: int) -> None:
        """Drop segment ``k``; later segments' indices shrink by its size."""
        p, q = int(self.page_offset[k]), int(self.page_offset[k + 1])
        c, d = int(self.chunk_offset[k]), int(self.chunk_offset[k + 1])
        self.n_present -= int(np.count_nonzero(self.present[p:q]))
        self.n_swapped -= int(np.count_nonzero(self.swapped[p:q]))
        for columns, lo, hi in ((_PAGE_COLUMNS, p, q), (_CHUNK_COLUMNS, c, d)):
            for name in columns:
                old = getattr(self, name)
                setattr(self, name, np.concatenate((old[:lo], old[hi:])))
        po, co = self.page_offset, self.chunk_offset
        self.page_offset = np.concatenate((po[:k], po[k + 1 :] - (q - p)))
        self.chunk_offset = np.concatenate((co[:k], co[k + 1 :] - (d - c)))
        self._layout_changed()

    def _layout_changed(self) -> None:
        self.n_pages = int(self.page_offset[-1])
        self.n_chunks = int(self.chunk_offset[-1])
        # Recorded rate ranges name old positions: clear everything next.
        self._rate_slices = None
        self._chunk_rates = None

    def segment_bounds(self):
        """``(first page, first chunk, chunk count)`` per segment."""
        po, co = self.page_offset.tolist(), self.chunk_offset.tolist()
        for k in range(len(po) - 1):
            yield po[k], co[k], co[k + 1] - co[k]

    def chunk_of(self, idx: np.ndarray) -> np.ndarray:
        """The chunk of each page ``idx``, or -1 for a tail page past its
        segment's last full chunk."""
        ends = (idx.min(), idx.max()) if idx.size else (0, 0)
        seg = np.searchsorted(self.page_offset, ends, side="right") - 1
        # Pages of one segment, the common case, share its offsets.
        seg = seg[0] if seg[0] == seg[1] else np.searchsorted(self.page_offset, idx, "right") - 1
        chunk = self.chunk_offset[seg] + ((idx - self.page_offset[seg]) >> 9)  # 512 pages each
        chunk[chunk >= self.chunk_offset[seg + 1]] = -1
        return chunk

    def chunk_pages(self, chunks: np.ndarray) -> np.ndarray:
        """The pages of ``chunks``, chunk by chunk (512 per chunk)."""
        seg = np.searchsorted(self.chunk_offset, chunks, side="right") - 1
        first = self.page_offset[seg] + (chunks - self.chunk_offset[seg]) * PAGES_PER_HUGE
        return (first[:, None] + np.arange(PAGES_PER_HUGE)).ravel()

    def chunk_span(self, lo: int, hi: int, *, inner: bool):
        """The chunks ``[first, last)`` of the segment holding the pages
        ``[lo, hi)`` that lie wholly inside the span (``inner``) or
        overlap it."""
        k = int(np.searchsorted(self.page_offset, lo, side="right")) - 1
        p, c0, c1 = (int(self.page_offset[k]), int(self.chunk_offset[k]),
                     int(self.chunk_offset[k + 1]))
        if inner:
            first, last = -(-(lo - p) // PAGES_PER_HUGE), (hi - p) // PAGES_PER_HUGE
        else:
            first, last = (lo - p) // PAGES_PER_HUGE, -(-(hi - p) // PAGES_PER_HUGE)
        return c0 + first, c0 + min(last, c1 - c0)

    def split_segments(self, idx: np.ndarray):
        """``idx`` split into one array per segment it touches, segments
        ascending, each keeping the order of ``idx``."""
        seg = np.searchsorted(self.page_offset, idx, side="right") - 1
        return [idx[seg == k] for k in np.unique(seg)]

    # ------------------------------------------------------------------
    # Bounds helpers
    # ------------------------------------------------------------------
    def _check_range(self, lo: int, hi: int) -> None:
        if not (0 <= lo <= hi <= self.n_pages):
            raise AddressSpaceError(
                f"page range [{lo}, {hi}) outside table of {self.n_pages} pages"
            )

    def _check_chunks(self, chunks: np.ndarray) -> np.ndarray:
        chunks = np.asarray(chunks, dtype=np.int64)
        if chunks.size and (int(chunks.max()) >= self.n_chunks or int(chunks.min()) < 0):
            raise AddressSpaceError(f"chunk index outside [0, {self.n_chunks})")
        return chunks

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
            sel = slice(lo, hi)
            touched = np.arange(lo, hi, dtype=np.int64)
            major = np.nonzero(self.swapped[sel])[0] + lo
            minor = np.nonzero(~(self.present[sel] | self.swapped[sel]))[0] + lo
        else:
            if stride > 1:
                touched = np.arange(lo, hi, stride, dtype=np.int64)
            elif rng is None:
                raise ConfigError("fractional touch requires an RNG")
            else:
                touched = np.nonzero(rng.random(hi - lo) < fraction)[0].astype(np.int64) + lo
            sel = touched
            swapped = self.swapped[touched]
            major = touched[swapped]
            minor = touched[~self.present[touched] & ~swapped]
        self.present[sel] = True
        self.swapped[sel] = False
        self.bloat[sel] = False
        self.last_touch[sel] = now
        self.touch_count[sel] += max(1, int(round(touches)))
        if write_fraction >= 1.0:
            self.dirty[sel] = True
        elif write_fraction > 0.0:
            if rng is None:
                raise ConfigError("fractional writes require an RNG")
            self.dirty[touched[rng.random(touched.size) < write_fraction]] = True
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

    def add_rate(self, lo: int, hi: int, rate_per_sec: float, stride: int = 1) -> None:
        """Accumulate touch rate over ``[lo, hi)`` — bursts may overlap."""
        self._check_range(lo, hi)
        if rate_per_sec < 0:
            raise ConfigError(f"rate must be non-negative: {rate_per_sec}")
        if stride < 1:
            raise ConfigError(f"stride must be at least 1: {stride}")
        self.rate[lo:hi:stride] += rate_per_sec
        self._record_rate_slice(lo, hi)
        self._chunk_rates = None

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
        self._chunk_rates = None

    # ------------------------------------------------------------------
    # Derived whole-table views
    # ------------------------------------------------------------------
    def huge_page_mask(self, idx: Optional[np.ndarray] = None) -> np.ndarray:
        """Which pages (all, or the indices ``idx``) sit inside a
        huge-mapped chunk."""
        if idx is None:
            mask = np.zeros(self.n_pages, dtype=bool)
            if self.chunk_huge.any():
                for p, c, nc in self.segment_bounds():
                    mask[p : p + nc * PAGES_PER_HUGE] = np.repeat(
                        self.chunk_huge[c : c + nc], PAGES_PER_HUGE
                    )
            return mask
        idx = np.asarray(idx, dtype=np.int64)
        if not self.chunk_huge.any():
            return np.zeros(idx.shape, dtype=bool)
        return np.append(self.chunk_huge, False)[self.chunk_of(idx)]  # -1: no chunk

    def chunk_total_rates(self) -> np.ndarray:
        """Per-chunk sums of page touch rates (float64), cached until the
        next rate change.

        Summed per segment with an exact ``reshape(...).sum(axis=1)`` —
        summation order is part of the golden contract
        (``tests/test_goldens.py``; ``np.add.reduceat`` would change the
        floating-point result).
        """
        if self._chunk_rates is None:
            out = np.zeros(self.n_chunks, dtype=np.float64)
            for p, c, nc in self.segment_bounds():
                if nc:
                    seg = self.rate[p : p + nc * PAGES_PER_HUGE]
                    out[c : c + nc] = seg.reshape(nc, PAGES_PER_HUGE).sum(
                        axis=1, dtype=np.float64
                    )
            self._chunk_rates = out
        return self._chunk_rates

    def chunk_present_counts(self) -> np.ndarray:
        """Present 4 KiB pages per (full) chunk, whole-table."""
        out = np.zeros(self.n_chunks, dtype=np.int64)
        for p, c, nc in self.segment_bounds():
            if nc:
                seg = self.present[p : p + nc * PAGES_PER_HUGE]
                out[c : c + nc] = seg.reshape(nc, PAGES_PER_HUGE).sum(axis=1)
        return out

    # ------------------------------------------------------------------
    # Probability models
    # ------------------------------------------------------------------
    def access_probability(self, idx: np.ndarray, window_us: float) -> np.ndarray:
        """P(accessed bit set) for pages ``idx`` over a ``window_us``
        window.

        For pages inside a huge-mapped chunk the accessed bit lives in the
        PMD entry, so a touch *anywhere in the chunk* sets it; the
        effective rate is the chunk's total rate.  This mirrors hardware:
        huge mappings coarsen what the monitor can see.
        """
        rates = self.rate[idx].astype(np.float64)
        if self.chunk_huge.any():
            chunk = self.chunk_of(idx)
            in_huge = np.append(self.chunk_huge, False)[chunk]  # -1: no chunk
            if in_huge.any():
                rates = np.where(in_huge, self.chunk_total_rates()[chunk], rates)
        return 1.0 - np.exp(-rates * (window_us / 1e6))

    def write_probability(self, idx: np.ndarray, window_us: float) -> np.ndarray:
        """P(dirty bit observed set) for pages ``idx``.

        Unlike the accessed bit (which the monitor clears each check),
        the dirty bit *persists* until writeback cleans it — clearing it
        would corrupt writeback bookkeeping.  A page already dirty reads
        as written with certainty; an as-yet-clean page may be caught by
        a write landing within the check window.
        """
        rates = self.write_rate[idx].astype(np.float64)
        fresh = 1.0 - np.exp(-rates * (window_us / 1e6))
        return np.where(self.dirty[idx], 1.0, fresh)

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
            candidates &= ~self.huge_page_mask(np.arange(lo, hi, dtype=np.int64))
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
        """Map the given chunks with huge pages.

        All 512 pages of each chunk become resident — this is exactly
        THP's memory bloat.  Already-huge chunks are skipped.  Returns
        ``(promoted_chunks, new_page_idx, n_swapped)``: the chunks
        actually promoted, the pages that became newly present (the
        caller allocates frames for them), and how many of those were
        swapped out (the caller settles the swap device's accounting).
        """
        chunks = self._check_chunks(chunks)
        chunks = chunks[~self.chunk_huge[chunks]]
        if chunks.size == 0:
            return chunks, np.empty(0, dtype=np.int64), 0
        pages = self.chunk_pages(chunks)
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
        chunks = self._check_chunks(chunks)
        chunks = chunks[self.chunk_huge[chunks]]
        if chunks.size == 0:
            return chunks, np.empty(0, dtype=np.int64)
        pages = self.chunk_pages(chunks)
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
