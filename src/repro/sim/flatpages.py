"""One flat struct-of-arrays page table per address space.

The kernel's hot paths — LRU victim selection, reclaim passes, THP
promotion scans, the monitor's probability reads — used to iterate the
address space's VMAs in Python and gather per-VMA arrays on every call.
:class:`FlatPageTable` concatenates every VMA's page columns into one
set of flat arrays so those paths become single whole-table masked NumPy
passes, with a ``vma_ordinal`` column replacing the Python iteration.

The flat table is the *storage*; each :class:`~repro.sim.pagetable.PageTable`
stays the write-through facade: on build, every VMA's column attributes
are rebound to slice views into the flat arrays (NumPy slices share
memory), so all existing per-VMA methods keep working unchanged while
whole-table passes read the same bytes.  This is the same
array-of-record → record-of-arrays move ``repro/monitor/region.py``
made for the monitor.

Layout invariants:

* segments appear in VMA address order (``AddressSpace.vmas`` order):
  the kernel draws its RNG once over a whole-table candidate set and
  breaks ``argpartition`` ties by position, so the concatenation order
  fixes which pages a seed faults, reclaims and promotes — reorder the
  segments and every seeded result and golden trace changes;
* ``page_chunk`` maps every page to its *global* 2 MiB chunk id, or -1
  for tail pages past a VMA's last full chunk (chunk alignment is
  VMA-local, so a global ``idx >> 9`` would be wrong);
* the table is immutable in *shape*: any mmap/munmap bumps the address
  space's generation and the next ``space.flat`` access rebuilds it,
  copying current state out of the (stale) views.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .pagetable import PAGES_PER_HUGE, next_probe_generation

__all__ = ["FlatPageTable"]

#: (attribute, dtype is taken from the source column) — the page-granular
#: columns concatenated into the flat table, in PageTable declaration order.
_PAGE_COLUMNS = (
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
)

_CHUNK_COLUMNS = ("chunk_huge", "chunk_promoted_at")


class FlatPageTable:
    """Concatenated page/chunk state for one address space's VMAs."""

    __slots__ = (
        "generation",
        "n_vmas",
        "n_pages",
        "n_chunks",
        "page_offset",
        "chunk_offset",
        "_knots",
        "vma_ordinal",
        "page_chunk",
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
        "chunk_huge",
        "chunk_promoted_at",
        "_chunk_rates",
        "probe_generation",
    )

    def __init__(self, vmas: List, generation: int):
        self.generation = generation
        #: Renewed by the bound page tables on every store into a column
        #: :meth:`access_probability` reads (``rate``, ``chunk_huge``), so
        #: an unchanged value means an unchanged answer.  Drawn from one
        #: process-wide sequence: a table rebuilt from a pickle at the
        #: same layout ``generation`` never repeats an earlier value.
        self.probe_generation = next_probe_generation()
        tables = [v.pages for v in vmas]
        self.n_vmas = len(tables)
        counts = np.array([pt.n_pages for pt in tables], dtype=np.int64)
        chunk_counts = np.array([pt.n_chunks for pt in tables], dtype=np.int64)
        po = np.zeros(self.n_vmas + 1, dtype=np.int64)
        co = np.zeros(self.n_vmas + 1, dtype=np.int64)
        if self.n_vmas:
            np.cumsum(counts, out=po[1:])
            np.cumsum(chunk_counts, out=co[1:])
        self.page_offset = po
        self.chunk_offset = co
        self.n_pages = int(po[-1])
        self.n_chunks = int(co[-1])
        # Address -> flat-table page position as np.interp knots: slope
        # 1 / PAGE_SIZE inside a VMA (VMA k spans positions po[k] to
        # po[k + 1]), flat across a gap.  PAGE_SIZE is a power of two and
        # addresses stay far below 2**53, so every position is exact.
        self._knots = (
            np.array([(v.start, v.end) for v in vmas], dtype=np.float64).ravel(),
            np.repeat(po, 2)[1:-1].astype(np.float64),
        )

        for name in _PAGE_COLUMNS:
            dtype = getattr(tables[0], name).dtype if tables else bool
            setattr(self, name, np.zeros(self.n_pages, dtype=dtype))
        for name in _CHUNK_COLUMNS:
            dtype = getattr(tables[0], name).dtype if tables else bool
            setattr(self, name, np.zeros(self.n_chunks, dtype=dtype))

        self.vma_ordinal = (
            np.repeat(np.arange(self.n_vmas, dtype=np.int64), counts)
            if self.n_vmas
            else np.empty(0, dtype=np.int64)
        )
        self.page_chunk = np.full(self.n_pages, -1, dtype=np.int64)
        for i, pt in enumerate(tables):
            sl = slice(int(po[i]), int(po[i + 1]))
            csl = slice(int(co[i]), int(co[i + 1]))
            for name in _PAGE_COLUMNS:
                getattr(self, name)[sl] = getattr(pt, name)
            for name in _CHUNK_COLUMNS:
                getattr(self, name)[csl] = getattr(pt, name)
            covered = pt.n_chunks * PAGES_PER_HUGE
            if covered:
                self.page_chunk[po[i] : po[i] + covered] = (
                    np.arange(covered, dtype=np.int64) >> 9
                ) + co[i]
            # Rebind the VMA's PageTable onto this storage: its columns
            # become views, so per-VMA mutations write through.
            pt._bind(self, sl, csl)
        self._chunk_rates = None

    # ------------------------------------------------------------------
    # Derived whole-table views
    # ------------------------------------------------------------------
    def page_spans(self, starts: np.ndarray, ends: np.ndarray):
        """Flat page intervals ``[lo, hi)`` of the address ranges
        ``[starts, ends)``: the pages ``AddressSpace.ranges_in`` yields
        for each range.  The VMAs a range overlaps are adjacent segments
        here (address order; gaps hold no pages), so one interval covers
        them."""
        if self.n_vmas == 0:
            empty = np.zeros(np.shape(starts), dtype=np.int64)
            return empty, empty
        lo = np.interp(starts, *self._knots).astype(np.int64)  # floor: positions >= 0
        hi = np.ceil(np.interp(ends, *self._knots)).astype(np.int64)
        return lo, hi

    def huge_page_mask(self, idx=None) -> np.ndarray:
        """Which pages (all, or global indices ``idx``) sit inside a
        huge-mapped chunk."""
        pc = self.page_chunk if idx is None else self.page_chunk[idx]
        if self.n_chunks == 0 or not self.chunk_huge.any():
            return np.zeros(pc.shape, dtype=bool)
        safe = np.where(pc >= 0, pc, 0)
        return (pc >= 0) & self.chunk_huge[safe]

    def chunk_total_rates(self) -> np.ndarray:
        """Per-chunk sums of page touch rates (float64), cached until the
        next rate change.

        Summed per segment with an exact ``reshape(...).sum(axis=1)``
        per VMA — summation order is part of the golden contract
        (``tests/test_goldens.py``; ``np.add.reduceat`` would change the
        floating-point result).
        """
        if self._chunk_rates is None:
            out = np.zeros(self.n_chunks, dtype=np.float64)
            po, co = self.page_offset, self.chunk_offset
            for i in range(self.n_vmas):
                nc = int(co[i + 1] - co[i])
                if nc == 0:
                    continue
                covered = nc * PAGES_PER_HUGE
                seg = self.rate[po[i] : po[i] + covered]
                out[co[i] : co[i + 1]] = seg.reshape(nc, PAGES_PER_HUGE).sum(
                    axis=1, dtype=np.float64
                )
            self._chunk_rates = out
        return self._chunk_rates

    def chunk_present_counts(self) -> np.ndarray:
        """Present 4 KiB pages per (full) chunk, whole-table."""
        pc = self.page_chunk
        sel = pc[(pc >= 0) & self.present]
        return np.bincount(sel, minlength=self.n_chunks)

    # ------------------------------------------------------------------
    # Probability models
    # ------------------------------------------------------------------
    def access_probability(self, idx: np.ndarray, window_us: float) -> np.ndarray:
        """P(accessed bit set) for global page indices ``idx`` over a
        ``window_us`` window.

        For pages inside a huge-mapped chunk the accessed bit lives in the
        PMD entry, so a touch *anywhere in the chunk* sets it; the
        effective rate is the chunk's total rate.  This mirrors hardware:
        huge mappings coarsen what the monitor can see.
        """
        rates = self.rate[idx].astype(np.float64)
        if self.n_chunks and self.chunk_huge.any():
            pc = self.page_chunk[idx]
            safe = np.where(pc >= 0, pc, 0)
            in_huge = (pc >= 0) & self.chunk_huge[safe]
            if in_huge.any():
                chunk_rates = self.chunk_total_rates()
                rates = np.where(in_huge, chunk_rates[safe], rates)
        return 1.0 - np.exp(-rates * (window_us / 1e6))

    def write_probability(self, idx: np.ndarray, window_us: float) -> np.ndarray:
        """P(dirty bit observed set) for global page indices ``idx``.

        Unlike the accessed bit (which the monitor clears each check),
        the dirty bit *persists* until writeback cleans it — clearing it
        would corrupt writeback bookkeeping.  A page already dirty reads
        as written with certainty; an as-yet-clean page may be caught by
        a write landing within the check window.
        """
        rates = self.write_rate[idx].astype(np.float64)
        fresh = 1.0 - np.exp(-rates * (window_us / 1e6))
        return np.where(self.dirty[idx], 1.0, fresh)
