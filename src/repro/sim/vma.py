"""Virtual memory areas and address spaces.

The virtual-address monitoring primitive walks a target's VMA list to
find what to monitor (upstream DAMON's "three regions" heuristic: the
three contiguous spans separated by the two biggest unmapped gaps, which
in practice are heap | mmap area | stack), and resolves sample addresses
to page-table entries.  :class:`AddressSpace` provides both, with
vectorized address → flat page index resolution for the monitor's hot
path.  Its page table (:class:`~repro.sim.pagetable.FlatPageTable`)
holds one segment per VMA, in address order.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from ..errors import AddressSpaceError, ConfigError
from .pagetable import PAGE_SHIFT, PAGE_SIZE, FlatPageTable

__all__ = ["VMA", "AddressSpace"]


class VMA:
    """One mapped region ``[start, end)``; its pages are a segment of
    the address space's page table."""

    __slots__ = ("start", "end", "name")

    def __init__(self, start: int, end: int, name: str = ""):
        if start % PAGE_SIZE or end % PAGE_SIZE:
            raise ConfigError(
                f"VMA bounds must be page-aligned: [{start:#x}, {end:#x})"
            )
        if end <= start:
            raise ConfigError(f"empty VMA: [{start:#x}, {end:#x})")
        self.start = int(start)
        self.end = int(end)
        self.name = name

    def __repr__(self):
        return f"VMA({self.start:#x}, {self.end:#x}, {self.name!r})"

    @property
    def size(self) -> int:
        return self.end - self.start


class AddressSpace:
    """An ordered, non-overlapping collection of VMAs and their page
    table.

    ``mmap``/``munmap`` resize :attr:`flat` and rebuild the lookup
    arrays on the spot; the monitor's vectorized resolution path only
    ever reads them.
    """

    def __init__(self, name: str = "proc"):
        self.name = name
        self.vmas: List[VMA] = []
        #: The page table: one segment per VMA, in address order.
        self.flat = FlatPageTable()
        #: bumped on every layout change; the monitor's regions-update
        #: tick compares it to decide whether to re-derive target regions.
        self.generation = 0
        self.rebuild_lookup()

    def rebuild_lookup(self) -> None:
        """Derive the address lookup arrays from ``vmas`` and the page
        table's segment offsets."""
        self._starts = np.array([v.start for v in self.vmas], dtype=np.int64)
        self._ends = np.array([v.end for v in self.vmas], dtype=np.int64)
        # Address -> page position as np.interp knots: slope 1 / PAGE_SIZE
        # inside a VMA (VMA k spans positions po[k] to po[k + 1]), flat
        # across a gap.  PAGE_SIZE is a power of two and addresses stay
        # far below 2**53, so every position is exact.
        self._knots = (
            np.stack((self._starts, self._ends), axis=1).ravel().astype(np.float64),
            np.repeat(self.flat.page_offset, 2)[1:-1].astype(np.float64),
        )

    # ------------------------------------------------------------------
    # Layout mutation
    # ------------------------------------------------------------------
    def mmap(self, start: int, size: int, name: str = "") -> VMA:
        """Map ``[start, start + size)``; must not overlap existing VMAs."""
        end = start + size
        for vma in self.vmas:
            if start < vma.end and end > vma.start:
                raise AddressSpaceError(
                    f"mapping [{start:#x}, {end:#x}) overlaps {vma!r}"
                )
        vma = VMA(start, end, name)
        k = int(np.searchsorted(self._starts, vma.start))
        self.vmas.insert(k, vma)
        self.flat.insert_segment(k, vma.size // PAGE_SIZE)
        self.rebuild_lookup()
        self.generation += 1
        return vma

    def munmap(self, vma: VMA) -> None:
        """Remove a VMA and its pages from the space."""
        k = self._position(vma)
        del self.vmas[k]
        self.flat.remove_segment(k)
        self.rebuild_lookup()
        self.generation += 1

    def _position(self, vma: VMA) -> int:
        try:
            return self.vmas.index(vma)
        except ValueError:
            raise AddressSpaceError(f"{vma!r} not in {self.name}") from None

    def segment(self, vma: VMA) -> slice:
        """The page-table span ``[lo, hi)`` of ``vma``'s pages."""
        k = self._position(vma)
        po = self.flat.page_offset
        return slice(int(po[k]), int(po[k + 1]))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def resolve(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorized address resolution: the page-table index of each
        address, or -1 where it falls outside every mapping."""
        addrs = np.asarray(addrs, dtype=np.int64)
        starts, ends = self._starts, self._ends
        if starts.size == 0:
            return np.full(addrs.shape, -1, dtype=np.int64)
        k = np.searchsorted(starts, addrs, side="right") - 1
        safe = np.maximum(k, 0)
        mapped = (k >= 0) & (addrs < ends[safe])
        idx = self.flat.page_offset[safe] + ((addrs - starts[safe]) >> PAGE_SHIFT)
        return np.where(mapped, idx, -1)

    def spans(self, start: int, end: int) -> Iterable[Tuple[int, int]]:
        """Yield the page-table span ``(lo, hi)`` of ``[start, end)``
        within each VMA it overlaps, in address order.  A partly covered
        page counts.  A plain scan: every workload maps a handful of
        VMAs (heap, data, stack).
        """
        if end <= start:
            return
        po = self.flat.page_offset
        for k, vma in enumerate(self.vmas):
            if vma.end <= start or vma.start >= end:
                continue
            lo = (max(start, vma.start) - vma.start) // PAGE_SIZE
            hi = -(-(min(end, vma.end) - vma.start) // PAGE_SIZE)
            yield int(po[k]) + lo, int(po[k]) + hi

    def page_spans(self, starts: np.ndarray, ends: np.ndarray):
        """Page-table spans ``[lo, hi)`` of the address ranges
        ``[starts, ends)``: the union of what :meth:`spans` yields for
        each range.  The VMAs a range overlaps are adjacent segments
        (address order; gaps hold no pages), so one span covers them."""
        if not self.vmas:
            empty = np.zeros(np.shape(starts), dtype=np.int64)
            return empty, empty
        lo = np.interp(starts, *self._knots).astype(np.int64)  # floor: positions >= 0
        hi = np.ceil(np.interp(ends, *self._knots)).astype(np.int64)
        return lo, hi

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def resident_bytes(self) -> int:
        """DRAM-resident bytes across all VMAs (the RSS)."""
        return self.flat.n_present * PAGE_SIZE

    def span(self) -> Tuple[int, int]:
        """Lowest and highest mapped address."""
        if not self.vmas:
            raise AddressSpaceError(f"{self.name} has no mappings")
        return self.vmas[0].start, self.vmas[-1].end

    def three_regions(self) -> List[Tuple[int, int]]:
        """Upstream DAMON's initial-regions heuristic for virtual targets.

        A process address space typically has two huge unmapped gaps
        (between heap and mmap area, and between mmap area and stack).
        Monitoring across them wastes regions, so the target is split
        into the three spans separated by the two biggest gaps.
        """
        if not self.vmas:
            raise AddressSpaceError(f"{self.name} has no mappings")
        gaps: List[Tuple[int, int, int]] = []  # (size, gap_start, gap_end)
        for prev, cur in zip(self.vmas, self.vmas[1:]):
            if cur.start > prev.end:
                gaps.append((cur.start - prev.end, prev.end, cur.start))
        gaps.sort(reverse=True)
        big = sorted(g[1:] for g in gaps[:2])
        lo, hi = self.span()
        regions: List[Tuple[int, int]] = []
        cursor = lo
        for gap_start, gap_end in big:
            regions.append((cursor, gap_start))
            cursor = gap_end
        regions.append((cursor, hi))
        return [r for r in regions if r[1] > r[0]]
