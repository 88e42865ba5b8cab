"""Virtual memory areas and address spaces.

The virtual-address monitoring primitive walks a target's VMA list to
find what to monitor (upstream DAMON's "three regions" heuristic: the
three contiguous spans separated by the two biggest unmapped gaps, which
in practice are heap | mmap area | stack), and resolves sample addresses
to page-table entries.  :class:`AddressSpace` provides both, with
vectorized address → (vma, page) resolution for the monitor's hot path.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..errors import AddressSpaceError, ConfigError
from .flatpages import FlatPageTable
from .pagetable import PAGE_SIZE, PageTable

__all__ = ["VMA", "AddressSpace"]


class VMA:
    """One mapped region ``[start, end)`` with its page table."""

    __slots__ = ("start", "end", "name", "pages")

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
        self.pages = PageTable((end - start) // PAGE_SIZE)

    def __repr__(self):
        return f"VMA({self.start:#x}, {self.end:#x}, {self.name!r})"

    @property
    def size(self) -> int:
        return self.end - self.start

    def page_index(self, addr: int) -> int:
        """Page index of ``addr`` within this VMA."""
        if not self.start <= addr < self.end:
            raise AddressSpaceError(f"{addr:#x} outside {self!r}")
        return (addr - self.start) // PAGE_SIZE


class AddressSpace:
    """An ordered, non-overlapping collection of VMAs.

    Mutation (``mmap``/``munmap``) invalidates the cached lookup arrays,
    which are rebuilt lazily; the monitor's vectorized resolution path
    only ever reads them.
    """

    def __init__(self, name: str = "proc"):
        self.name = name
        self.vmas: List[VMA] = []
        self._starts: Optional[np.ndarray] = None
        self._ends: Optional[np.ndarray] = None
        #: bumped on every layout change; the monitor's regions-update
        #: tick compares it to decide whether to re-derive target regions.
        self.generation = 0
        self._flat: Optional[FlatPageTable] = None

    def __getstate__(self):
        """Pickle without the flat table or lookup caches.

        A pickled numpy view materializes as an independent copy, which
        would silently sever the write-through binding between per-VMA
        page tables and the flat storage on restore.  Dropping ``_flat``
        (and the lazily-rebuilt lookup arrays) instead makes the first
        ``flat`` access after unpickling rebuild the storage from the
        VMAs' columns and rebind the views — the same path a layout
        change takes.
        """
        state = dict(self.__dict__)
        state["_flat"] = None
        state["_starts"] = None
        state["_ends"] = None
        return state

    @property
    def flat(self) -> FlatPageTable:
        """The concatenated struct-of-arrays page table for this space.

        Built lazily and rebuilt after any layout change (tracked via
        ``generation``); building rebinds every VMA's page-table columns
        to views into the flat storage, so per-VMA and whole-table code
        always read/write the same bytes.
        """
        flat = self._flat
        if flat is None or flat.generation != self.generation:
            flat = self._flat = FlatPageTable(self.vmas, self.generation)
        return flat

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
        self.vmas.append(vma)
        self.vmas.sort(key=lambda v: v.start)
        self._starts = self._ends = None
        self.generation += 1
        return vma

    def munmap(self, vma: VMA) -> None:
        """Remove a VMA from the space."""
        try:
            self.vmas.remove(vma)
        except ValueError:
            raise AddressSpaceError(f"{vma!r} not in {self.name}") from None
        self._starts = self._ends = None
        self.generation += 1

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _lookup_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._starts is None:
            self._starts = np.array([v.start for v in self.vmas], dtype=np.int64)
            self._ends = np.array([v.end for v in self.vmas], dtype=np.int64)
        return self._starts, self._ends

    def find(self, addr: int) -> Optional[VMA]:
        """The VMA containing ``addr``, or ``None`` for a gap."""
        starts, ends = self._lookup_arrays()
        if starts.size == 0:
            return None
        i = int(np.searchsorted(starts, addr, side="right")) - 1
        if i >= 0 and addr < ends[i]:
            return self.vmas[i]
        return None

    def resolve(self, addrs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized address resolution.

        Returns ``(vma_idx, page_idx, mapped)`` arrays: the VMA index and
        page index for each address, and a boolean mask of which
        addresses fall inside a mapping.  Unmapped entries carry
        ``vma_idx == -1``.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        starts, ends = self._lookup_arrays()
        if starts.size == 0:
            neg = np.full(addrs.shape, -1, dtype=np.int64)
            return neg, neg.copy(), np.zeros(addrs.shape, dtype=bool)
        vma_idx = np.searchsorted(starts, addrs, side="right") - 1
        in_range = vma_idx >= 0
        safe = np.where(in_range, vma_idx, 0)
        mapped = in_range & (addrs < ends[safe])
        page_idx = (addrs - starts[safe]) >> 12
        vma_idx = np.where(mapped, vma_idx, -1)
        page_idx = np.where(mapped, page_idx, -1)
        return vma_idx, page_idx, mapped

    # ------------------------------------------------------------------
    # Range iteration (bulk operations split per VMA)
    # ------------------------------------------------------------------
    def ranges_in(self, start: int, end: int) -> Iterable[Tuple[VMA, int, int]]:
        """Yield ``(vma, page_lo, page_hi)`` for each VMA overlapping
        ``[start, end)``, in address order, with page indices local to
        the VMA.  A plain scan: every workload maps a handful of VMAs
        (heap, data, stack).
        """
        if end <= start:
            return
        for vma in self.vmas:
            if vma.end <= start or vma.start >= end:
                continue
            lo_addr = max(start, vma.start)
            hi_addr = min(end, vma.end)
            lo = (lo_addr - vma.start) // PAGE_SIZE
            hi = -(-(hi_addr - vma.start) // PAGE_SIZE)
            yield vma, lo, hi

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def mapped_bytes(self) -> int:
        """Total bytes covered by the VMAs."""
        return sum(v.size for v in self.vmas)

    def resident_bytes(self) -> int:
        """DRAM-resident bytes across all VMAs (the RSS)."""
        return sum(v.pages.resident_pages() for v in self.vmas) * PAGE_SIZE

    def swapped_bytes(self) -> int:
        """Bytes currently held on the swap device."""
        return sum(v.pages.swapped_pages() for v in self.vmas) * PAGE_SIZE

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

    # ------------------------------------------------------------------
    # Epoch maintenance
    # ------------------------------------------------------------------
    def clear_rates(self) -> None:
        """Reset every VMA's touch rates at an epoch boundary."""
        for vma in self.vmas:
            vma.pages.clear_rates()
