"""Two-list LRU reclaim: the baseline memory manager.

Linux keeps anonymous pages on an active and an inactive list and, under
memory pressure, evicts from the tail of the inactive list.  The paper's
``baseline`` configuration relies on exactly this mechanism (plus a ZRAM
swap device) when the workload outgrows the guest's DRAM.

The simulation approximates the two lists with per-page last-touch
timestamps: reclaim evicts the globally least-recently-touched present
pages first.  This matches the ordering the real lists converge to under
the periodic accessed-bit scans Linux performs, while staying fully
vectorized.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..units import SEC
from .vma import AddressSpace

__all__ = ["LruReclaimer", "LRU_SCAN_INTERVAL_US"]

#: Recency granularity of the baseline two-list LRU: the kernel's
#: accessed-bit scan cadence.  Within one interval, eviction order is
#: effectively arbitrary.
LRU_SCAN_INTERVAL_US = 4 * SEC


class LruReclaimer:
    """Global LRU eviction across one address space."""

    def __init__(self, space: AddressSpace, *, frames=None):
        self.space = space
        #: Optional :class:`~repro.sim.physmem.FrameTable` (the kernel
        #: provides it).  With it, sparse-residency victim selection
        #: enumerates the allocated frames instead of scanning the whole
        #: page table.
        self.frames = frames
        self.total_evicted = 0

    # ------------------------------------------------------------------
    def select_victims(
        self,
        n_pages: int,
        rng: Optional[np.random.Generator] = None,
        *,
        fast_only: bool = False,
    ) -> List[np.ndarray]:
        """Pick ~``n_pages`` least-recently-touched present pages.

        ``fast_only`` restricts candidates to DRAM-resident pages — the
        tiered reclaim path uses it so pressure on DRAM never selects
        pages already demoted to the slow tier.  The filter is applied
        *before* the tie-break draw, so on a flat machine (all pages
        tier 0) RNG consumption is unchanged whether or not it is set.

        The ordering is *approximate*, as in the real two-list LRU: the
        kernel only learns recency from periodic accessed-bit scans, so
        eviction order within a scan interval is arbitrary.  We model
        this by quantising timestamps to :data:`LRU_SCAN_INTERVAL_US`
        buckets with a seeded random tie-break.  (This imprecision is
        exactly what the LRU_PRIO / LRU_DEPRIO scheme actions improve
        on: the monitor knows recency at aggregation granularity.)

        Returns the chosen page indices split per VMA segment, segments
        ascending; the caller performs the actual state transition so
        swap latency and accounting live in one place (the kernel
        façade).
        """
        if n_pages <= 0:
            return []
        # One whole-table masked pass over the page table: pages in
        # index order, so segments in VMA address order.
        flat = self.space.flat
        if flat.n_pages == 0:
            return []
        frames = self.frames
        if frames is not None and frames.peak_allocated * 8 < flat.n_pages:
            # Sparse residency: every evictable page owns a frame, so the
            # frame table's live set IS the candidate set — O(allocated)
            # instead of an O(n_pages) mask scan.  Sorting restores the
            # ascending page order the mask scan produces, so the RNG
            # tie-break mapping (and hence the selection) is identical.
            idx = frames.owners(frames.allocated_frames())
            idx.sort()
            if flat.chunk_huge.any():
                idx = idx[~flat.huge_page_mask(idx)]
            if fast_only:
                idx = idx[flat.tier[idx] == 0]
        else:
            # A page mid-fault (present but no frame assigned yet) is
            # locked by its faulting thread and cannot be reclaimed.
            evictable = flat.present & (flat.frame >= 0)
            if fast_only:
                evictable &= flat.tier == 0
            if flat.chunk_huge.any():
                evictable &= ~flat.huge_page_mask()
            idx = np.nonzero(evictable)[0]
        if idx.size == 0:
            return []
        stamps = flat.last_touch[idx].astype(np.float64)
        gens = flat.lru_gen[idx].astype(np.float64)
        stamps = np.floor(stamps / LRU_SCAN_INTERVAL_US)
        if rng is not None:
            stamps = stamps + rng.random(stamps.size)
        # LRU class dominates: deprioritised pages go first, prioritised
        # pages last; within a class, oldest scan bucket first.
        stamps = stamps + gens * 1e12
        take = min(n_pages, stamps.size)
        order = np.argpartition(stamps, take - 1)[:take]
        self.total_evicted += take
        return flat.split_segments(idx[order])
