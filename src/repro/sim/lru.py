"""Two-list LRU reclaim: the baseline memory manager.

Linux keeps anonymous pages on an active and an inactive list and, under
memory pressure, evicts from the tail of the inactive list.  The paper's
``baseline`` configuration relies on exactly this mechanism (plus a ZRAM
swap device) when the workload outgrows the guest's DRAM.

The simulation approximates the two lists with per-page last-touch
stamps in accessed-bit scan buckets: reclaim takes the oldest buckets
first, uniformly at random inside the last one it reaches, the order the
real lists converge to under Linux's periodic accessed-bit scans.
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
        #: provides it): under sparse residency, victim selection
        #: enumerates its allocated frames, not the whole page table.
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
        """Pick ``min(n_pages, candidates)`` pages of the oldest LRU classes.

        Candidates are present, framed pages outside huge mappings, and
        only DRAM-resident ones under ``fast_only``.  A candidate's class
        key is the integer ``lru_gen * 10**12 + last_touch //
        LRU_SCAN_INTERVAL_US``: deprioritised, normal, then prioritised
        pages, oldest scan bucket first in each; a COLD-advised stamp's
        bucket (about -1.15e12) puts a COLD page of class g before class g-1.

        As in the real two-list LRU, which learns recency only from
        periodic accessed-bit scans, order inside a scan interval is
        arbitrary: every class older than the boundary class (the one
        holding the ``take``-th oldest key) is taken whole, the rest is
        one uniform ``rng.choice`` without replacement from the boundary
        class, drawn only when that class does not fit whole (``rng=None``
        takes its first pages).  LRU_PRIO / LRU_DEPRIO improve on this.

        Returns the chosen page indices split per VMA segment, segments
        ascending, each older classes first (route order), then the draw:
        the order the caller demotes them in while the slow tier has room.
        """
        if n_pages <= 0:
            return []
        flat, frames = self.space.flat, self.frames
        if frames is not None and frames.peak_allocated * 8 < flat.n_pages:
            # Sparse residency: every evictable page owns a frame, so the
            # frame table's live set, in frame order, IS the candidate
            # set — O(allocated) instead of an O(n_pages) mask scan.
            idx = frames.owners(frames.allocated_frames())
            if flat.chunk_huge.any():
                idx = idx[~flat.huge_page_mask(idx)]
            if fast_only:
                idx = idx[flat.tier[idx] == 0]
        else:
            # One whole-table masked pass: candidates in page order.  A
            # page mid-fault (present but no frame assigned yet) is
            # locked by its faulting thread and cannot be reclaimed.
            evictable = flat.present & (flat.frame >= 0)
            if fast_only:
                evictable &= flat.tier == 0
            if flat.chunk_huge.any():
                evictable &= ~flat.huge_page_mask()
            idx = np.nonzero(evictable)[0]
        if idx.size == 0:
            return []
        take = min(n_pages, idx.size)
        if take < idx.size:
            keys = flat.last_touch[idx]
            keys //= LRU_SCAN_INTERVAL_US
            gens = flat.lru_gen[idx]
            if gens.any():
                keys += gens.astype(np.int64) * 10**12
            # The boundary class: most passes fit in the oldest one.
            tied = keys == keys.min()
            older = np.empty(0, dtype=np.int64)
            if np.count_nonzero(tied) < take:
                boundary = np.partition(keys, take - 1)[take - 1]
                older = np.nonzero(keys < boundary)[0]
                tied = keys == boundary
            tied = np.nonzero(tied)[0]
            k = take - older.size
            if k < tied.size:
                tied = tied[slice(k) if rng is None else rng.choice(tied.size, k, replace=False)]
            idx = idx[np.concatenate((older, tied))]
        self.total_evicted += take
        return flat.split_segments(idx)
