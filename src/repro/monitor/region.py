"""Monitoring regions: the unit of the space/overhead trade-off.

A region covers ``[start, end)`` bytes of the monitored target and
carries the two outputs of the monitor: ``nr_accesses`` (how many of
the aggregation interval's sampling checks found the region's sample
page accessed — frequency) and ``age`` (for how many aggregation
intervals that frequency has been stable — recency).

The paper's overhead bound (§3.1) promises at most ``max_nr_regions``
checks per sampling interval; the constant in front of it is what this
module keeps small.  :class:`RegionArray` is a run's region table, one
row per region, as parallel NumPy columns::

    start / end / nr_accesses / last_nr_accesses / nr_writes   int64
    age / sampling_addr                                        int64
    write_ewma                                                 float64

and runs the per-aggregation passes — counter publish, merge+age,
counter reset, split, sampling-address choice — as whole-column
vector operations.  The table is built from row bounds
(:meth:`RegionArray.from_bounds`) and re-laid over new target ranges
after a layout change (:meth:`RegionArray.clipped_to`); there is no row
object.

Determinism contract: every pass is a pure function of the column state
and the monitor's seeded RNG; the RNG is drawn in fixed-size batches
(one batch per pass, sized by the region count), so the same seed
produces the same region trajectory on every run and on every machine.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError, MonitorStateError
from ..sim.pagetable import PAGE_SHIFT, PAGE_SIZE

if TYPE_CHECKING:
    import numpy.typing as npt

__all__ = ["MIN_REGION_SIZE", "RegionArray"]

#: Regions never shrink below one page: the sampling granularity.
MIN_REGION_SIZE = PAGE_SIZE

#: The int64 columns, in canonical order.
_INT_COLUMNS = (
    "start",
    "end",
    "nr_accesses",
    "last_nr_accesses",
    "nr_writes",
    "age",
    "sampling_addr",
)
#: Every column of a region row; ``write_ewma`` is the float64 one.
_COLUMNS = _INT_COLUMNS + ("write_ewma",)
#: The monitoring history a row keeps through a layout change.
_HISTORY = ("nr_accesses", "last_nr_accesses", "nr_writes", "write_ewma", "age")


class RegionArray:
    """The monitor's region table as parallel NumPy columns.

    ``last_nr_accesses`` holds the previous aggregation's count; the
    aging step compares it with the fresh count to decide between
    incrementing and resetting ``age``.  ``write_ewma`` is a peak-hold
    write indicator: it rises to the per-aggregation write count at
    once and decays slowly while the region idles, so a periodically
    rewritten region stays visibly "dirty" through idle windows where
    ``nr_writes`` reads zero — which is what write-aware schemes must
    see.
    """

    __slots__ = _COLUMNS + ("generation",)

    start: np.ndarray
    end: np.ndarray
    nr_accesses: np.ndarray
    last_nr_accesses: np.ndarray
    nr_writes: np.ndarray
    age: np.ndarray
    sampling_addr: np.ndarray
    write_ewma: np.ndarray
    generation: int

    def __init__(self, n: int = 0):
        for name in _INT_COLUMNS:
            setattr(self, name, np.zeros(n, dtype=np.int64))
        self.write_ewma = np.zeros(n, dtype=np.float64)
        #: Bumped on every structural change (merge, split).
        self.generation = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_bounds(cls, starts: npt.ArrayLike, ends: npt.ArrayLike) -> RegionArray:
        """Fresh rows ``[starts[i], ends[i])``: counters zero, each row
        sampling its own start.  Raises :class:`ConfigError` for a row
        below ``MIN_REGION_SIZE``."""
        start = np.array(starts, dtype=np.int64)
        ra = cls(start.size)
        ra.start, ra.sampling_addr = start, start.copy()
        ra.end[:] = ends
        undersized = ra._undersized()
        if undersized:
            raise ConfigError(f"{undersized} below minimum size {MIN_REGION_SIZE}")
        return ra

    def clipped_to(self, ranges: Iterable[Tuple[int, int]]) -> RegionArray:
        """The table re-laid over new target ``ranges`` (a layout change).

        Rows overlapping a range survive clipped to it and keep their
        counters — monitoring history outlives mmap/munmap — and the
        uncovered parts of the ranges become fresh rows.  Every byte of
        every range at least ``MIN_REGION_SIZE`` long stays covered (the
        tiling invariant): a piece below the minimum, clipped survivor
        and gap fill alike, is absorbed into the next piece (the last
        one into the previous), which keeps its own counters.  A whole
        range below the minimum is too small to monitor at page
        granularity and gets no row.  The table must be sorted and
        non-overlapping, as every pass keeps it.
        """
        row_start, row_end = self.start.tolist(), self.end.tolist()
        starts: List[int] = []
        ends: List[int] = []
        sources: List[int] = []  # the surviving row of each output row, -1: fresh
        for range_start, range_end in ranges:
            # The pieces tiling the range, as (end, source): each starts
            # where the previous one ends.
            pieces: List[Tuple[int, int]] = []
            covered = range_start
            for i in range(bisect_right(row_end, range_start), bisect_left(row_start, range_end)):
                if row_start[i] > covered:
                    pieces.append((row_start[i], -1))
                covered = min(row_end[i], range_end)
                pieces.append((covered, i))
            if range_end > covered:
                pieces.append((range_end, -1))
            cursor, first = range_start, len(starts)
            for end, source in pieces:
                if end - cursor >= MIN_REGION_SIZE:
                    starts.append(cursor)
                    ends.append(end)
                    sources.append(source)
                    cursor = end
            if cursor < range_end and len(starts) > first:
                ends[-1] = range_end
        out = RegionArray.from_bounds(starts, ends)
        source = np.array(sources, dtype=np.int64)
        kept = source >= 0
        for name in _HISTORY:
            getattr(out, name)[kept] = getattr(self, name)[source[kept]]
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Current region count."""
        return int(self.start.shape[0])

    def total_bytes(self) -> int:
        """Bytes covered by all regions."""
        return int((self.end - self.start).sum())

    def _undersized(self) -> str:
        """The first row below ``MIN_REGION_SIZE``, described; ``""``
        when there is none."""
        sizes = self.end - self.start
        if not self.n or int(sizes.min()) >= MIN_REGION_SIZE:
            return ""
        i = int(sizes.argmin())
        return f"region [{int(self.start[i]):#x}, {int(self.end[i]):#x})"

    def check_invariants(
        self, ranges: Optional[Iterable[Tuple[int, int]]] = None
    ) -> None:
        """Structural invariants: minimum size, sortedness, and — when
        ``ranges`` is given — the tiling invariant (the regions tile the
        target ranges byte for byte: every region lies inside one range
        and together they cover every range's bytes)."""
        undersized = self._undersized()
        if undersized:
            raise MonitorStateError(f"undersized {undersized}")
        if self.n > 1 and bool((self.start[1:] < self.end[:-1]).any()):
            i = int((self.start[1:] < self.end[:-1]).argmax()) + 1
            raise MonitorStateError(
                f"overlapping region [{int(self.start[i]):#x}, "
                f"{int(self.end[i]):#x})"
            )
        if ranges is None:
            return
        bounds = np.array(sorted(ranges), dtype=np.int64).reshape(-1, 2)
        expected = int((bounds[:, 1] - bounds[:, 0]).sum())
        covered = self.total_bytes()
        if covered != expected:
            raise MonitorStateError(
                f"regions cover {covered} bytes but the target ranges "
                f"span {expected} — the region list no longer tiles "
                f"the monitored address space"
            )
        # The range each row starts in; it must also end there.
        j = np.searchsorted(bounds[:, 0], self.start, side="right") - 1
        outside = (j < 0) | (self.end > bounds[j, 1])
        if outside.any():
            i = int(outside.argmax())
            raise MonitorStateError(
                f"region [{int(self.start[i]):#x}, {int(self.end[i]):#x}) "
                f"lies in no single target range — the region list no "
                f"longer tiles the monitored address space"
            )

    # ------------------------------------------------------------------
    # The per-aggregation vector passes
    # ------------------------------------------------------------------
    def publish(
        self,
        acc: np.ndarray,
        wacc: np.ndarray,
        addrs: Optional[np.ndarray] = None,
    ) -> None:
        """Publish one aggregation interval's accumulated counters.

        Raises :class:`MonitorStateError` when the accumulator lengths
        have diverged from the region count (e.g. a callback mutated the
        region list mid-interval), so no count is silently dropped.
        """
        n = self.n
        if len(acc) != n or len(wacc) != n:
            raise MonitorStateError(
                f"counter publish length mismatch: {n} regions but "
                f"{len(acc)} access / {len(wacc)} write accumulators — "
                f"was the region list mutated mid-interval?"
            )
        np.copyto(self.nr_accesses, acc)
        np.copyto(self.nr_writes, wacc)
        # Peak-hold with slow decay; floored so long-idle regions
        # eventually read as fully clean again.
        np.maximum(wacc.astype(np.float64), self.write_ewma * 0.95,
                   out=self.write_ewma)
        self.write_ewma[self.write_ewma < 0.5] = 0.0
        if addrs is not None and len(addrs) == n:
            np.copyto(self.sampling_addr, addrs)

    def age_and_merge(self, threshold: int, sz_limit: int) -> int:
        """One merge pass with aging (upstream damon_merge_regions_of):
        age every region, then fold runs of adjacent regions whose
        published counts differ by at most ``threshold``, capping each
        merged region at ``sz_limit`` so at least ``min_nr_regions``
        survive.  Returns the number of merges performed.

        Merged counters are size-weighted averages of the parents'
        (paper §3.1) and the merged row keeps the first parent's
        sampling address; similarity is judged between the *published*
        neighbour counts, in one vector pass.
        """
        n = self.n
        if n == 0:
            return 0
        # Aging: stable access count → older; changed → reset.
        changed = np.abs(self.nr_accesses - self.last_nr_accesses) > threshold
        self.age = np.where(changed, 0, self.age + 1)
        if n == 1:
            return 0
        mergeable = (self.end[:-1] == self.start[1:]) & (
            np.abs(self.nr_accesses[:-1] - self.nr_accesses[1:]) <= threshold
        )
        if not mergeable.any():
            return 0
        sizes = self.end - self.start
        cum = np.cumsum(sizes)
        # Greedy size-capped fold: walk each mergeable run chunk by
        # chunk (searchsorted over the cumulative sizes), so the Python
        # loop is over *chunks*, not regions.
        is_chunk_start = np.ones(n, dtype=bool)
        run_idx = np.flatnonzero(mergeable)
        run_breaks = np.flatnonzero(np.diff(run_idx) > 1) + 1
        for run in np.split(run_idx, run_breaks):
            first, last = int(run[0]), int(run[-1]) + 1  # regions first..last
            j = first
            while j <= last:
                base = int(cum[j]) - int(sizes[j])
                k = int(np.searchsorted(cum, base + sz_limit, side="right")) - 1
                k = min(max(k, j), last)
                is_chunk_start[j + 1 : k + 1] = False
                j = k + 1
        starts_idx = np.flatnonzero(is_chunk_start)
        n_new = len(starts_idx)
        if n_new == n:
            return 0
        ends_idx = np.append(starts_idx[1:], n) - 1
        weight_sum = np.add.reduceat(sizes, starts_idx)

        def _avg_int(column: np.ndarray) -> np.ndarray:
            return np.rint(
                np.add.reduceat(column * sizes, starts_idx) / weight_sum
            ).astype(np.int64)

        new_nr = _avg_int(self.nr_accesses)
        new_last = _avg_int(self.last_nr_accesses)
        new_writes = _avg_int(self.nr_writes)
        new_age = _avg_int(self.age)
        new_ewma = (
            np.add.reduceat(self.write_ewma * sizes, starts_idx) / weight_sum
        )
        new_start = self.start[starts_idx]
        new_end = self.end[ends_idx]
        new_sampling = self.sampling_addr[starts_idx]
        self.start, self.end = new_start, new_end
        self.nr_accesses, self.last_nr_accesses = new_nr, new_last
        self.nr_writes, self.write_ewma = new_writes, new_ewma
        self.age, self.sampling_addr = new_age, new_sampling
        self.generation += 1
        return n - n_new

    def reset_counters(self) -> None:
        """Counter reset at the end of an aggregation interval:
        current → ``last_nr_accesses``, current cleared."""
        np.copyto(self.last_nr_accesses, self.nr_accesses)
        self.nr_accesses[:] = 0

    def split(self, rng: np.random.Generator, pieces: int) -> int:
        """Split every splittable region into up to ``pieces`` randomly
        sized, page-aligned subregions.  Children inherit all counters —
        the monitor has no evidence yet that they differ (upstream
        ``damon_split_region_at``).  Returns the number of regions added.

        Both rounds draw one RNG batch over the whole table (draws for
        unsplittable rows are made and discarded), keeping consumption a
        function of (region count, pieces) only — deterministic under a
        fixed seed regardless of which regions happen to be splittable.
        """
        n = self.n
        if n == 0 or pieces < 2:
            return 0
        sizes = self.end - self.start
        n_pages = sizes >> PAGE_SHIFT
        split1 = n_pages >= 2
        offs1 = rng.integers(1, np.where(split1, n_pages, 2))
        cut1 = np.where(split1, self.start + (offs1 << PAGE_SHIFT), self.end)
        if pieces >= 3:
            right_pages = np.where(split1, self.end - cut1, 0) >> PAGE_SHIFT
            split2 = split1 & (right_pages >= 2)
            offs2 = rng.integers(1, np.where(split2, right_pages, 2))
            cut2 = np.where(split2, cut1 + (offs2 << PAGE_SHIFT), self.end)
        else:
            split2 = np.zeros(n, dtype=bool)
            cut2 = self.end
        counts = 1 + split1.astype(np.int64) + split2.astype(np.int64)
        total = int(counts.sum())
        if total == n:
            return 0
        base = np.cumsum(counts) - counts  # first-child output row per region

        out_start = np.empty(total, dtype=np.int64)
        out_end = np.empty(total, dtype=np.int64)
        out_start[base] = self.start
        out_end[base + counts - 1] = self.end
        i1 = np.flatnonzero(split1)
        out_end[base[i1]] = cut1[i1]
        out_start[base[i1] + 1] = cut1[i1]
        i2 = np.flatnonzero(split2)
        out_end[base[i2] + 1] = cut2[i2]
        out_start[base[i2] + 2] = cut2[i2]

        self.start, self.end = out_start, out_end
        self.nr_accesses = np.repeat(self.nr_accesses, counts)
        self.last_nr_accesses = np.repeat(self.last_nr_accesses, counts)
        self.nr_writes = np.repeat(self.nr_writes, counts)
        self.write_ewma = np.repeat(self.write_ewma, counts)
        self.age = np.repeat(self.age, counts)
        # Fresh children sample from their own start, as a fresh row
        # does; unsplit rows keep their sampling address.
        out_sampling = out_start.copy()
        unsplit = np.flatnonzero(counts == 1)
        out_sampling[base[unsplit]] = self.sampling_addr[unsplit]
        self.sampling_addr = out_sampling
        self.generation += 1
        return total - n

    def sampling_addrs(self, uniforms: np.ndarray) -> np.ndarray:
        """Page-aligned sample addresses for uniforms in ``[0, 1)``, one
        per region along the last axis (elementwise, so a ``(rounds, n)``
        block yields the addresses of ``rounds`` consecutive picks)."""
        n_pages = (self.end - self.start) >> PAGE_SHIFT
        return self.start + ((uniforms * n_pages).astype(np.int64) << PAGE_SHIFT)

    def pick_sampling_addrs(self, rng: np.random.Generator) -> np.ndarray:
        """One random page-aligned sample address per region, from one
        batch draw.  The ``sampling_addr`` column is *not* written here:
        the sampling loop owns the pending addresses and :meth:`publish`
        refreshes the column at aggregation boundaries."""
        if self.n == 0:
            return np.empty(0, dtype=np.int64)
        return self.sampling_addrs(rng.random(self.n))
