"""Monitoring regions: the unit of the space/overhead trade-off.

A region covers ``[start, end)`` bytes of the monitored target and
carries the two outputs of the monitor: ``nr_accesses`` (how many of
the aggregation interval's sampling checks found the region's sample
page accessed — frequency) and ``age`` (for how many aggregation
intervals that frequency has been stable — recency).

The paper's overhead bound (§3.1) promises at most ``max_nr_regions``
checks per sampling interval; the constant in front of it is what this
module keeps small.  :class:`RegionArray` is the monitor's region table
as parallel NumPy columns::

    start / end / nr_accesses / last_nr_accesses / nr_writes   int64
    age / sampling_addr                                        int64
    write_ewma                                                 float64

and runs the per-aggregation passes — counter publish, merge+age,
counter reset, split, sampling-address choice — as whole-column
vector operations.

Determinism contract: every pass is a pure function of the column state
and the monitor's seeded RNG; the RNG is drawn in fixed-size batches
(one batch per pass, sized by the region count), so the same seed
produces the same region trajectory on every run and on every machine.

:class:`RegionView` is the object façade for callbacks, invariant checks
and the schemes engine's per-region action loop: it reads and writes the
backing columns in place, so ``view.age = 0`` is visible to the next
vectorized pass.  Views are positional — valid until the next structural
pass (merge/split/layout update) reorders the table — and cost nothing
to make, so consumers ask for fresh ones.

:class:`Region` is a free-standing row: what ``monitor.regions = [...]``
and ``init_regions`` build a table from, and what the (rare, row-based)
layout-change path :func:`regions_intersecting` clips.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, MonitorStateError
from ..sim.pagetable import PAGE_SHIFT, PAGE_SIZE

__all__ = [
    "MIN_REGION_SIZE",
    "Region",
    "RegionArray",
    "RegionView",
    "regions_intersecting",
]

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


class _Row:
    """What a region row says about itself, wherever its columns live
    (:class:`Region`: its own slots; :class:`RegionView`: a table)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return (
            f"Region({self.start:#x}-{self.end:#x}, "
            f"nr={self.nr_accesses}, age={self.age})"
        )

    @property
    def size(self) -> int:
        return self.end - self.start

    def overlaps(self, start: int, end: int) -> bool:
        """Does this region intersect ``[start, end)``?"""
        return self.start < end and start < self.end


class Region(_Row):
    """One monitoring region.

    ``last_nr_accesses`` holds the previous aggregation's count; the
    aging step compares it with the fresh count to decide between
    incrementing and resetting ``age``.
    """

    __slots__ = _COLUMNS

    def __init__(self, start: int, end: int):
        if end - start < MIN_REGION_SIZE:
            raise ConfigError(
                f"region [{start:#x}, {end:#x}) below minimum size {MIN_REGION_SIZE}"
            )
        self.start = int(start)
        self.end = int(end)
        self.nr_accesses = 0
        self.last_nr_accesses = 0
        self.nr_writes = 0
        # Peak-hold write indicator: rises to the per-aggregation write
        # count immediately, decays slowly while the region idles.  A
        # periodically-rewritten region stays visibly "dirty" through
        # its idle windows, where the instantaneous ``nr_writes`` reads
        # zero — which is what write-aware schemes must see.
        self.write_ewma = 0.0
        self.age = 0
        self.sampling_addr = int(start)


def regions_intersecting(
    regions: List[Region], ranges: List[tuple]
) -> List[Region]:
    """Clip an existing region list to a new set of target ranges.

    Used by the regions-update step: regions overlapping the new layout
    survive (clipped to it, keeping their counters — monitoring history
    is preserved across mmap/munmap), and uncovered parts of the new
    ranges get fresh regions.

    Every byte of every range at least ``MIN_REGION_SIZE`` long ends up
    covered (the tiling invariant): pieces that fall below the minimum
    region size — clipped survivors and gap-fill slivers alike — are
    absorbed into the adjacent region instead of being dropped, so
    mapped memory never silently leaves monitoring.
    """
    out: List[Region] = []
    for range_start, range_end in ranges:
        # Tile the range with (start, end, source-or-None) pieces:
        # clipped survivors interleaved with gap fills, any size.
        pieces: List[tuple] = []
        covered = range_start
        for region in regions:
            if not region.overlaps(range_start, range_end):
                continue
            lo = max(region.start, range_start)
            hi = min(region.end, range_end)
            if lo > covered:
                pieces.append((covered, lo, None))
            pieces.append((lo, hi, region))
            covered = hi
        if range_end > covered:
            pieces.append((covered, range_end, None))
        # Absorb sub-minimum slivers into the next piece (the last one
        # into the previous): neighbours extend over them, keeping their
        # own counters.
        merged: List[tuple] = []
        carry: Optional[int] = None
        for start, end, source in pieces:
            if carry is not None:
                start = carry
                carry = None
            if end - start < MIN_REGION_SIZE:
                carry = start
                continue
            merged.append((start, end, source))
        if carry is not None:
            if merged:
                last_start, _, last_source = merged[-1]
                merged[-1] = (last_start, range_end, last_source)
            # else: the whole range is below the minimum region size —
            # too small to monitor at page granularity; skip it.
        for start, end, source in merged:
            region = Region(start, end)
            if source is not None:
                region.nr_accesses = source.nr_accesses
                region.last_nr_accesses = source.last_nr_accesses
                region.nr_writes = source.nr_writes
                region.write_ewma = source.write_ewma
                region.age = source.age
            out.append(region)
    return out


def _column(name: str, cast: type) -> property:
    """A :class:`RegionView` attribute over column ``name``: reads and
    writes go straight to the view's row (``cast`` so consumers see
    plain Python numbers)."""

    def fget(view):
        return cast(getattr(view._ra, name)[view._i])

    def fset(view, value) -> None:
        getattr(view._ra, name)[view._i] = value

    return property(fget, fset)


class RegionView(_Row):
    """One region of a :class:`RegionArray`, viewed as an object.

    Attribute reads/writes go straight to the backing columns; the view
    quacks exactly like :class:`Region` for the schemes engine,
    snapshots and tests.  Positional: stale after the next structural
    pass of the owning array.
    """

    __slots__ = ("_ra", "_i")

    def __init__(self, ra: RegionArray, index: int):
        self._ra = ra
        self._i = index

    start = _column("start", int)
    end = _column("end", int)
    nr_accesses = _column("nr_accesses", int)
    last_nr_accesses = _column("last_nr_accesses", int)
    nr_writes = _column("nr_writes", int)
    write_ewma = _column("write_ewma", float)
    age = _column("age", int)
    sampling_addr = _column("sampling_addr", int)


class RegionArray:
    """The monitor's region table as parallel NumPy columns."""

    __slots__ = _COLUMNS + ("generation",)

    def __init__(self, n: int = 0):
        for name in _INT_COLUMNS:
            setattr(self, name, np.zeros(n, dtype=np.int64))
        self.write_ewma = np.zeros(n, dtype=np.float64)
        #: Bumped on every structural change (merge, split).
        self.generation = 0

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_regions(cls, regions: Sequence) -> RegionArray:
        """Build a column table from Region-like objects (copies)."""
        ra = cls(len(regions))
        for name in _COLUMNS:
            getattr(ra, name)[:] = [getattr(region, name) for region in regions]
        return ra

    def to_regions(self) -> List[Region]:
        """Materialise real :class:`Region` copies (layout updates use
        these so the clipping logic stays in one place)."""
        out: List[Region] = []
        rows = zip(*(getattr(self, name).tolist() for name in _COLUMNS))
        for start, end, *counters in rows:
            region = Region(start, end)
            for name, value in zip(_COLUMNS[2:], counters):
                setattr(region, name, value)
            out.append(region)
        return out

    def view(self, index: int) -> RegionView:
        """A write-through object view of row ``index``."""
        return RegionView(self, index)

    def views(self) -> List[RegionView]:
        """Write-through views of every row, in address order."""
        return [RegionView(self, i) for i in range(self.n)]

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

    def check_invariants(
        self, ranges: Optional[Iterable[Tuple[int, int]]] = None
    ) -> None:
        """Structural invariants: minimum size, sortedness, and — when
        ``ranges`` is given — the tiling invariant (regions cover the
        target ranges byte for byte)."""
        sizes = self.end - self.start
        if self.n and int(sizes.min()) < MIN_REGION_SIZE:
            i = int(sizes.argmin())
            raise MonitorStateError(
                f"undersized region [{int(self.start[i]):#x}, "
                f"{int(self.end[i]):#x})"
            )
        if self.n > 1 and bool((self.start[1:] < self.end[:-1]).any()):
            i = int((self.start[1:] < self.end[:-1]).argmax()) + 1
            raise MonitorStateError(
                f"overlapping region [{int(self.start[i]):#x}, "
                f"{int(self.end[i]):#x})"
            )
        if ranges is not None:
            expected = sum(end - start for start, end in ranges)
            covered = self.total_bytes()
            if covered != expected:
                raise MonitorStateError(
                    f"regions cover {covered} bytes but the target ranges "
                    f"span {expected} — the region list no longer tiles "
                    f"the monitored address space"
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
        # Fresh children sample from their own start, as a fresh Region
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
