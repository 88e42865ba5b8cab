"""Struct-of-arrays region storage: the monitor's vectorized hot path.

The paper's overhead bound (§3.1) promises at most ``max_nr_regions``
checks per sampling interval — but the *constant* in front of that bound
was a pure-Python loop over one ``Region`` object per region, paid by
every epoch of every scheme of every sweep point.  :class:`RegionArray`
keeps the region table as parallel NumPy columns instead::

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
The batched draws consume the stream *differently* from the pre-PR
per-object loop, so traces differ from pre-PR ones — but are stable
from this version on.

:class:`RegionView` is the thin object façade kept for callbacks,
invariant checks and the schemes engine's per-region action loop: it
reads and writes the backing columns in place, so ``view.age = 0``
is visible to the next vectorized pass.  Views are positional — they
are valid until the next structural pass (merge/split/layout update)
reorders the table; consumers get fresh views from the monitor each
aggregation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import MonitorStateError

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (typing only)
    from ..monitor.region import Region

__all__ = ["RegionArray", "RegionView"]

#: Regions never shrink below one page: the sampling granularity.
_MIN_REGION_SIZE = 4096
_PAGE_SHIFT = 12

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


class RegionView:
    """One region of a :class:`RegionArray`, viewed as an object.

    Attribute reads/writes go straight to the backing columns; the view
    quacks exactly like :class:`~repro.monitor.region.Region` for the
    schemes engine, snapshots and tests.  Positional: stale after the
    next structural pass of the owning array.
    """

    __slots__ = ("_ra", "_i")

    def __init__(self, ra: "RegionArray", index: int):
        self._ra = ra
        self._i = index

    # -- column accessors (int() so consumers see plain Python ints) ----
    @property
    def start(self) -> int:
        return int(self._ra.start[self._i])

    @start.setter
    def start(self, value: int) -> None:
        self._ra.start[self._i] = value

    @property
    def end(self) -> int:
        return int(self._ra.end[self._i])

    @end.setter
    def end(self, value: int) -> None:
        self._ra.end[self._i] = value

    @property
    def nr_accesses(self) -> int:
        return int(self._ra.nr_accesses[self._i])

    @nr_accesses.setter
    def nr_accesses(self, value: int) -> None:
        self._ra.nr_accesses[self._i] = value

    @property
    def last_nr_accesses(self) -> int:
        return int(self._ra.last_nr_accesses[self._i])

    @last_nr_accesses.setter
    def last_nr_accesses(self, value: int) -> None:
        self._ra.last_nr_accesses[self._i] = value

    @property
    def nr_writes(self) -> int:
        return int(self._ra.nr_writes[self._i])

    @nr_writes.setter
    def nr_writes(self, value: int) -> None:
        self._ra.nr_writes[self._i] = value

    @property
    def write_ewma(self) -> float:
        return float(self._ra.write_ewma[self._i])

    @write_ewma.setter
    def write_ewma(self, value: float) -> None:
        self._ra.write_ewma[self._i] = value

    @property
    def age(self) -> int:
        return int(self._ra.age[self._i])

    @age.setter
    def age(self, value: int) -> None:
        self._ra.age[self._i] = value

    @property
    def sampling_addr(self) -> int:
        return int(self._ra.sampling_addr[self._i])

    @sampling_addr.setter
    def sampling_addr(self, value: int) -> None:
        self._ra.sampling_addr[self._i] = value

    @property
    def size(self) -> int:
        return int(self._ra.end[self._i] - self._ra.start[self._i])

    def overlaps(self, start: int, end: int) -> bool:
        """Does this region intersect ``[start, end)``?"""
        return self.start < end and start < self.end

    def __repr__(self) -> str:
        return (
            f"Region({self.start:#x}-{self.end:#x}, "
            f"nr={self.nr_accesses}, age={self.age})"
        )


class RegionArray:
    """The monitor's region table as parallel NumPy columns."""

    __slots__ = tuple(_INT_COLUMNS) + ("write_ewma", "generation")

    def __init__(self, n: int = 0):
        for name in _INT_COLUMNS:
            setattr(self, name, np.zeros(n, dtype=np.int64))
        self.write_ewma = np.zeros(n, dtype=np.float64)
        #: Bumped on every structural change; view caches key off it.
        self.generation = 0

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_regions(cls, regions: Sequence) -> "RegionArray":
        """Build a column table from Region-like objects (copies)."""
        ra = cls(len(regions))
        for i, region in enumerate(regions):
            ra.start[i] = region.start
            ra.end[i] = region.end
            ra.nr_accesses[i] = region.nr_accesses
            ra.last_nr_accesses[i] = region.last_nr_accesses
            ra.nr_writes[i] = region.nr_writes
            ra.write_ewma[i] = region.write_ewma
            ra.age[i] = region.age
            ra.sampling_addr[i] = region.sampling_addr
        return ra

    def to_regions(self) -> List["Region"]:
        """Materialise real :class:`Region` copies (layout updates use
        these so the clipping logic stays in one place)."""
        from ..monitor.region import Region

        out: List[Region] = []
        for i in range(self.n):
            region = Region(int(self.start[i]), int(self.end[i]))
            region.nr_accesses = int(self.nr_accesses[i])
            region.last_nr_accesses = int(self.last_nr_accesses[i])
            region.nr_writes = int(self.nr_writes[i])
            region.write_ewma = float(self.write_ewma[i])
            region.age = int(self.age[i])
            region.sampling_addr = int(self.sampling_addr[i])
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

    def __len__(self) -> int:
        return self.n

    @property
    def sizes(self) -> np.ndarray:
        """Per-region sizes in bytes (a fresh array)."""
        return self.end - self.start

    def total_bytes(self) -> int:
        """Bytes covered by all regions."""
        return int((self.end - self.start).sum())

    def max_nr_accesses_seen(self) -> int:
        """Largest published access count (0 when empty)."""
        return int(self.nr_accesses.max()) if self.n else 0

    def check_invariants(
        self, ranges: Optional[Iterable[Tuple[int, int]]] = None
    ) -> None:
        """Structural invariants: minimum size, sortedness, and — when
        ``ranges`` is given — the tiling invariant (regions cover the
        target ranges byte for byte)."""
        sizes = self.end - self.start
        if self.n and int(sizes.min()) < _MIN_REGION_SIZE:
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
        region list mid-interval) — the pre-array code silently zip-
        truncated here and dropped counts without error.
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

        Merged counters are size-weighted averages of the parents', as
        in :func:`~repro.monitor.region.merge_two`; similarity is judged
        between the *published* neighbour counts (the object-loop
        compared against the running merged average — an equivalent
        bound, evaluated in one vector pass here).
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
        sized, page-aligned subregions (children inherit all counters).
        Returns the number of regions added.

        Both rounds draw one RNG batch over the whole table (draws for
        unsplittable rows are made and discarded), keeping consumption a
        function of (region count, pieces) only — deterministic under a
        fixed seed regardless of which regions happen to be splittable.
        """
        n = self.n
        if n == 0 or pieces < 2:
            return 0
        sizes = self.end - self.start
        n_pages = sizes >> _PAGE_SHIFT
        split1 = n_pages >= 2
        offs1 = rng.integers(1, np.where(split1, n_pages, 2))
        cut1 = np.where(split1, self.start + (offs1 << _PAGE_SHIFT), self.end)
        if pieces >= 3:
            right_pages = np.where(split1, self.end - cut1, 0) >> _PAGE_SHIFT
            split2 = split1 & (right_pages >= 2)
            offs2 = rng.integers(1, np.where(split2, right_pages, 2))
            cut2 = np.where(split2, cut1 + (offs2 << _PAGE_SHIFT), self.end)
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
        # Fresh children sample from their own start (as fresh Region
        # objects did); unsplit rows keep their sampling address.
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
        n_pages = (self.end - self.start) >> _PAGE_SHIFT
        return self.start + ((uniforms * n_pages).astype(np.int64) << _PAGE_SHIFT)

    def pick_sampling_addrs(self, rng: np.random.Generator) -> np.ndarray:
        """One random page-aligned sample address per region (the same
        single-batch draw the object path used)."""
        if self.n == 0:
            return np.empty(0, dtype=np.int64)
        return self.sampling_addrs(rng.random(self.n))
