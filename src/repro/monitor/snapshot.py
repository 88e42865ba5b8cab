"""Aggregation snapshots handed to monitoring callbacks.

Just before resetting the per-region access counters at each aggregation
interval, the monitor invokes every registered callback (§3.1: "the
monitoring result is passed to the user by a user-registered callback
that is invoked for each aggregation interval"); a callback that keeps
the result freezes the region state into a :class:`Snapshot` with
:meth:`~repro.monitor.core.DataAccessMonitor.snapshot`.

A snapshot holds its region table as five column tuples of ints, like
the monitor's own struct-of-arrays table: decoding a recorded run from
the sweep cache then builds no object per region.  ``regions`` is a
read-only row view built on demand; it is never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

__all__ = ["RegionSnapshot", "Snapshot"]


@dataclass(frozen=True)
class RegionSnapshot:
    """Immutable copy of one region's state at aggregation time."""

    start: int
    end: int
    nr_accesses: int
    age: int
    #: Write-channel counter; 0 unless the monitor tracks writes.
    nr_writes: int = 0

    @property
    def size(self) -> int:
        return self.end - self.start

    def frequency(self, max_nr_accesses: int) -> float:
        """Access frequency as a fraction of the sampling checks."""
        if max_nr_accesses <= 0:
            return 0.0
        return min(1.0, self.nr_accesses / max_nr_accesses)


@dataclass(frozen=True)
class Snapshot:
    """All regions at one aggregation instant, as parallel columns."""

    time_us: int
    start: Tuple[int, ...]
    end: Tuple[int, ...]
    nr_accesses: Tuple[int, ...]
    age: Tuple[int, ...]
    #: Write-channel counters; zeros unless the monitor tracks writes.
    nr_writes: Tuple[int, ...]
    #: Number of sampling checks per aggregation — the ceiling for
    #: ``nr_accesses``, needed to turn counts into frequencies.
    max_nr_accesses: int

    @classmethod
    def from_columns(
        cls, time_us: int, start, end, nr_accesses, age, nr_writes, max_nr_accesses: int
    ) -> "Snapshot":
        """Freeze parallel column arrays (the monitor's struct-of-arrays
        region table) into a snapshot."""
        columns = (start, end, nr_accesses, age, nr_writes)
        return cls(time_us, *(tuple(c.tolist()) for c in columns), max_nr_accesses)

    @classmethod
    def from_rows(
        cls, time_us: int, rows: Iterable[Sequence[int]], max_nr_accesses: int
    ) -> "Snapshot":
        """A snapshot from ``[start, end, nr_accesses, age, nr_writes]``
        rows (the cache's encoded form)."""
        columns = tuple(zip(*rows)) or ((),) * 5
        return cls(time_us, *columns, max_nr_accesses)

    @property
    def regions(self) -> Tuple[RegionSnapshot, ...]:
        """The region table as rows, built on each access."""
        return tuple(
            map(RegionSnapshot, self.start, self.end, self.nr_accesses, self.age, self.nr_writes)
        )

    def hot_bytes(self, min_frequency: float) -> int:
        """Bytes in regions at or above ``min_frequency`` — a working-set
        style summary used by examples and the STAT tests."""
        max_nr = self.max_nr_accesses
        return sum(
            e - s
            for s, e, n in zip(self.start, self.end, self.nr_accesses)
            if (min(1.0, n / max_nr) if max_nr > 0 else 0.0) >= min_frequency
        )
