"""Per-scheme statistics.

Every scheme keeps upstream-style counters: regions/bytes that matched
the pattern (*tried*) and regions/bytes the action actually operated on
(*applied*).  For the STAT action these counters are the whole point —
"can be used for estimating working set size and scheme tuning"
(Table 1); :mod:`repro.analysis.wss` estimates the working set from a
run's snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SchemeStats"]


@dataclass
class SchemeStats:
    """Lifetime counters of one scheme."""

    nr_tried: int = 0
    sz_tried: int = 0
    nr_applied: int = 0
    sz_applied: int = 0
    #: Aggregation intervals in which the scheme ran (watermark-gated
    #: schemes may skip intervals).
    nr_intervals: int = 0

    def record_tried(self, nbytes: int, regions: int = 1) -> None:
        """Count ``regions`` regions of ``nbytes`` in total that matched
        the scheme's pattern."""
        self.nr_tried += regions
        self.sz_tried += nbytes

    def record_applied(self, nbytes: int, regions: int = 1) -> None:
        """Count bytes the action actually operated on, over ``regions``
        regions."""
        self.nr_applied += regions
        self.sz_applied += nbytes
