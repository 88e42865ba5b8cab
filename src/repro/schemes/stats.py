"""Per-scheme statistics and STAT-based working-set estimation.

Every scheme keeps upstream-style counters: regions/bytes that matched
the pattern (*tried*) and regions/bytes the action actually operated on
(*applied*).  For the STAT action these counters are the whole point —
"can be used for estimating working set size and scheme tuning"
(Table 1) — so this module also provides the working-set-size estimator
built on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

__all__ = ["SchemeStats", "WssEstimator"]


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

    def avg_tried_bytes_per_interval(self) -> float:
        """Mean matched bytes per engine interval — the WSS estimate when
        the scheme is a STAT over the hot-pattern."""
        if self.nr_intervals == 0:
            return 0.0
        return self.sz_tried / self.nr_intervals


@dataclass
class WssEstimator:
    """Working-set-size time series collected from a STAT scheme.

    Record one (time, matched bytes) point per engine interval, then read
    percentiles — the upstream tooling reports exactly this distribution.
    """

    points: List[Tuple[int, int]] = field(default_factory=list)

    def record(self, time_us: int, matched_bytes: int) -> None:
        self.points.append((time_us, matched_bytes))

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0–100) of matched bytes over time."""
        if not self.points:
            return 0.0
        values = sorted(v for _, v in self.points)
        if len(values) == 1:
            return float(values[0])
        rank = (q / 100.0) * (len(values) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(values) - 1)
        frac = rank - lo
        return values[lo] * (1.0 - frac) + values[hi] * frac

    def average(self) -> float:
        if not self.points:
            return 0.0
        return sum(v for _, v in self.points) / len(self.points)
