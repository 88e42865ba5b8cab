"""Sample planning: spending the time budget (§3.5 "Sampling").

"The runtime system first calculates the number of available samples by
dividing the total limit time by unit work time.  Then, it randomly
picks nr_samples combinations ... the system first randomly picks only
60% of nr_samples samples to explore the global parameter space and
picks the remaining 40% samples near the parameters which have shown the
highest scores."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import TuningError

__all__ = ["SamplePlan", "nr_samples_for_budget"]

#: Share of samples used for the global exploration phase.
GLOBAL_SHARE = 0.6
#: Width of the local refinement neighbourhood as a share of the range.
LOCAL_WINDOW = 0.15


def nr_samples_for_budget(time_limit_us: int, unit_work_us: int) -> int:
    """Samples affordable within the user's time limit."""
    if unit_work_us <= 0:
        raise TuningError("unit work time must be positive")
    n = time_limit_us // unit_work_us
    if n < 2:
        detail = (
            "the budget does not cover even one unit of work"
            if n == 0
            else "fitting a trend needs at least two samples"
        )
        raise TuningError(
            f"tuning budget {time_limit_us}us affords {n} sample(s) at "
            f"{unit_work_us}us each: {detail}"
        )
    return int(n)


@dataclass
class SamplePlan:
    """The two-phase sample schedule for one tuning session."""

    lo: float
    hi: float
    nr_samples: int
    rng: np.random.Generator

    def __post_init__(self):
        if self.hi <= self.lo:
            raise TuningError(f"empty parameter range [{self.lo}, {self.hi}]")
        if self.nr_samples < 2:
            raise TuningError("need at least 2 samples")

    @property
    def nr_global(self) -> int:
        return max(1, int(round(self.nr_samples * GLOBAL_SHARE)))

    @property
    def nr_local(self) -> int:
        return self.nr_samples - self.nr_global

    def global_points(self) -> List[float]:
        """Phase 1: uniform-random exploration over the whole range."""
        points = self.lo + self.rng.random(self.nr_global) * (self.hi - self.lo)
        return sorted(float(p) for p in points)

    def local_points(self, best: float) -> List[float]:
        """Phase 2: refinement around the best point seen so far."""
        if not self.lo <= best <= self.hi:
            raise TuningError(f"best point {best} outside [{self.lo}, {self.hi}]")
        if self.nr_local == 0:
            return []
        window = (self.hi - self.lo) * LOCAL_WINDOW
        points = best + (self.rng.random(self.nr_local) * 2.0 - 1.0) * window
        clipped = np.clip(points, self.lo, self.hi)
        return sorted(float(p) for p in clipped)
