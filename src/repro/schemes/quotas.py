"""Scheme charge quotas with access-pattern-based prioritisation.

An upstream extension of the paper's engine: a scheme can be capped to
apply at most ``size_bytes`` per ``reset_interval``.  When the matching
regions exceed the budget, the engine sorts them by a priority derived
from access frequency and age — cold actions (PAGEOUT, COLD) prefer the
coldest-and-oldest regions first, hot actions the hottest — so the quota
spends its budget where the scheme's intent says it matters most.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..errors import SchemeError
from ..units import SEC, UNLIMITED

__all__ = ["Quota"]


@dataclass
class Quota:
    """Apply-size budget for one scheme.

    Besides the budget itself, the quota carries the prioritisation
    weights used when the budget is under pressure (upstream:
    ``damos_quota``'s ``weight_nr_accesses`` / ``weight_age``): how much
    the frequency and recency components count when ranking matching
    regions for the limited budget.
    """

    #: Maximum bytes the scheme may operate on per window (UNLIMITED = off).
    size_bytes: int = UNLIMITED
    #: Budget window length in microseconds.
    reset_interval_us: int = 1 * SEC
    #: Priority weight of the access-frequency component.
    weight_nr_accesses: float = 0.5
    #: Priority weight of the age component.
    weight_age: float = 0.5

    def __post_init__(self):
        if self.size_bytes < 0:
            raise SchemeError(f"quota size cannot be negative: {self.size_bytes}")
        if self.reset_interval_us <= 0:
            raise SchemeError("quota reset interval must be positive")
        if self.weight_nr_accesses < 0 or self.weight_age < 0:
            raise SchemeError("quota priority weights cannot be negative")
        if self.weight_nr_accesses + self.weight_age <= 0:
            raise SchemeError("quota priority weights cannot both be zero")
        self._charged = 0
        self._window_start = None

    def fresh_clone(self) -> "Quota":
        """A copy with every configuration field but pristine window
        state.  Built from ``dataclasses.fields`` so a field added to
        the config can never be silently dropped again (the
        ``replace_quota`` bug: it hand-copied two fields)."""
        return Quota(**{f.name: getattr(self, f.name) for f in fields(self)})

    # ------------------------------------------------------------------
    def remaining(self, now: int) -> int:
        """Budget left in the current window (rolls the window forward)."""
        if self.size_bytes == UNLIMITED:
            return UNLIMITED
        if self._window_start is None or now - self._window_start >= self.reset_interval_us:
            self._window_start = now
            self._charged = 0
        return max(0, self.size_bytes - self._charged)

    def charge(self, nbytes: int, now: int) -> None:
        """Consume ``nbytes`` of the current window's budget."""
        if self.size_bytes == UNLIMITED:
            return
        self.remaining(now)  # roll the window
        self._charged += nbytes

    @property
    def limited(self) -> bool:
        return self.size_bytes != UNLIMITED


def priority(
    nr_accesses,
    age,
    max_nr_accesses: int,
    *,
    prefer_cold: bool,
    weight_nr_accesses: float = 0.5,
    weight_age: float = 0.5,
):
    """Region priority under quota pressure, higher = applied first.

    Follows the upstream formula's spirit: a blend of (inverse) access
    frequency and age, each normalised to [0, 1] and weighted by the
    quota's prioritisation weights.  ``nr_accesses`` and ``age`` may be
    scalars or NumPy arrays (one priority per region, broadcast): the
    engine ranks a whole pass with one call, and a scalar call returns
    the same float the array path computes for that region.
    """
    if max_nr_accesses <= 0:
        raise SchemeError("max_nr_accesses must be positive")
    total = weight_nr_accesses + weight_age
    if total <= 0:
        raise SchemeError("priority weights cannot both be zero")
    freq = np.minimum(1.0, np.divide(nr_accesses, max_nr_accesses))
    # Ages beyond ~100 aggregations saturate.
    age_score = np.minimum(1.0, np.divide(age, 100.0))
    freq_score = (1.0 - freq) if prefer_cold else freq
    return (freq_score * weight_nr_accesses + age_score * weight_age) / total
