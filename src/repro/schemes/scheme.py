"""Scheme and access-pattern data types.

A scheme is "constructed with 3 conditions (min/max size of the target
region, min/max access frequency of the target region, and min/max age
of the target region) and a memory operation action" (§3.2).  Users fill
the seven values; the engine finds matching regions and applies the
action.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from ..errors import SchemeError
from ..monitor.attrs import MonitorAttrs
from ..monitor.region import RegionArray
from ..units import UNLIMITED, format_size, format_time
from .actions import Action
from .filters import AddressFilter
from .quotas import Quota
from .stats import SchemeStats
from .watermarks import Watermarks

__all__ = ["AccessPattern", "Scheme"]


@dataclass(frozen=True)
class AccessPattern:
    """The three min/max conditions of a scheme.

    * sizes in bytes,
    * frequencies as fractions of the maximum per-aggregation access
      count (``[0, 1]``),
    * ages in microseconds of virtual time.

    ``UNLIMITED`` expresses the paper's ``max`` keyword for sizes/ages;
    frequency maxima use 1.0.
    """

    min_size: int = 0
    max_size: int = UNLIMITED
    min_freq: float = 0.0
    max_freq: float = 1.0
    min_age_us: int = 0
    max_age_us: int = UNLIMITED
    #: Write-frequency bounds — the read/write distinction the paper
    #: leaves for future versions.  Only meaningful when the monitor
    #: runs with ``attrs.track_writes``; without it every region reads
    #: as 0 writes, so ``min_wfreq > 0`` never matches.
    min_wfreq: float = 0.0
    max_wfreq: float = 1.0

    def __post_init__(self):
        if not 0 <= self.min_size <= self.max_size:
            raise SchemeError(f"bad size range [{self.min_size}, {self.max_size}]")
        if not 0.0 <= self.min_freq <= self.max_freq <= 1.0:
            raise SchemeError(f"bad frequency range [{self.min_freq}, {self.max_freq}]")
        if not 0 <= self.min_age_us <= self.max_age_us:
            raise SchemeError(f"bad age range [{self.min_age_us}, {self.max_age_us}]")
        if not 0.0 <= self.min_wfreq <= self.max_wfreq <= 1.0:
            raise SchemeError(
                f"bad write-frequency range [{self.min_wfreq}, {self.max_wfreq}]"
            )

    def match_mask(self, ra: RegionArray, attrs: MonitorAttrs) -> np.ndarray:
        """One boolean per row of the region table ``ra`` (counters in
        ``attrs`` units): does the region fit the pattern?

        Frequency compares the region's access count against the pattern
        bounds scaled to counts; age is measured in aggregation intervals
        and compared against the pattern's bounds converted the same way,
        so a ``min_age`` shorter than one aggregation interval behaves
        like zero — exactly as in the kernel, where age has aggregation
        granularity.
        """
        sizes = ra.end - ra.start
        mask = (sizes >= self.min_size) & (sizes <= self.max_size)
        max_nr = attrs.max_nr_accesses
        # Tolerate float rounding at the bounds (e.g. 0.25 * 20 == 5.0).
        mask &= (ra.nr_accesses >= self.min_freq * max_nr - 1e-9) & (
            ra.nr_accesses <= self.max_freq * max_nr + 1e-9
        )
        if self.min_wfreq > 0.0 or self.max_wfreq < 1.0:
            # Match against the stronger of the instantaneous count and
            # the peak-hold indicator, so periodically rewritten regions
            # do not masquerade as clean during their idle windows.
            writes = np.maximum(ra.nr_writes, ra.write_ewma)
            mask &= (writes >= self.min_wfreq * max_nr - 1e-9) & (
                writes <= self.max_wfreq * max_nr + 1e-9
            )
        mask &= ra.age >= attrs.age_intervals(self.min_age_us)
        if self.max_age_us != UNLIMITED:
            mask &= ra.age <= attrs.age_intervals(self.max_age_us)
        return mask


@dataclass
class Scheme:
    """One memory management scheme: pattern + action (+ extensions).

    ``quota``, ``watermarks`` and ``filters`` are the upstream
    extensions (:mod:`repro.schemes.quotas`,
    :mod:`repro.schemes.watermarks`, :mod:`repro.schemes.filters`); all
    default to "unrestricted", matching the paper's experiments.
    """

    pattern: AccessPattern
    action: Action
    quota: Optional[Quota] = None
    watermarks: Optional[Watermarks] = None
    #: Address-range filters carving where the action may land.
    filters: List[AddressFilter] = field(default_factory=list)
    stats: SchemeStats = field(default_factory=SchemeStats)

    def with_pattern(self, **changes) -> "Scheme":
        """A copy of this scheme with pattern fields replaced — the
        auto-tuner uses this to sweep aggressiveness."""
        return Scheme(
            pattern=replace(self.pattern, **changes),
            action=self.action,
            quota=self.quota,
            watermarks=self.watermarks,
            filters=list(self.filters),
        )

    def describe(self, attrs: Optional[MonitorAttrs] = None) -> str:
        """One-line human-readable form (close to the paper's listing)."""
        p = self.pattern
        freq = f"{p.min_freq * 100:g}% {p.max_freq * 100:g}%"
        return (
            f"{format_size(p.min_size)} {format_size(p.max_size)} "
            f"{freq} "
            f"{format_time(p.min_age_us)} {format_time(p.max_age_us)} "
            f"{self.action.value}"
        )
