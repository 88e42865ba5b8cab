"""Transparent huge pages: the khugepaged promotion policy.

With ``thp=always`` the Linux khugepaged daemon scans mapped memory and
collapses any 2 MiB-aligned range with a minimum number of present pages
into a huge page — aggressively, which is exactly the memory-bloat
behaviour Kwon et al. diagnosed and the paper's ``ethp`` scheme fixes.
The collapse makes the whole 2 MiB resident (internal fragmentation =
bloat); the reward is cheaper TLB behaviour for touches to the chunk.

This module holds the policy knob.  The scanner itself is
:meth:`repro.sim.kernel.SimKernel.khugepaged_scan`, because a collapse
must allocate frames for the pages it makes resident; DAMOS's
HUGEPAGE/NOHUGEPAGE actions bypass it and promote/demote directly
through the kernel (see :mod:`repro.schemes.actions`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from .pagetable import PAGES_PER_HUGE

__all__ = ["ThpPolicy"]


@dataclass
class ThpPolicy:
    """THP configuration knob, mirroring /sys/kernel/mm/transparent_hugepage.

    ``mode`` is one of:

    * ``"never"``  — no promotion at all (the paper's baseline),
    * ``"always"`` — khugepaged collapses eagerly (the ``thp`` config),
    * ``"madvise"``— only ranges explicitly advised (what DAMOS uses).
    """

    mode: str = "never"
    #: Minimum present 4 KiB pages in a chunk before khugepaged collapses
    #: it.  Linux's default max_ptes_none=511 effectively allows collapse
    #: with a single present page; we default to 64 (12.5% utilisation) as
    #: a middle ground that still produces pronounced bloat.
    min_present_pages: int = 64

    def __post_init__(self):
        if self.mode not in ("never", "always", "madvise"):
            raise ConfigError(f"unknown THP mode: {self.mode!r}")
        if not 1 <= self.min_present_pages <= PAGES_PER_HUGE:
            raise ConfigError(
                f"min_present_pages must be in [1, {PAGES_PER_HUGE}]"
            )
