"""SimSanitizer: runtime cross-checks of the vectorized fast paths.

The struct-of-arrays engines (:mod:`repro.monitor.region`,
:mod:`repro.sim.pagetable`) keep redundant state — O(1) shadow counters,
a frame table mirroring page-table columns, a swap-device usage count —
that property tests only exercise under synthetic storms.  This package
promotes those invariants into reusable checkers that run *inside* real
experiments, at epoch boundaries:

* :mod:`repro.sanitize.checkers` — pure, read-only functions over a
  kernel / monitor / engine returning :class:`Violation` lists:
  frame conservation vs. the rmap, present/swapped exclusivity,
  O(1)-counter coherence vs. full recounts, region tiling byte for
  byte, huge-chunk residency, and quota charge sanity;
* :mod:`repro.sanitize.runtime` — :class:`SimSanitizer`, the harness
  that runs them from the kernel's ``end_epoch`` checkpoint, the
  monitor's ``aggregate_tick`` checkpoint and the fleet scheduler's
  tick, raising :class:`~repro.errors.SanitizerError` with the
  offending epoch and a state digest.

Determinism contract: checkers never mutate simulation state and never
consume RNG, so a run produces byte-identical results with the
sanitizer on or off.  Enable with ``--sanitize`` on ``daos run`` /
``sweep`` / ``chaos``, ``DAOS_SANITIZE=1`` in the environment (read at
the CLI/conftest boundary only), or ``run_experiment(sanitize=True)``.
"""

from .checkers import (
    Violation,
    check_counter_coherence,
    check_frame_conservation,
    check_huge_residency,
    check_present_swapped,
    check_quota_sanity,
    check_region_state,
    digest_kernel_state,
    digest_region_state,
)
from .runtime import SimSanitizer, default_enabled, set_default_enabled

__all__ = [
    "Violation",
    "SimSanitizer",
    "default_enabled",
    "set_default_enabled",
    "check_frame_conservation",
    "check_present_swapped",
    "check_counter_coherence",
    "check_huge_residency",
    "check_region_state",
    "check_quota_sanity",
    "digest_kernel_state",
    "digest_region_state",
]
