"""Performance subsystem: the deterministic profiling harness.

:mod:`repro.perf.profiler` — the run's own cost ledger filed by layer,
surfaced as ``daos run --profile FILE``.
"""

from .profiler import profile_run

__all__ = ["profile_run"]
