"""Performance subsystem: the deterministic profiling harness.

:mod:`repro.perf.profiler` — per-layer operation/estimated-cost counters
riding the trace bus, surfaced as ``daos run --profile FILE``.
"""

from .profiler import PerfProfiler, profile_run

__all__ = ["PerfProfiler", "profile_run"]
