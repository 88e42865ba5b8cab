"""Fleet run results: aggregates, per-tenant distributions, digest.

A fleet run's identity is :func:`~repro.sweep.serialize.fingerprint` of
its canonical dict, the one volatile field (``wall_clock_us``, host
time) stripped — the same value digest :class:`~repro.runner.results.RunResult`
and sweep reports use.  The CI smoke job runs the same seeded fleet
twice and compares the files byte for byte; the digest makes the same
comparison one string.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict

from ..sweep.serialize import canonical_json, fingerprint

__all__ = ["FleetResult"]


@dataclass(frozen=True)
class FleetResult:
    """Everything one fleet run measured."""

    # -- identity ------------------------------------------------------
    n_tenants: int
    tenant_lo: int
    tenant_hi: int
    duration_us: int
    seed: int
    machine: str
    swap: str
    min_age_us: int
    tick_us: int
    pool_bytes: int
    n_regions: int
    total_footprint_bytes: int
    total_cold_bytes: int
    # -- memory --------------------------------------------------------
    peak_resident_bytes: int
    final_resident_bytes: int
    peak_system_bytes: int
    final_system_bytes: int
    # -- activity counters --------------------------------------------
    minor_faults: int
    major_faults: int
    pageout_pages: int
    pageout_batches: int
    reclaim_passes: int
    evicted_pages: int
    shed_pages: int
    degraded_ticks: int
    # -- monitor cost --------------------------------------------------
    monitor_checks: int
    monitor_cpu_us: float
    # -- per-tenant distributions -------------------------------------
    rss_p50_bytes: float
    rss_p99_bytes: float
    stall_p50_us: float
    stall_p99_us: float
    stall_total_us: float
    # -- volatile (host time; excluded from the digest) ----------------
    wall_clock_us: float

    def canonical_dict(self) -> Dict[str, Any]:
        """Every field but the volatile wall clock."""
        out = asdict(self)
        del out["wall_clock_us"]
        return out

    def canonical_json(self) -> str:
        """Canonical encoding of :meth:`canonical_dict`: sorted keys,
        shortest float repr."""
        return canonical_json(self.canonical_dict())

    def digest(self) -> str:
        """Identity of the run's deterministic content (16 hex digits)."""
        return fingerprint(self)[:16]
