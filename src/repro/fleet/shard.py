"""Sharded fleet execution over the sweep spawn pool.

Shards follow the daos-stack multi-tenant-server idiom the ROADMAP
names: tenants are grouped into *pools*, one engine (here: one
:class:`~repro.fleet.scheduler.FleetScheduler` process) per pool, one
control plane (the :class:`~repro.sweep.runner.SweepRunner` driving
them).  Each shard owns a contiguous tenant range ``[lo, hi)`` and its
tenant-count share of the physical pool; pressure coupling is
deliberately *per pool* — shards model separate machines, so a merged
sharded run equals one big run in tenant population but not in
cross-pool eviction traffic (documented in DESIGN.md §15).

Determinism: tenant traits derive from global tenant indices
(:func:`~repro.sweep.grid.derive_seed`), shard monitor streams derive
from ``(seed, lo, hi)``, and every shard summary is canonical — the
same sharded invocation always produces the same merged summary, in
any process, cached or fresh.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..errors import ConfigError
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..sweep.grid import SweepGrid, SweepPoint
from ..sweep.points import register_point_function
from ..sweep.runner import SweepRunner
from .result import FleetResult
from .scheduler import FleetConfig, FleetScheduler

__all__ = ["fleet_shard_point", "shard_grid", "run_fleet_sharded"]

#: Spawn-safe point-function name: workers resolve the dotted path in
#: their own interpreter, no registry import order required.
SHARD_POINT_FN = "repro.fleet.shard:fleet_shard_point"

#: Result fields that sum across pools when merging shard summaries.
#: Peaks are per-pool maxima reached at unrelated instants; summing
#: them is exact for the sharded deployment the shards model (separate
#: machines) and an upper bound for a hypothetical single machine.
_ADDITIVE = (
    "n_tenants",
    "n_regions",
    "pool_bytes",
    "total_footprint_bytes",
    "total_cold_bytes",
    "peak_resident_bytes",
    "final_resident_bytes",
    "peak_system_bytes",
    "final_system_bytes",
    "minor_faults",
    "major_faults",
    "pageout_pages",
    "pageout_batches",
    "reclaim_passes",
    "evicted_pages",
    "shed_pages",
    "degraded_ticks",
    "monitor_checks",
    "monitor_cpu_us",
    "stall_total_us",
)


def fleet_shard_point(params: Dict[str, Any]) -> Dict[str, Any]:
    """Run one shard; the sweep cache/pool executes this by name.

    An optional ``faults`` key carries a serialized
    :class:`~repro.faults.FaultPlan` (its :meth:`to_dict` form — JSON
    scalars, so the point fingerprint covers the plan); each shard
    builds its own injector, keyed off the plan seed alone, so a
    sharded chaos run replays byte-identically.
    """
    kwargs = dict(params)
    lo = kwargs.pop("lo")
    hi = kwargs.pop("hi")
    plan_dict = kwargs.pop("faults", None)
    injector = None
    if plan_dict is not None:
        injector = FaultInjector(FaultPlan.from_dict(plan_dict))
    cfg = FleetConfig.from_params(kwargs)
    result = FleetScheduler(
        cfg, tenant_range=(int(lo), int(hi)), faults=injector
    ).run()
    summary = result.canonical_dict()
    summary["digest"] = result.digest()
    return summary


register_point_function("fleet_shard", fleet_shard_point)


def shard_grid(
    cfg: FleetConfig, n_shards: int, *, faults: Optional[Any] = None
) -> SweepGrid:
    """Partition ``cfg``'s tenants into ``n_shards`` contiguous ranges.

    ``faults`` (a :class:`~repro.faults.FaultPlan`) rides along in each
    point's params in its plain-dict form, so the cache fingerprint
    distinguishes chaos shards from clean ones.
    """
    if not 1 <= n_shards <= cfg.n_tenants:
        raise ConfigError(
            f"need 1 <= n_shards <= n_tenants: {n_shards} of {cfg.n_tenants}"
        )
    base = cfg.as_params()
    if faults is not None:
        base["faults"] = faults.to_dict()
    bounds = [cfg.n_tenants * i // n_shards for i in range(n_shards + 1)]
    points = [
        SweepPoint.make(SHARD_POINT_FN, {**base, "lo": lo, "hi": hi})
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return SweepGrid(points)


def run_fleet_sharded(
    cfg: FleetConfig,
    *,
    n_shards: int,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    sanitize: bool = False,
    faults: Optional[Any] = None,
    journal_dir: Optional[str] = None,
    resume: bool = False,
) -> Dict[str, Any]:
    """Run every shard (spawn pool when ``jobs > 1``) and merge.

    Returns the merged fleet summary: additive fields summed across
    pools, plus the ordered per-shard digests — the determinism handle
    a caller can compare across invocations.  ``journal_dir`` write-ahead
    journals every completed shard; with ``resume=True`` completed
    shards are replayed from the journal and only in-flight ones
    re-execute.
    """
    runner = SweepRunner(
        shard_grid(cfg, n_shards, faults=faults),
        jobs=jobs,
        cache_dir=cache_dir,
        sanitize=sanitize,
        journal_dir=journal_dir,
        resume=resume,
    )
    report = runner.run()
    if report.failures():
        first = report.failures()[0]
        raise ConfigError(f"fleet shard failed: {first.error}")
    shards: List[Dict[str, Any]] = report.values()
    merged: Dict[str, Any] = {key: 0 for key in _ADDITIVE}
    for shard in shards:
        for key in _ADDITIVE:
            merged[key] += shard[key]
    merged["n_shards"] = len(shards)
    merged["duration_us"] = cfg.duration_us
    merged["seed"] = cfg.seed
    merged["swap"] = cfg.swap
    merged["machine"] = cfg.machine
    merged["shard_digests"] = [shard["digest"] for shard in shards]
    return merged
