"""The fleet scheduler: ten thousand tenants, one monitor daemon.

:class:`FleetScheduler` runs a whole fleet of serverless tenants in a
single process against one shared :class:`~repro.fleet.pool.FleetFramePool`,
one swap device and one sim clock.  Tenants are modelled at *region*
granularity: each contributes a handful of converged monitor regions
(cold image in fixed-size chunks, one hot, one warm — see
:mod:`repro.monitor.batch`), and every simulation tick is a set of
vectorized passes over the fleet-wide region table.  Each pass works on
the rows it can change: per-kind row sets (cold, hot, warm) fixed at
build time, and the nonzero rows of what it sums.

1. **access/fault pass** — boot ramps, hot cores and warm duty cycles
   demand pages; swapped pages fault back (major) and new pages fault
   in (minor), charged from the shared pool;
2. **batched monitor pass** — one binomial over the rows with p > 0
   samples ``nr_accesses``; ages grow across idle aggregations;
3. **scheme pass** — the paper's ``min_age`` PAGEOUT evicts aged-idle
   regions to swap, fleet-wide in one pass;
4. **pressure pass** — when the pool crosses the shared
   :class:`~repro.sim.kernel.Watermarks` high mark, the globally
   coldest untouched regions are evicted until the low mark, *whoever
   owns them* — the coupling that makes one tenant's burst another
   tenant's major faults.

The fleet's swap device comes from the single-run path's swap factory
on the same catalog instance, so per-page swap costs agree between a
``run_experiment`` call and a 10,000-tenant fleet; only its capacity
follows the fleet's footprint.  The naive reference
(:func:`run_fleet_naive`) runs the identical tenant specs through
``run_experiment`` one process-simulation at a time — the status quo
this layer replaces, and the baseline `benchmarks/bench_fleet_scale.py`
measures against.

Determinism: tenant traits come from per-tenant seeds, the only runtime
randomness is the monitor's sampling stream, and the RNG consumed per
tick depends on which rows have p > 0, a function of the seeded state —
a seeded fleet run replays byte-identically (the CI smoke job and the
sanitizer both hold it to that).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..clock import EventQueue
from ..errors import ConfigError
from ..monitor.attrs import MonitorAttrs
from ..monitor.batch import BatchMonitorPass, BatchRegionTable
from ..recovery.codec import PausedSimulation
from ..runner.configs import get_config, prcl_config
from ..runner.experiment import run_experiment
from ..sanitize.runtime import resolve_sanitizer
from ..sim.costs import CostModel
from ..sim.kernel import Watermarks, check_tier_policy
from ..sim.machine import get_instance, scaled_instance
from ..sim.pagetable import PAGE_SIZE
from ..sim.swap import SWAP_KINDS, build_swap
from ..sweep.grid import derive_seed
from ..trace.bus import TraceBus
from ..trace.events import PageoutBatch, ReclaimPass
from ..units import GIB, MIB, MSEC, SEC
from .pool import FleetFramePool
from .result import FleetResult
from .tenant import COLD_INIT_P, TenantSpec, build_tenant_specs

__all__ = ["FleetConfig", "FleetScheduler", "run_fleet", "run_fleet_naive"]

_KIND_COLD, _KIND_HOT, _KIND_WARM = 0, 1, 2


@dataclass(frozen=True)
class FleetConfig:
    """Parameters of one fleet run; every field is a JSON scalar so a
    config round-trips through sweep points (:meth:`as_params`)."""

    n_tenants: int = 1000
    duration_s: float = 300.0
    footprint_mib: int = 64
    cold_share: float = 0.9
    #: PAGEOUT scheme age threshold; 0 disables the scheme (baseline).
    min_age_s: float = 30.0
    #: Pool capacity as a fraction of the fleet's total footprint — the
    #: overcommit knob (the paper's fleet premise is RSS ≫ WSS).
    pool_ratio: float = 0.6
    #: Explicit pool capacity in GiB; overrides ``pool_ratio`` when > 0.
    pool_gib: float = 0.0
    swap: str = "zram"
    machine: str = "i3.metal"
    #: Slow memory tier catalog name; "" runs the fleet on flat DRAM.
    #: Only the naive path (one kernel per tenant) honours it — the
    #: batched scheduler tracks region *counts*, not frame placement.
    tier: str = ""
    tier_scale: float = 1.0
    tier_policy: str = "managed"
    seed: int = 0
    arrival_window_s: float = 60.0
    #: One fleet tick = one monitor aggregation interval.
    tick_ms: int = 1000
    sampling_ms: int = 5
    #: Cold images are split into monitor regions of this size.
    cold_region_mib: int = 16

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type == "float" and not 0 <= value < math.inf:
                raise ConfigError(f"{field.name} must be finite and non-negative: {value}")
        if self.n_tenants < 1:
            raise ConfigError(f"fleet needs at least one tenant: {self.n_tenants}")
        if self.duration_s <= 0:
            raise ConfigError(f"duration must be positive: {self.duration_s}")
        if self.footprint_mib < 3:
            raise ConfigError(f"tenant footprint below 3 MiB: {self.footprint_mib}")
        if not 0.0 < self.cold_share < 1.0:
            raise ConfigError(f"cold_share must be in (0, 1): {self.cold_share}")
        if self.min_age_s < 0:
            raise ConfigError(f"min_age cannot be negative: {self.min_age_s}")
        if self.pool_ratio <= 0 and self.pool_gib <= 0:
            raise ConfigError("need pool_ratio > 0 or an explicit pool_gib")
        if self.swap not in SWAP_KINDS:
            raise ConfigError(f"unknown swap kind {self.swap!r} ({' | '.join(SWAP_KINDS)})")
        if self.tier_scale <= 0:
            raise ConfigError(f"tier_scale must be positive: {self.tier_scale}")
        check_tier_policy(self.tier_policy)
        if self.tick_ms <= 0 or self.sampling_ms <= 0 or self.tick_ms % self.sampling_ms:
            raise ConfigError(
                f"tick ({self.tick_ms}ms) must be a positive multiple of the "
                f"sampling interval ({self.sampling_ms}ms)"
            )
        if self.cold_region_mib < 1:
            raise ConfigError(f"cold region size below 1 MiB: {self.cold_region_mib}")
        if self.arrival_window_s < 0:
            raise ConfigError(f"arrival window cannot be negative: {self.arrival_window_s}")

    # -- derived -------------------------------------------------------
    @property
    def duration_us(self) -> int:
        return int(self.duration_s * SEC)

    @property
    def tick_us(self) -> int:
        return self.tick_ms * MSEC

    @property
    def min_age_us(self) -> int:
        return int(self.min_age_s * SEC)

    # -- sweep-point round trip ---------------------------------------
    def as_params(self) -> Dict[str, Any]:
        """The config as a flat dict of JSON scalars."""
        return asdict(self)

    @classmethod
    def from_params(cls, params: Dict[str, Any]) -> "FleetConfig":
        return cls(**params)


def _take_in_order(want: np.ndarray, budget: int) -> np.ndarray:
    """Grant ``want`` in array order until ``budget`` runs out: each
    entry gets what the entries before it left, clipped to its want."""
    cum = np.cumsum(want)
    return np.clip(budget - (cum - want), 0, want)


class FleetScheduler(PausedSimulation):
    """One fleet (or one shard of one) in a single process: built,
    started with :meth:`start_loop`, stepped tick by tick with
    :meth:`run_until`, frozen with :meth:`finish`."""

    checkpoint_kind = "fleet"

    def __init__(
        self,
        cfg: FleetConfig,
        *,
        tenant_range: Optional[Tuple[int, int]] = None,
        trace: Optional[TraceBus] = None,
        sanitize: Any = None,
        faults: Any = None,
    ) -> None:
        self.cfg = cfg
        self.lo, self.hi = tenant_range if tenant_range is not None else (0, cfg.n_tenants)
        self.trace = trace
        #: Optional :class:`~repro.faults.FaultInjector` evaluated at the
        #: fleet's demand and pressure hooks every tick.
        self.faults = faults

        self.sanitizer = resolve_sanitizer(sanitize)

        if cfg.tier:
            raise ConfigError(
                "the batched fleet scheduler tracks region counts, not frame "
                "placement, so it cannot model a slow tier; run tiered fleets "
                "with --naive (one kernel per tenant)"
            )

        self.costs = CostModel()
        self.watermarks = Watermarks()

        self.tenants: List[TenantSpec] = build_tenant_specs(
            base_seed=cfg.seed,
            n_tenants=cfg.n_tenants,
            footprint_mib=cfg.footprint_mib,
            cold_share=cfg.cold_share,
            arrival_window_s=cfg.arrival_window_s,
            tenant_range=(self.lo, self.hi),
        )
        n = len(self.tenants)
        self._build_regions()

        total_footprint = int(sum(t.footprint for t in self.tenants))
        self.total_footprint = total_footprint
        self.total_cold = int(sum(t.cold for t in self.tenants))
        if cfg.pool_gib > 0:
            # A shard gets its tenant-count share of the explicit pool.
            pool_bytes = int(cfg.pool_gib * GIB * n / cfg.n_tenants)
        else:
            pool_bytes = int(total_footprint * cfg.pool_ratio)
        self.pool = FleetFramePool(pool_bytes)
        # Capacity scales with the fleet (2x the total footprint) so slot
        # exhaustion is a modelled event, not an artifact of the
        # single-run default; per-page costs are the single run's.
        self.swap_device = build_swap(
            cfg.swap, get_instance(cfg.machine), capacity=max(2 * total_footprint, 1 * GIB)
        )
        self._swap_read_us = self.swap_device.page_read_us()

        attrs = MonitorAttrs(
            sampling_interval_us=cfg.sampling_ms * MSEC,
            aggregation_interval_us=cfg.tick_us,
            regions_update_interval_us=max(1 * SEC, cfg.tick_us),
        )
        self.monitor = BatchMonitorPass(
            self.table,
            attrs,
            costs=self.costs,
            seed=derive_seed(cfg.seed, {"stream": "fleet-monitor", "lo": self.lo, "hi": self.hi}),
        )

        # Per-tenant accumulators (local indices 0..n-1).
        self.stall_us = np.zeros(n, dtype=np.float64)
        self.minor_faults = np.zeros(n, dtype=np.int64)
        self.major_faults = np.zeros(n, dtype=np.int64)
        self.pageout_pages = np.zeros(n, dtype=np.int64)
        self.pageout_batches = np.zeros(n, dtype=np.int64)
        self.evicted_pages = np.zeros(n, dtype=np.int64)
        self.shed_pages = np.zeros(n, dtype=np.int64)
        self.reclaim_passes = 0
        self.degraded_ticks = 0
        self.peak_resident_pages = 0
        self.peak_system_bytes = 0

        # Run-loop state, populated by start_loop(); the recovery codec
        # pickles the queue as a reference and binds a fresh one.
        self.queue: Optional[EventQueue] = None
        self.wall_start = 0.0

    # ------------------------------------------------------------------
    # Region table construction
    # ------------------------------------------------------------------
    def _build_regions(self) -> None:
        chunk_pages = self.cfg.cold_region_mib * MIB // PAGE_SIZE
        tenant_col: List[int] = []
        kind_col: List[int] = []
        size_col: List[int] = []
        for local, t in enumerate(self.tenants):
            cold_pages = t.cold // PAGE_SIZE
            while cold_pages > 0:
                take = min(chunk_pages, cold_pages)
                # Never leave a sub-MiB tail region behind.
                if 0 < cold_pages - take < MIB // PAGE_SIZE:
                    take = cold_pages
                tenant_col.append(local)
                kind_col.append(_KIND_COLD)
                size_col.append(take)
                cold_pages -= take
            tenant_col.append(local)
            kind_col.append(_KIND_HOT)
            size_col.append(t.hot // PAGE_SIZE)
            tenant_col.append(local)
            kind_col.append(_KIND_WARM)
            size_col.append(t.warm // PAGE_SIZE)

        self.table = BatchRegionTable(np.array(tenant_col), np.array(size_col))
        self.kind = np.array(kind_col, dtype=np.int8)
        self.resident = np.zeros(self.table.n_regions, dtype=np.int64)
        self.swapped = np.zeros(self.table.n_regions, dtype=np.int64)
        self.last_touch = np.full(self.table.n_regions, -1, dtype=np.int64)
        self._index_kinds()

    def _index_kinds(self) -> None:
        """Row sets per kind, from ``kind``, and the tenant parameters
        each kind reads.  A tenant has one hot and one warm row, so the
        i-th of either is tenant i's; only cold rows gather per row."""
        self.cold_rows = np.flatnonzero(self.kind == _KIND_COLD)
        self.hot_rows = np.flatnonzero(self.kind == _KIND_HOT)
        self.warm_rows = np.flatnonzero(self.kind == _KIND_WARM)

        def column(name: str, dtype: Any) -> np.ndarray:
            return np.array([getattr(t, name) for t in self.tenants], dtype=dtype)

        cold_tenant = self.table.tenant[self.cold_rows]
        size = self.table.size_pages
        self._boot = column("boot_us", np.int64)
        self._cold_boot = self._boot[cold_tenant]
        self._cold_init = column("init_us", np.int64)[cold_tenant]
        self._cold_size = size[self.cold_rows]
        self._hot_size = size[self.hot_rows]
        self._hot_p = column("hot_p", np.float64)
        self._warm_size = size[self.warm_rows]
        self._warm_p = column("warm_p", np.float64)
        self._warm_phase = column("warm_phase_us", np.int64)
        self._warm_period = column("warm_period_us", np.int64)
        self._warm_on = (column("warm_duty", np.float64) * self._warm_period).astype(np.int64)

    # ------------------------------------------------------------------
    # One tick
    # ------------------------------------------------------------------
    def _tick(self, now: int) -> None:
        cfg = self.cfg
        tab = self.table
        cold, hot, warm = self.cold_rows, self.hot_rows, self.warm_rows

        # Per tenant, so per hot row and per warm row.
        elapsed = now - self._boot
        booted = elapsed >= 0
        alive = booted[tab.tenant]
        warm_on = booted & ((elapsed + self._warm_phase) % self._warm_period < self._warm_on)
        if self.faults is not None and self.faults.fleet_storm_active(now):
            # Tenant storm: a thundering herd wakes every live warm
            # region at once; the shed path absorbs what the pool
            # cannot back, so the fleet degrades instead of aborting.
            warm_on = booted
        cold_elapsed = now - self._cold_boot
        cold_alive = cold_elapsed >= 0
        # Cold rows still in their boot ramp (init_us >= 1): only they
        # need the division; every other live cold row targets its
        # whole size, frac == 1.0 exactly.
        ramp = np.flatnonzero(cold_alive & (cold_elapsed < self._cold_init))
        ramp_rows = cold[ramp]

        # -- demand ----------------------------------------------------
        cold_target = np.where(cold_alive, self._cold_size, 0)
        cold_target[ramp] = (
            self._cold_size[ramp] * (cold_elapsed[ramp] / self._cold_init[ramp])
        ).astype(np.int64)
        demand = np.zeros_like(tab.size_pages)
        # Cold pages are touched exactly once: whatever was evicted
        # stays in swap, so demand excludes swapped pages.
        demand[cold] = np.clip(cold_target - self.resident[cold] - self.swapped[cold], 0, None)
        demand[hot] = np.where(booted, self._hot_size - self.resident[hot], 0)
        demand[warm] = np.where(warm_on, self._warm_size - self.resident[warm], 0)
        touched = np.zeros(tab.n_regions, dtype=bool)
        touched[ramp_rows] = True
        touched[hot] = booted
        touched[warm] = warm_on

        # -- capacity: alloc-triggered reclaim, then shed --------------
        need = int(demand.sum())
        free = self.pool.free_frames()
        if need > free:
            self._evict(need - free, touched, now)
            free = self.pool.free_frames()
        if need > free:
            # Grant in region order up to what fits; shed the rest.
            grant = _take_in_order(demand, free)
            shed = demand - grant
            rows = np.flatnonzero(shed > 0)
            self.shed_pages += self._per_tenant(rows, shed[rows]).astype(np.int64)
            self.degraded_ticks += 1
        else:
            grant = demand

        # -- apply faults ----------------------------------------------
        rows = np.flatnonzero(grant > 0)
        granted = grant[rows]
        from_swap = np.where(
            self.kind[rows] == _KIND_COLD, 0, np.minimum(granted, self.swapped[rows])
        )
        self.resident[rows] += granted
        self.swapped[rows] -= from_swap
        self.pool.charge(int(granted.sum()))
        total_in = int(from_swap.sum())
        if total_in:
            self.swap_device.load(total_in)
        per_tenant_major = self._per_tenant(rows, from_swap)
        per_tenant_fresh = self._per_tenant(rows, granted - from_swap)
        self.major_faults += per_tenant_major.astype(np.int64)
        self.minor_faults += per_tenant_fresh.astype(np.int64)
        self.stall_us += per_tenant_major * (
            self._swap_read_us + self.costs.major_fault_handler_us
        )
        self.stall_us += per_tenant_fresh * self.costs.minor_fault_us
        self.last_touch[touched] = now

        # -- batched monitor pass --------------------------------------
        p = np.zeros(tab.n_regions, dtype=np.float64)
        p[ramp_rows] = COLD_INIT_P
        p[hot] = np.where(booted, self._hot_p, 0.0)
        p[warm] = np.where(warm_on, self._warm_p, 0.0)
        self.monitor.tick(p, alive)

        # -- scheme pass: fleet-wide min_age PAGEOUT -------------------
        if cfg.min_age_us > 0:
            # age >= min_age > 0 already means alive and unaccessed.
            rows = np.flatnonzero(tab.age_us >= cfg.min_age_us)
            self._pageout(rows[self.resident[rows] > 0], now)

        # -- pressure pass: shared watermarks --------------------------
        extra = (
            self.faults.fleet_pressure_frames(now) if self.faults is not None else 0
        )
        if self.pool.over_high(self.watermarks, extra_frames=extra):
            self._evict(
                self.pool.pressure_target(self.watermarks, extra_frames=extra),
                touched,
                now,
            )

        resident_pages = int(self.resident.sum())
        system = resident_pages * PAGE_SIZE + self.swap_device.dram_overhead_bytes()
        if resident_pages > self.peak_resident_pages:
            self.peak_resident_pages = resident_pages
        if system > self.peak_system_bytes:
            self.peak_system_bytes = system

        if self.sanitizer is not None:
            self.sanitizer.checkpoint_fleet(self, now)

    def _per_tenant(self, rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Per-tenant float sums of ``weights`` over ``rows``.  A row left
        out must weigh 0: a 0.0 term changes no sum, so this equals the
        full-table bincount."""
        return np.bincount(self.table.tenant[rows], weights=weights, minlength=len(self.tenants))

    def _swap_out(self, rows: np.ndarray, pages: np.ndarray, total: int) -> None:
        """Move ``pages`` of each of ``rows`` (``total`` in all) from
        resident to swapped: the pool frees the frames, swap stores
        them."""
        self.resident[rows] -= pages
        self.swapped[rows] += pages
        self.pool.release(total)
        self.swap_device.store(total, total)

    def _pageout(self, rows: np.ndarray, now: int) -> None:
        """Scheme PAGEOUT of the given rows, clamped by swap slots."""
        pages = self.resident[rows]
        allowed = self.swap_device.free_pages()
        total = int(pages.sum())
        if total > allowed:
            pages = _take_in_order(pages, allowed)
            total = int(pages.sum())
        if total <= 0:
            return
        self._swap_out(rows, pages, total)
        self.pageout_pages += self._per_tenant(rows, pages).astype(np.int64)
        self.pageout_batches += self._per_tenant(rows, pages > 0).astype(np.int64)

    def _evict(self, target_pages: int, touched: np.ndarray, now: int) -> int:
        """Evict up to ``target_pages`` from the globally coldest
        untouched regions — the pressure path coupling tenants."""
        budget = min(int(target_pages), self.swap_device.free_pages())
        if budget <= 0:
            return 0
        cand = np.nonzero((self.resident > 0) & ~touched)[0]
        if not cand.size:
            return 0
        order = cand[np.argsort(self.last_touch[cand], kind="stable")]
        take = _take_in_order(self.resident[order], budget)
        total = int(take.sum())
        if total <= 0:
            return 0
        taken = np.flatnonzero(take)
        order, take = order[taken], take[taken]
        self._swap_out(order, take, total)
        self.evicted_pages += self._per_tenant(order, take).astype(np.int64)
        self.reclaim_passes += 1
        if self.trace is not None:
            self.trace.count(ReclaimPass)
        return total

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    @property
    def step_us(self) -> int:
        """A fleet pauses at tick boundaries."""
        return self.cfg.tick_us

    @property
    def duration_us(self) -> int:
        """The fleet's configured duration."""
        return self.cfg.duration_us

    def start_loop(self) -> EventQueue:
        """Create the event queue and register the fleet tick.

        Split out of :meth:`run` so the recovery codec can pause the
        loop between ticks, checkpoint the scheduler, and resume a
        byte-identical continuation on a fresh queue.
        """
        self.wall_start = time.perf_counter()
        queue = EventQueue()
        if self.trace is not None:
            self.trace.bind_clock(queue.clock)
        queue.schedule_periodic(self.cfg.tick_us, self._tick, name="fleet-tick")
        self.queue = queue
        return queue

    def periodic_handlers(self) -> Dict[str, Any]:
        return {"fleet-tick": self._tick}

    def run(self) -> FleetResult:
        """Drive the fleet to ``duration_us`` and freeze the result."""
        self.start_loop()
        self.run_until(self.duration_us)
        return self.finish()

    def finish(self) -> FleetResult:
        """Flush per-tenant telemetry and freeze the :class:`FleetResult`."""
        cfg = self.cfg
        if self.trace is not None:
            # Per-tenant attribution rides the bus's no-materialisation
            # fast path: one bulk flush of the accumulated counters.
            groups = {
                f"t{t.index}": int(b)
                for t, b in zip(self.tenants, self.pageout_batches)
                if b
            }
            if groups:
                self.trace.count_groups(PageoutBatch, groups)

        rss = (
            np.bincount(self.table.tenant, weights=self.resident, minlength=len(self.tenants))
            * PAGE_SIZE
        )
        final_resident = int(self.resident.sum()) * PAGE_SIZE
        return FleetResult(
            n_tenants=len(self.tenants),
            tenant_lo=self.lo,
            tenant_hi=self.hi,
            duration_us=cfg.duration_us,
            seed=cfg.seed,
            machine=cfg.machine,
            swap=cfg.swap,
            min_age_us=cfg.min_age_us,
            tick_us=cfg.tick_us,
            pool_bytes=self.pool.capacity_frames * PAGE_SIZE,
            n_regions=self.table.n_regions,
            total_footprint_bytes=self.total_footprint,
            total_cold_bytes=self.total_cold,
            peak_resident_bytes=self.peak_resident_pages * PAGE_SIZE,
            final_resident_bytes=final_resident,
            peak_system_bytes=int(self.peak_system_bytes),
            final_system_bytes=final_resident + self.swap_device.dram_overhead_bytes(),
            minor_faults=int(self.minor_faults.sum()),
            major_faults=int(self.major_faults.sum()),
            pageout_pages=int(self.pageout_pages.sum()),
            pageout_batches=int(self.pageout_batches.sum()),
            reclaim_passes=int(self.reclaim_passes),
            evicted_pages=int(self.evicted_pages.sum()),
            shed_pages=int(self.shed_pages.sum()),
            degraded_ticks=int(self.degraded_ticks),
            monitor_checks=int(self.monitor.total_checks),
            monitor_cpu_us=float(self.monitor.total_cpu_us),
            rss_p50_bytes=float(np.percentile(rss, 50)),
            rss_p99_bytes=float(np.percentile(rss, 99)),
            stall_p50_us=float(np.percentile(self.stall_us, 50)),
            stall_p99_us=float(np.percentile(self.stall_us, 99)),
            stall_total_us=float(self.stall_us.sum()),
            wall_clock_us=(time.perf_counter() - self.wall_start) * 1e6,
        )


def run_fleet(
    cfg: FleetConfig,
    *,
    trace: Optional[TraceBus] = None,
    sanitize: Any = None,
    faults: Any = None,
) -> FleetResult:
    """Build a scheduler for ``cfg`` and run it to completion."""
    return FleetScheduler(cfg, trace=trace, sanitize=sanitize, faults=faults).run()


def run_fleet_naive(cfg: FleetConfig, *, limit: Optional[int] = None) -> List[Any]:
    """The pre-fleet way: one full ``run_experiment`` per tenant.

    Each tenant gets its own machine scaled so its guest holds the
    tenant's share of the fleet pool (floored at 16 MiB), its own
    kernel, monitor and scheme engine — full page-granularity fidelity,
    paid for in Python-level simulation per tenant.  This is the
    reference the fleet benchmark measures the batched scheduler
    against: each tenant is one
    :func:`~repro.runner.experiment.run_experiment`, so it is built by
    :class:`~repro.runner.experiment.ExperimentRun` like any single run.
    """
    host = get_instance(cfg.machine)
    n = min(limit, cfg.n_tenants) if limit is not None else cfg.n_tenants
    tenants = build_tenant_specs(
        base_seed=cfg.seed,
        n_tenants=cfg.n_tenants,
        footprint_mib=cfg.footprint_mib,
        cold_share=cfg.cold_share,
        arrival_window_s=cfg.arrival_window_s,
        tenant_range=(0, n),
    )
    if cfg.pool_gib > 0:
        share = int(cfg.pool_gib * GIB / cfg.n_tenants)
    else:
        total = int(sum(t.footprint for t in tenants) / n * cfg.n_tenants)
        share = int(total * cfg.pool_ratio / cfg.n_tenants)
    guest_dram = max(share, 16 * MIB)
    machine = scaled_instance(cfg.machine, dram_scale=guest_dram * 4 / host.dram_bytes)
    config = prcl_config(cfg.min_age_us) if cfg.min_age_us > 0 else get_config("baseline")
    results = []
    for t in tenants:
        results.append(
            run_experiment(
                t.to_workload_spec(cfg.duration_us),
                config=config,
                machine=machine,
                seed=t.seed,
                swap=cfg.swap,
                # Each tenant gets its fleet share of the slow tier, the
                # same split the DRAM pool gets above.
                tier=cfg.tier or None,
                tier_scale=cfg.tier_scale / cfg.n_tenants,
                tier_policy=cfg.tier_policy,
            )
        )
    return results
