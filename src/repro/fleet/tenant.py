"""Fleet tenants: per-tenant specs derived from one base seed.

A fleet tenant is a lightweight description of one serverless process —
its footprint, its cold/hot/warm layout (built through the same
:func:`~repro.workloads.serverless.serverless_layout` the single-run
stand-in uses), its boot time inside the arrival window, and its warm
activity phase.  Every tenant trait comes from a per-tenant generator
seeded with :func:`~repro.sweep.grid.derive_seed` on ``(base seed,
tenant index)``, so tenant *i* looks the same whether it runs in a
10,000-tenant process, inside shard ``[lo, hi)`` of a sharded sweep, or
alone through the naive per-tenant :func:`~repro.runner.run_experiment`
loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..sweep.grid import derive_seed
from ..units import MIB, SEC
from ..workloads.base import WorkloadSpec
from ..workloads.patterns import ColdInit, CyclicSweep, Hotspot
from ..workloads.serverless import serverless_layout

__all__ = ["TenantSpec", "build_tenant_spec", "build_tenant_specs"]

#: Sampling probability of the cold image while it is being populated.
COLD_INIT_P = 0.9

#: Cold-image population time, as in the serverless stand-in.
INIT_US = 5 * SEC


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's identity: layout, timing and activity parameters."""

    index: int
    seed: int
    footprint: int
    cold_share: float
    #: Component sizes in bytes; tile ``[0, footprint)`` exactly.
    cold: int
    hot: int
    warm: int
    #: Boot offset inside the fleet's arrival window.
    boot_us: int
    init_us: int
    #: Warm-component duty cycle: active for ``duty × period`` each period.
    warm_period_us: int
    warm_phase_us: int
    warm_duty: float
    #: Probability one sampling check of an active region observes an
    #: access — the tenant-level inputs to the batched monitor pass.
    hot_p: float
    warm_p: float

    def to_workload_spec(self, duration_us: int) -> WorkloadSpec:
        """The full-fidelity workload for the naive per-tenant path.

        Boot staggering and warm phase are fleet-level concerns (each
        naive run owns its whole timeline), so they are deliberately
        not encoded here; layout, duty cycle and period are.
        """
        return WorkloadSpec(
            name=f"tenant{self.index}",
            suite="fleet",
            footprint=self.footprint,
            duration_us=int(duration_us),
            components=(
                ColdInit(offset=0, size=self.cold, init_us=self.init_us),
                Hotspot(offset=self.cold, size=self.hot, touches_per_sec=2000.0),
                CyclicSweep(
                    offset=self.cold + self.hot,
                    size=self.warm,
                    period_us=self.warm_period_us,
                    active_share=self.warm_duty,
                    touches_per_sec=300.0,
                ),
            ),
            compute_share=0.5,
            mem_share=0.1,
        )


def build_tenant_spec(
    index: int,
    *,
    base_seed: int,
    footprint_mib: int,
    cold_share: float,
    arrival_window_s: float,
) -> TenantSpec:
    """Derive tenant ``index`` from the fleet's base parameters.

    Draw order below is part of the determinism contract — reordering
    it changes every seeded fleet digest.
    """
    seed = derive_seed(base_seed, {"tenant": int(index)})
    rng = np.random.default_rng(seed)
    footprint = max(3, int(round(footprint_mib * rng.uniform(0.75, 1.25)))) * MIB
    share = float(np.clip(cold_share * rng.uniform(0.95, 1.05), 0.05, 0.97))
    boot_us = int(rng.uniform(0.0, max(arrival_window_s, 0.0) * SEC))
    warm_period_us = int(rng.uniform(30.0, 90.0) * SEC)
    warm_phase_us = int(rng.uniform(0.0, warm_period_us))
    warm_duty = float(rng.uniform(0.05, 0.15))
    hot_p = float(rng.uniform(0.90, 0.98))
    warm_p = float(rng.uniform(0.40, 0.70))
    cold, hot, warm = serverless_layout(footprint, share)
    return TenantSpec(
        index=int(index),
        seed=seed,
        footprint=footprint,
        cold_share=share,
        cold=cold,
        hot=hot,
        warm=warm,
        boot_us=boot_us,
        init_us=INIT_US,
        warm_period_us=warm_period_us,
        warm_phase_us=warm_phase_us,
        warm_duty=warm_duty,
        hot_p=hot_p,
        warm_p=warm_p,
    )


def build_tenant_specs(
    *,
    base_seed: int,
    n_tenants: int,
    footprint_mib: int,
    cold_share: float,
    arrival_window_s: float,
    tenant_range: Optional[Tuple[int, int]] = None,
) -> List[TenantSpec]:
    """Tenants ``[lo, hi)`` of an ``n_tenants`` fleet (default: all).

    A shard passes its range; traits depend only on the *global* tenant
    index, so shard boundaries never change who a tenant is.
    """
    lo, hi = tenant_range if tenant_range is not None else (0, n_tenants)
    if not 0 <= lo < hi <= n_tenants:
        raise ConfigError(f"tenant range [{lo}, {hi}) outside [0, {n_tenants})")
    return [
        build_tenant_spec(
            i,
            base_seed=base_seed,
            footprint_mib=footprint_mib,
            cold_share=cold_share,
            arrival_window_s=arrival_window_s,
        )
        for i in range(lo, hi)
    ]
