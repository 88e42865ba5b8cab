"""The batched monitor pass: every tenant's regions in one sweep.

One fleet runs one monitor daemon, not ten thousand: instead of a
Python-level :class:`~repro.monitor.core.DataAccessMonitor` per tenant,
the fleet keeps all tenants' regions in a single struct-of-arrays table
(:class:`BatchRegionTable` — the fleet-wide analogue of the single-run
:class:`~repro.monitor.region.RegionArray`) and
:class:`BatchMonitorPass` sweeps it with vectorized numpy passes.

The sampling and aggregation semantics mirror the per-process monitor:
every sampling interval each region gets one access check (a Bernoulli
draw against the region's access probability), and each aggregation
interval the per-region ``nr_accesses`` is the number of positive
checks — drawn here as one vectorized binomial over the alive regions
with p > 0 (the others read 0) — while
``age`` grows across idle aggregations and resets on access, exactly
the inputs a ``min_age``-guarded PAGEOUT scheme consumes.

Two deliberate simplifications, documented for the fidelity story:

* **Converged regions.**  Fleet tenants carry the region layout a
  per-process monitor converges to for the serverless pattern (cold
  image split into fixed-size chunks, one hot, one warm region) and
  skip the split/merge dynamics.  The single-run path keeps the full
  state machine; `tests/test_monitor_fidelity.py` anchors one to the
  other.
* **Scalar cost accounting.**  The check count is exact
  (``alive regions × samples per aggregation``) and priced through the
  same :meth:`~repro.sim.costs.CostModel.monitor_check_cost_us` model,
  but charged in one multiply — that boundedness (checks scale with
  regions, never with footprint) is the PEBS-at-scale argument the
  fleet benchmark demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..sim.costs import CostModel
from .attrs import MonitorAttrs

__all__ = ["BatchRegionTable", "BatchMonitorPass", "BatchTickStats"]


class BatchRegionTable:
    """Struct-of-arrays region state spanning every tenant.

    Columns are parallel arrays indexed by a global region id; the
    ``tenant`` column maps each row to its owner.  Rows are grouped by
    tenant and ordered by address within a tenant — the layout never
    changes after construction (see the module docstring), so segment
    reductions like ``np.bincount(tenant, weights)`` give per-tenant
    roll-ups without any Python-level loop.
    """

    def __init__(self, tenant: np.ndarray, size_pages: np.ndarray) -> None:
        tenant = np.asarray(tenant, dtype=np.int32)
        size_pages = np.asarray(size_pages, dtype=np.int64)
        if tenant.shape != size_pages.shape or tenant.ndim != 1:
            raise ConfigError("tenant and size_pages must be parallel 1-D arrays")
        if size_pages.size and size_pages.min() <= 0:
            raise ConfigError("every region needs a positive page count")
        if tenant.size and np.any(np.diff(tenant) < 0):
            raise ConfigError("regions must be grouped by ascending tenant id")
        self.tenant = tenant
        self.size_pages = size_pages
        self.n_regions = int(tenant.size)
        self.n_tenants = int(tenant[-1]) + 1 if tenant.size else 0
        #: Positive sampling checks in the last aggregation interval.
        self.nr_accesses = np.zeros(self.n_regions, dtype=np.int32)
        #: Microseconds of consecutive idle aggregations (0 while hot).
        self.age_us = np.zeros(self.n_regions, dtype=np.int64)


@dataclass(frozen=True)
class BatchTickStats:
    """Cost accounting for one batched aggregation sweep."""

    checks: int
    cpu_us: float


class BatchMonitorPass:
    """One monitor daemon's aggregation tick over a whole fleet.

    ``seed`` feeds a dedicated generator: sampling noise is the only
    randomness in the fleet loop, so one seed fixes the whole run.
    """

    def __init__(
        self,
        table: BatchRegionTable,
        attrs: MonitorAttrs,
        *,
        costs: CostModel | None = None,
        seed: int = 0,
    ) -> None:
        self.table = table
        self.attrs = attrs
        self.costs = costs if costs is not None else CostModel()
        self.rng = np.random.default_rng(seed)
        self.samples_per_agg = attrs.max_nr_accesses
        self.total_checks = 0
        self.total_cpu_us = 0.0

    def tick(self, p_access: np.ndarray, alive: np.ndarray) -> BatchTickStats:
        """Run one aggregation interval for every alive region.

        ``p_access`` is the per-region probability that one sampling
        check observes an access; ``alive`` masks tenants that have not
        booted yet (their regions are neither sampled nor aged).  The
        binomial is drawn only over the alive rows with p > 0, in row
        order.  NumPy draws nothing for p == 0, so this is the stream a
        full-table draw with masked rows at p == 0 consumes: which rows
        have p > 0 fixes it, and seeded replays are byte-identical
        because p is a function of the seeded state.
        """
        t = self.table
        rows = np.flatnonzero(alive & (p_access > 0))
        t.nr_accesses.fill(0)
        t.nr_accesses[rows] = self.rng.binomial(
            self.samples_per_agg, np.minimum(p_access[rows], 1.0)
        )
        # Idle alive regions age one interval; accessed or unborn read 0.
        t.age_us += self.attrs.aggregation_interval_us
        t.age_us[rows[t.nr_accesses[rows] > 0]] = 0
        t.age_us *= alive
        checks = int(np.count_nonzero(alive)) * self.samples_per_agg
        cpu_us = self.costs.monitor_check_cost_us(checks, self.samples_per_agg)
        self.total_checks += checks
        self.total_cpu_us += cpu_us
        return BatchTickStats(checks=checks, cpu_us=cpu_us)
