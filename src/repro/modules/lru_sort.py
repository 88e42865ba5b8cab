"""DAMON_LRU_SORT: proactive LRU-list sorting.

The baseline two-list LRU learns recency only at its accessed-bit scan
cadence (see :data:`repro.sim.lru.LRU_SCAN_INTERVAL_US`), so under
pressure it evicts near-arbitrarily among pages of the same scan bucket.
The monitor knows hotness at aggregation granularity; this module spends
that knowledge on two schemes:

* regions at or above ``hot_thres`` access frequency → LRU_PRIO
  (active-list head: protected from eviction);
* regions idle for ``cold_min_age`` → LRU_DEPRIO (inactive tail:
  evicted first).

Unlike DAMON_RECLAIM it moves no data — it only reorders reclaim
candidates, so its worst case is bounded by the quota's CPU cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..clock import EventQueue
from ..errors import ConfigError
from ..monitor.attrs import MonitorAttrs
from ..monitor.core import DataAccessMonitor
from ..monitor.primitives import PhysicalPrimitive
from ..schemes.actions import Action
from ..schemes.engine import SchemesEngine
from ..schemes.quotas import Quota
from ..schemes.scheme import AccessPattern, Scheme
from ..schemes.watermarks import Watermarks
from ..sim.kernel import SimKernel
from ..trace.bus import TraceBus
from ..units import GIB, SEC, UNLIMITED

__all__ = ["LruSortParams", "LruSortModule"]


@dataclass(frozen=True)
class LruSortParams:
    """Module parameters (upstream knob names)."""

    #: Regions at or above this access frequency are prioritised.
    hot_thres: float = 0.5
    #: Regions idle at least this long are deprioritised.
    cold_min_age_us: int = 2 * SEC
    #: Per-window byte budget for each of the two schemes.
    quota_sz_bytes: int = 1 * GIB
    quota_reset_interval_us: int = 1 * SEC
    #: Sorting runs unless memory is critically scarce (upstream keeps
    #: it on under normal conditions; it does no I/O).
    wmarks_low: float = 0.02

    def __post_init__(self):
        if not 0.0 < self.hot_thres <= 1.0:
            raise ConfigError("hot_thres must be in (0, 1]")
        if self.cold_min_age_us < 0:
            raise ConfigError("cold_min_age cannot be negative")


class LruSortModule:
    """A self-contained LRU-sorting unit over one kernel."""

    def __init__(
        self,
        kernel: SimKernel,
        params: Optional[LruSortParams] = None,
        attrs: Optional[MonitorAttrs] = None,
        *,
        seed: int = 0,
        trace: Optional[TraceBus] = None,
    ):
        self.kernel = kernel
        self.params = params if params is not None else LruSortParams()

        def quota():
            return Quota(
                size_bytes=self.params.quota_sz_bytes,
                reset_interval_us=self.params.quota_reset_interval_us,
            )

        def wmarks():
            wm = Watermarks(high=1.0, mid=1.0, low=self.params.wmarks_low)
            wm.update(min(1.0, max(self.params.wmarks_low, 0.99)))
            return wm

        self.hot_scheme = Scheme(
            pattern=AccessPattern(min_freq=self.params.hot_thres, max_freq=1.0),
            action=Action.LRU_PRIO,
            quota=quota(),
            watermarks=wmarks(),
        )
        self.cold_scheme = Scheme(
            pattern=AccessPattern(
                min_freq=0.0,
                max_freq=0.0,
                min_age_us=self.params.cold_min_age_us,
                max_age_us=UNLIMITED,
            ),
            action=Action.LRU_DEPRIO,
            quota=quota(),
            watermarks=wmarks(),
        )
        self.monitor = DataAccessMonitor(
            PhysicalPrimitive(kernel),
            attrs if attrs is not None else MonitorAttrs(),
            seed=seed,
            trace=trace,
        )
        self.engine = SchemesEngine(
            kernel, [self.hot_scheme, self.cold_scheme], trace=trace
        )
        self.monitor.attach_engine(self.engine)

    # ------------------------------------------------------------------
    def start(self, queue: EventQueue) -> None:
        """Begin monitoring and LRU sorting on ``queue``."""
        self.monitor.start(queue)

    def stop(self) -> None:
        """Stop the module's monitor."""
        self.monitor.stop()

    def stats(self) -> dict:
        """Bytes prioritised/deprioritised so far."""
        return {
            "prioritized_bytes": self.hot_scheme.stats.sz_applied,
            "deprioritized_bytes": self.cold_scheme.stats.sz_applied,
            "nr_intervals": self.hot_scheme.stats.nr_intervals,
        }
