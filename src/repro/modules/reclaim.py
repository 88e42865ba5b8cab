"""DAMON_RECLAIM: packaged proactive reclamation.

The upstream module wraps exactly the paper's proactive-reclamation idea
into a ready-made unit: a physical-address monitor, one PAGEOUT scheme
over memory idle for ``min_age``, a charge quota to bound reclaim cost,
and free-memory watermarks so the whole thing only works when the system
is actually under pressure.  Administrators enable it with a line of
module parameters instead of writing scheme files.
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
from ..units import MIB, SEC, UNLIMITED

__all__ = ["ReclaimParams", "ReclaimModule"]


@dataclass(frozen=True)
class ReclaimParams:
    """Module parameters (names follow the upstream module's knobs)."""

    #: Memory idle for at least this long is reclaim candidate.
    min_age_us: int = 20 * SEC
    #: Reclaim at most this many bytes per quota window.
    quota_sz_bytes: int = 128 * MIB
    #: Quota window length.
    quota_reset_interval_us: int = 1 * SEC
    #: Watermarks over the free-memory ratio: active while free is
    #: between ``wmarks_low`` and ``wmarks_high``, entered at
    #: ``wmarks_mid``.
    wmarks_high: float = 0.5
    wmarks_mid: float = 0.4
    wmarks_low: float = 0.05

    def __post_init__(self):
        if self.min_age_us < 0:
            raise ConfigError("min_age cannot be negative")
        if self.quota_sz_bytes <= 0:
            raise ConfigError("quota size must be positive")


class ReclaimModule:
    """A self-contained proactive-reclamation unit over one kernel."""

    def __init__(
        self,
        kernel: SimKernel,
        params: Optional[ReclaimParams] = None,
        attrs: Optional[MonitorAttrs] = None,
        *,
        seed: int = 0,
        trace: Optional[TraceBus] = None,
    ):
        self.kernel = kernel
        self.params = params if params is not None else ReclaimParams()
        self.scheme = Scheme(
            pattern=AccessPattern(
                min_size=4096,
                max_size=UNLIMITED,
                min_freq=0.0,
                max_freq=0.0,
                min_age_us=self.params.min_age_us,
                max_age_us=UNLIMITED,
            ),
            action=Action.PAGEOUT,
            quota=Quota(
                size_bytes=self.params.quota_sz_bytes,
                reset_interval_us=self.params.quota_reset_interval_us,
            ),
            watermarks=Watermarks(
                high=self.params.wmarks_high,
                mid=self.params.wmarks_mid,
                low=self.params.wmarks_low,
            ),
        )
        self.monitor = DataAccessMonitor(
            PhysicalPrimitive(kernel),
            attrs if attrs is not None else MonitorAttrs(),
            seed=seed,
            trace=trace,
        )
        self.engine = SchemesEngine(kernel, [self.scheme], trace=trace)
        self.monitor.attach_engine(self.engine)

    # ------------------------------------------------------------------
    def start(self, queue: EventQueue) -> None:
        """Begin monitoring and scheme application on ``queue``."""
        self.monitor.start(queue)

    def stop(self) -> None:
        """Stop the module's monitor."""
        self.monitor.stop()

    @property
    def active(self) -> bool:
        """Whether the watermarks currently allow reclamation."""
        return self.scheme.watermarks.active

    def stats(self) -> dict:
        """The module's lifetime counters (bytes reclaimed, intervals)."""
        return {
            "reclaimed_bytes": self.scheme.stats.sz_applied,
            "nr_applied": self.scheme.stats.nr_applied,
            "nr_intervals": self.scheme.stats.nr_intervals,
            "active": self.active,
        }
