"""Monitoring-overhead accounting and the upper-bound guarantee.

The paper's key claim about the monitor (§3.1, Conclusion-3) is that its
overhead is *upper-bound-guaranteed*: at most ``max_nr_regions`` access
checks per sampling interval, regardless of how much memory is being
monitored.  This module turns the kernel's check counters into the CPU
shares the paper reports and exposes the theoretical bound so tests and
the ablation benchmark can verify measured ≤ bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..sim.costs import CostModel
from .attrs import MonitorAttrs

__all__ = [
    "OverheadReport",
    "measure_overhead",
    "theoretical_bound_cpu_share",
]


@dataclass(frozen=True)
class OverheadReport:
    """Measured monitoring overhead over one run."""

    elapsed_us: int
    checks: int
    monitor_cpu_us: float
    #: The a-priori ceiling implied by the attrs and cost model.
    bound_cpu_share: float

    @property
    def checks_per_sec(self) -> float:
        if self.elapsed_us == 0:
            return 0.0
        return self.checks / (self.elapsed_us / 1e6)

    @property
    def cpu_share(self) -> float:
        """Fraction of one CPU consumed by monitoring (the paper reports
        1.37% / 1.46% for rec / prec)."""
        if self.elapsed_us == 0:
            return 0.0
        return self.monitor_cpu_us / self.elapsed_us


def theoretical_bound_cpu_share(attrs: MonitorAttrs, costs: CostModel) -> float:
    """CPU share ceiling: one wakeup plus ``max_nr_regions`` checks per
    sampling interval — the paper's upper-bound guarantee."""
    per_tick = costs.monitor_check_cost_us(attrs.max_nr_regions, wakeups=1)
    return per_tick / attrs.sampling_interval_us


def measure_overhead(
    elapsed_us: int, checks: int, monitor_cpu_us: float, attrs: MonitorAttrs, costs: CostModel
) -> OverheadReport:
    """Build an :class:`OverheadReport` from raw kernel counters."""
    if elapsed_us < 0:
        raise ConfigError(f"elapsed time cannot be negative: {elapsed_us}")
    return OverheadReport(
        elapsed_us=elapsed_us,
        checks=checks,
        monitor_cpu_us=monitor_cpu_us,
        bound_cpu_share=theoretical_bound_cpu_share(attrs, costs),
    )
