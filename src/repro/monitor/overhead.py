"""The monitor's upper-bound overhead guarantee.

The paper's key claim about the monitor (§3.1, Conclusion-3) is that its
overhead is *upper-bound-guaranteed*: at most ``max_nr_regions`` access
checks per sampling interval, regardless of how much memory is being
monitored.  The measured share is the run's own ledger
(:attr:`~repro.runner.results.RunResult.monitor_cpu_share`, or
``monitor_cpu_us`` over elapsed time on a bare kernel); this module
gives the a-priori ceiling tests and the ablation benchmark hold it to.
"""

from __future__ import annotations

from ..sim.costs import CostModel
from .attrs import MonitorAttrs

__all__ = ["theoretical_bound_cpu_share"]


def theoretical_bound_cpu_share(attrs: MonitorAttrs, costs: CostModel) -> float:
    """CPU share ceiling: one wakeup plus ``max_nr_regions`` checks per
    sampling interval — the paper's upper-bound guarantee."""
    per_tick = costs.monitor_check_cost_us(attrs.max_nr_regions, wakeups=1)
    return per_tick / attrs.sampling_interval_us
