"""Per-layer profile of one run, read off the run's own cost ledger.

A run charges every modelled microsecond into its
:class:`~repro.sim.metrics.RuntimeBreakdown` and counts faults, swap,
tier moves, monitor checks and scheme applications beside it; the
:class:`~repro.runner.results.RunResult` carries that ledger, and
:func:`profile_run` files it by the layer that paid:

* **modelled_us** — the breakdown components the layer pays, each also
  listed by name: ``compute_us`` under ``workload``; memory stall, fault
  service, swap-out, THP allocation and tier migration under ``kernel``;
  monitor interference under ``monitor``;
* **counters** — fault, swap and tier counts under ``kernel``; checks,
  CPU and CPU share under ``monitor``; the summed scheme stats under
  ``schemes``;
* **events** — the trace bus's count of the events the layer emitted,
  filed by the ``layer`` each event class declares.

``profile.modelled_total_us`` sums the breakdown in its declared order,
the sum :meth:`~repro.sim.metrics.RuntimeBreakdown.total_us` makes, so
it equals ``runtime_us`` to the last digit.  Nothing subscribes to the
bus: a profiled run takes the plain run's code path.  The report is
deterministic for a fixed set of run parameters; the host wall clock is
quarantined under ``volatile``.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict, Tuple

from ..runner.experiment import run_experiment
from ..runner.results import RunResult
from ..sim.metrics import RuntimeBreakdown
from ..trace.events import EVENT_TYPES

__all__ = ["profile_run"]

#: The layer that pays each :class:`RuntimeBreakdown` component.
_PAYER = {
    "compute_us": "workload",
    "memory_stall_us": "kernel",
    "major_fault_us": "kernel",
    "minor_fault_us": "kernel",
    "swapout_us": "kernel",
    "thp_alloc_us": "kernel",
    "monitor_interference_us": "monitor",
    "tier_migration_us": "kernel",
}
#: The kernel's fault, swap and tier counters in ``RunResult.breakdown``.
_KERNEL_COUNTERS = (
    "major_faults",
    "minor_faults",
    "pages_swapped_out",
    "pages_swapped_in",
    "pages_written_back",
    "pages_demoted",
    "pages_promoted",
)
_SCHEME_STATS = ("nr_tried", "sz_tried", "nr_applied", "sz_applied")


def _layers(result: RunResult) -> Dict[str, Dict[str, Any]]:
    """The run's ledger filed by layer (see the module docstring)."""
    layers: Dict[str, Dict[str, Any]] = {}

    def layer(name: str) -> Dict[str, Any]:
        return layers.setdefault(name, {"modelled_us": 0.0, "events": 0})

    for f in fields(RuntimeBreakdown):
        paid = layer(_PAYER[f.name])
        paid[f.name] = result.breakdown[f.name]
        paid["modelled_us"] += result.breakdown[f.name]
    layer("kernel").update({name: result.breakdown[name] for name in _KERNEL_COUNTERS})
    layer("monitor").update(
        monitor_checks=result.monitor_checks,
        monitor_cpu_us=result.monitor_cpu_us,
        cpu_share=result.monitor_cpu_share,
    )
    stats = result.scheme_stats.values()
    layer("schemes").update({s: sum(st[s] for st in stats) for s in _SCHEME_STATS})
    for kind, n in (result.trace_summary or {}).get("counts", {}).items():
        layer(EVENT_TYPES[kind].layer)["events"] += n
    return layers


def profile_run(workload: str, **run_kwargs) -> Tuple[Dict[str, Any], RunResult]:
    """Run one experiment and profile its ledger; return ``(report, result)``.

    ``run_kwargs`` go to :func:`~repro.runner.experiment.run_experiment`
    unchanged (config, machine, seed, time scale, tier, faults, trace
    bus, checkpoint, ...), so ``result`` is the one a plain run returns.
    The report's top level is deterministic for a fixed set of run
    parameters; host-dependent figures live under ``volatile`` only.
    """
    result = run_experiment(workload, **run_kwargs)
    report: Dict[str, Any] = {
        "workload": result.workload,
        "config": result.config,
        "machine": result.machine,
        "seed": result.seed,
        # ExperimentRun's default: a RunResult does not carry its scale.
        "time_scale": run_kwargs.get("time_scale", 1.0),
        "runtime_us": result.runtime_us,
        "profile": {
            "layers": _layers(result),
            "modelled_total_us": sum(
                result.breakdown[f.name] for f in fields(RuntimeBreakdown)
            ),
        },
        "events": (result.trace_summary or {}).get("counts", {}),
        "volatile": {"wall_clock_us": result.wall_clock_us},
    }
    return report, result
