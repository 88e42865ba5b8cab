"""Deterministic per-layer profiling over the trace bus.

The :class:`PerfProfiler` is a plain bus subscriber: it files every
event under the layer its class declares (monitor / schemes / kernel /
tuner / faults / recovery / sweep) and rolls up three columns per layer —

* **events** — events observed,
* **ops** — the domain operations those events stand for (access checks,
  evicted pages, promoted chunks, ...), taken from the payload field the
  event class names as its ``ops_field``,
* **est_cost_us** — estimated CPU microseconds for the operations with a
  cost formula in :class:`~repro.sim.costs.CostModel` (monitor checks,
  THP allocations, fault handling); layers without a formula report 0.

Everything is a pure function of the event stream, so two same-seed runs
produce byte-identical reports; the only volatile figure (host wall
clock) is quarantined in a separate ``volatile`` section by
:func:`profile_run`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..runner.experiment import run_experiment
from ..sim.costs import CostModel
from ..trace.bus import TraceBus
from ..trace.events import TraceEvent, event_payload

__all__ = ["PerfProfiler", "profile_run"]

class PerfProfiler:
    """Per-layer op/cost counters riding a :class:`TraceBus`.

    Subscribe with ``bus.subscribe_all(profiler)`` (or
    :meth:`attach`); read the roll-up with :meth:`report`.
    """

    def __init__(self, costs: Optional[CostModel] = None):
        self.costs = costs if costs is not None else CostModel()
        self._events: Dict[str, int] = {}
        self._ops: Dict[str, int] = {}
        self._cost_us: Dict[str, float] = {}
        # Last-seen lifetime fault counters from EpochEnd, for deltas.
        self._seen_major = 0
        self._seen_minor = 0

    def attach(self, bus: TraceBus) -> "PerfProfiler":
        """Subscribe to every event on ``bus``; returns self."""
        bus.subscribe_all(self)
        return self

    # -- subscriber entry point ----------------------------------------
    def __call__(self, event: TraceEvent) -> None:
        kind = event.kind
        layer = event.layer
        payload = event_payload(event)
        ops = int(payload[event.ops_field]) if event.ops_field is not None else 1
        self._events[layer] = self._events.get(layer, 0) + 1
        self._ops[layer] = self._ops.get(layer, 0) + ops
        cost = self._estimate_cost_us(kind, payload)
        if cost:
            self._cost_us[layer] = self._cost_us.get(layer, 0.0) + cost

    def _estimate_cost_us(self, kind: str, payload: Dict[str, Any]) -> float:
        if kind == "AccessSampled":
            return self.costs.monitor_check_cost_us(
                int(payload["checked"]), wakeups=1
            )
        if kind == "ThpPromotion":
            return self.costs.thp_alloc_cost_us(int(payload["promoted_chunks"]))
        if kind == "EpochEnd":
            # EpochEnd carries *lifetime* fault counters; charge deltas.
            major = int(payload.get("major_faults", 0))
            minor = int(payload.get("minor_faults", 0))
            cost = self.costs.major_fault_overhead_us(
                max(0, major - self._seen_major)
            ) + self.costs.minor_fault_cost_us(max(0, minor - self._seen_minor))
            self._seen_major = max(self._seen_major, major)
            self._seen_minor = max(self._seen_minor, minor)
            return cost
        if kind == "TuneStep":
            return float(payload.get("runtime_us", 0.0))
        return 0.0

    # -- reporting ------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """Deterministic per-layer roll-up (sorted keys, rounded costs)."""
        layers = {}
        for layer in sorted(set(self._events)):
            layers[layer] = {
                "events": self._events.get(layer, 0),
                "ops": self._ops.get(layer, 0),
                "est_cost_us": round(self._cost_us.get(layer, 0.0), 3),
            }
        total_cost = round(sum(self._cost_us.values()), 3)
        return {
            "layers": layers,
            "total_events": sum(self._events.values()),
            "total_est_cost_us": total_cost,
        }


def profile_run(
    workload: str, *, costs: Optional[CostModel] = None, **run_kwargs
) -> Tuple[Dict[str, Any], Any]:
    """Run one experiment under the profiler; return ``(report, result)``.

    ``run_kwargs`` go to :func:`~repro.runner.experiment.run_experiment`
    unchanged (config, machine, seed, time scale, tier, faults, ...: see
    :class:`~repro.runner.experiment.ExperimentRun`); a ``trace`` bus
    among them carries the profiler beside its own subscribers.
    ``costs`` prices the profile, not the run.  The report's top level
    is deterministic for a fixed set of run parameters; host-dependent
    figures live under the ``volatile`` key only.
    """
    bus = run_kwargs.pop("trace", None)
    if bus is None:
        bus = TraceBus(ring_capacity=0)
    profiler = PerfProfiler(costs=costs).attach(bus)
    result = run_experiment(workload, trace=bus, **run_kwargs)
    report: Dict[str, Any] = {
        "workload": result.workload,
        "config": result.config,
        "machine": result.machine,
        "seed": result.seed,
        # ExperimentRun's default: a RunResult does not carry its scale.
        "time_scale": run_kwargs.get("time_scale", 1.0),
        "runtime_us": result.runtime_us,
        "monitor": {
            "checks": result.monitor_checks,
            "cpu_share": round(result.monitor_cpu_share, 6),
        },
        "profile": profiler.report(),
        "events": dict(sorted(bus.summary().counts.items())),
        "volatile": {"wall_clock_us": result.wall_clock_us},
    }
    return report, result
