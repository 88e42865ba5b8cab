"""Run results and baseline normalisation.

Definitions used throughout the benchmarks (matching §4.2):

* ``performance``       = baseline_runtime / runtime  (1.0 = baseline,
  < 1 slower, > 1 faster) — the Figure 7/8 y-axis;
* ``memory_efficiency`` = baseline_rss / rss (> 1 = saving, < 1 = bloat)
  — the Figure 7/8 y-axis;
* ``memory_saving``     = 1 − rss / baseline_rss (the "91% memory
  saving" phrasing);
* ``slowdown``          = runtime / baseline_runtime − 1 (the "0.9%
  runtime slowdown" phrasing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ConfigError

__all__ = ["RunResult", "NormalizedResult", "normalize"]


@dataclass
class RunResult:
    """Raw measurements of one simulated run."""

    workload: str
    config: str
    machine: str
    seed: int
    duration_us: int
    runtime_us: float
    avg_rss_bytes: float
    peak_rss_bytes: float
    avg_system_bytes: float
    #: End-of-run state — what "inspecting RSS after letting DAOS run"
    #: (§4.4) sees, as opposed to the time-weighted averages.
    final_rss_bytes: float = 0.0
    final_system_bytes: float = 0.0
    breakdown: Dict[str, float] = field(default_factory=dict)
    monitor_checks: int = 0
    monitor_cpu_us: float = 0.0
    scheme_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Aggregation snapshots captured when the config records (rec/prec).
    snapshots: Optional[list] = None
    #: Host wall-clock time the simulation itself took, in microseconds.
    #: VOLATILE: measures the machine running the simulator, not the
    #: simulation — excluded from sweep fingerprints and cache identity
    #: (see ``repro.sweep.serialize.VOLATILE_FIELDS``).
    wall_clock_us: float = 0.0
    #: Trace-bus roll-up of the run (``TraceSummary.as_dict()`` form), or
    #: ``None`` when tracing was disabled.  Registered VOLATILE for sweep
    #: fingerprints: it describes instrumentation, not the simulation.
    trace_summary: Optional[Dict[str, object]] = None

    @property
    def monitor_cpu_share(self) -> float:
        """Fraction of one CPU spent monitoring (paper: ~1.4%)."""
        if self.duration_us == 0:
            return 0.0
        return self.monitor_cpu_us / self.duration_us


@dataclass(frozen=True)
class NormalizedResult:
    """One run normalised against its baseline."""

    workload: str
    config: str
    machine: str
    performance: float
    memory_efficiency: float
    memory_saving: float
    slowdown: float
    system_memory_ratio: float


def normalize(result: RunResult, baseline: RunResult) -> NormalizedResult:
    """Express ``result`` relative to its ``baseline`` run."""
    if baseline.workload != result.workload:
        raise ConfigError(
            f"baseline workload {baseline.workload!r} != {result.workload!r}"
        )
    if baseline.runtime_us <= 0 or baseline.avg_rss_bytes <= 0:
        raise ConfigError("degenerate baseline (zero runtime or RSS)")
    return NormalizedResult(
        workload=result.workload,
        config=result.config,
        machine=result.machine,
        performance=baseline.runtime_us / result.runtime_us,
        memory_efficiency=baseline.avg_rss_bytes / max(1.0, result.avg_rss_bytes),
        memory_saving=1.0 - result.avg_rss_bytes / baseline.avg_rss_bytes,
        slowdown=result.runtime_us / baseline.runtime_us - 1.0,
        system_memory_ratio=result.avg_system_bytes / max(1.0, baseline.avg_system_bytes),
    )


def average_rows(rows: List[NormalizedResult], config: str, machine: str) -> NormalizedResult:
    """The Figure 7/8 'average' column over a set of normalised rows."""
    if not rows:
        raise ConfigError("cannot average zero rows")
    n = len(rows)
    return NormalizedResult(
        workload="average",
        config=config,
        machine=machine,
        performance=sum(r.performance for r in rows) / n,
        memory_efficiency=sum(r.memory_efficiency for r in rows) / n,
        memory_saving=sum(r.memory_saving for r in rows) / n,
        slowdown=sum(r.slowdown for r in rows) / n,
        system_memory_ratio=sum(r.system_memory_ratio for r in rows) / n,
    )
