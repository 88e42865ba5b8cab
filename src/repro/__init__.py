"""repro — reproduction of "DAOS: Data Access-aware Operating System" (HPDC '22).

The package mirrors the paper's architecture (Figure 1) as a stack of
layers, each importing only the ones below it (DESIGN.md §3; the table
is :data:`repro.lint.astlint.LAYERS` and ``daos lint`` checks it):

* base modules — :mod:`repro.errors`, :mod:`repro.units`,
  :mod:`repro.clock` (discrete-event virtual time),
  :mod:`repro.version` and :mod:`repro.diagnostics`;
* :mod:`repro.trace` — the typed event bus every layer emits on;
* :mod:`repro.faults` — seeded fault plans; :mod:`repro.tuning` — the
  auto-tuning runtime: score functions, 60/40 sampling, polynomial
  trend estimation, peak search (§3.3–3.5);
* :mod:`repro.sim` — the simulated machine substrate standing in for the
  Linux mm subsystem and the AWS EC2 test fleet;
* :mod:`repro.sanitize` — runtime invariant checks over the substrate;
* :mod:`repro.monitor` — the Data Access Monitor: region-based sampling
  with adaptive regions adjustment and aging (§3.1);
* :mod:`repro.schemes` — the Memory Management Schemes Engine, the
  Table 1 actions (§3.2) and the scheme analyzer;
* :mod:`repro.modules` — DAMON_RECLAIM / DAMON_LRU_SORT style modules;
  :mod:`repro.workloads` — synthetic access-pattern models of the 24
  Parsec3 / Splash-2x workloads and the production serverless system;
* :mod:`repro.recovery` — checkpoint files and the sweep journal;
* :mod:`repro.runner` — the six experiment configurations (baseline,
  rec, prec, thp, ethp, prcl), the experiment driver and run restore;
* :mod:`repro.analysis` — heatmaps (Figure 6), working-set estimation,
  and report tables; :mod:`repro.perf` — the per-layer profiler;
* :mod:`repro.sweep` — cached, resumable sweeps over a worker pool;
* :mod:`repro.fleet` — ten thousand tenants on one monitor;
* :mod:`repro.lint` — ``daos lint``; :mod:`repro.cli` — ``daos``.

``import repro`` loads nothing else: the names below resolve on first
use (PEP 562), so a process pays only for the layers it touches.

Quickstart::

    from repro import run_experiment

    result = run_experiment("parsec3/blackscholes", config="prcl")
    print(result.runtime_us, result.avg_rss_bytes)
"""

import importlib

__version__ = "1.0.0"

#: Exported name → the module that defines it, imported on first access.
_EXPORTS = {
    "AccessPattern": "repro.schemes",
    "Action": "repro.schemes",
    "CostModel": "repro.sim",
    "DataAccessMonitor": "repro.monitor",
    "MachineSpec": "repro.sim",
    "MonitorAttrs": "repro.monitor",
    "PhysicalPrimitive": "repro.monitor",
    "Scheme": "repro.schemes",
    "SchemesEngine": "repro.schemes",
    "SimKernel": "repro.sim",
    "ThpPolicy": "repro.sim",
    "VirtualPrimitive": "repro.monitor",
    "ZramDevice": "repro.sim",
    "get_instance": "repro.sim",
    "instance_catalog": "repro.sim",
    "parse_scheme": "repro.schemes",
    "parse_schemes": "repro.schemes",
    "run_experiment": "repro.runner.experiment",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    """Resolve an exported name from its module (PEP 562)."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *_EXPORTS])
