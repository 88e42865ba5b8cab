"""Parallel experiment sweeps with deterministic seeding and caching.

Every figure in the paper is a sweep over (workload × machine × config ×
seed) points.  This package turns that shape into infrastructure:

* :mod:`~repro.sweep.grid` — declarative grids expanded into canonical
  :class:`~repro.sweep.grid.SweepPoint`\\ s with per-point derived seeds;
* :mod:`~repro.sweep.points` — the registry of named point functions a
  worker process can resolve ("experiment" runs one
  :func:`~repro.runner.experiment.run_experiment`);
* :mod:`~repro.sweep.serialize` — canonical JSON encoding of results,
  and :func:`~repro.sweep.serialize.fingerprint` for byte-identical
  result comparison;
* :mod:`~repro.sweep.cache` — the content-addressed on-disk result
  cache (key = point spec + code version tag);
* :mod:`~repro.sweep.runner` — :class:`~repro.sweep.runner.SweepRunner`,
  executing a grid in process or across the worker pool, with cache
  resume and the write-ahead journal;
* :mod:`~repro.sweep.supervisor` — the worker pool:
  :class:`~repro.sweep.supervisor.PointSupervisor` (persistent spawn workers,
  heartbeats, watchdog, seeded-backoff reassignment) and the worker
  protocol both execution paths share;
* :mod:`~repro.sweep.presets` — the paper's figure grids, ready-made.
"""

from .cache import ResultCache, code_version_tag, point_key
from .grid import SweepGrid, SweepPoint, derive_seed
from .points import get_point_function, register_point_function
from .runner import SweepOutcome, SweepReport, SweepRunner
from .serialize import canonical_json, decode_value, encode_value, fingerprint
from .supervisor import PointSupervisor

__all__ = [
    "SweepGrid",
    "SweepPoint",
    "derive_seed",
    "SweepRunner",
    "SweepReport",
    "SweepOutcome",
    "PointSupervisor",
    "ResultCache",
    "code_version_tag",
    "point_key",
    "register_point_function",
    "get_point_function",
    "encode_value",
    "decode_value",
    "canonical_json",
    "fingerprint",
]
