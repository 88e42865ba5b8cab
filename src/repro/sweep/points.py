"""The registry of named point functions.

A sweep point names its function rather than holding a callable so that
points stay canonical (hashable, cacheable) and survive pickling into
pool workers started with ``spawn`` — the worker resolves the name in
its own process.  Two resolution paths:

* built-in / registered names (``"experiment"``, ``"score_curve"``, or
  anything passed to :func:`register_point_function`);
* ``"module:attribute"`` dotted paths, imported on demand — the escape
  hatch for benchmark- or user-defined functions.

A point function takes one ``dict`` of parameters and returns any value
:mod:`~repro.sweep.serialize` can encode.  It must be deterministic in
its parameters: all randomness comes from an explicit ``seed``.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict

from ..errors import ConfigError
from ..runner.experiment import run_experiment

__all__ = ["register_point_function", "get_point_function"]

PointFunction = Callable[[Dict[str, Any]], Any]

_REGISTRY: Dict[str, PointFunction] = {}


def register_point_function(name: str, fn: PointFunction) -> PointFunction:
    """Register ``fn`` under ``name``; returns ``fn`` for decorator use."""
    if ":" in name:
        raise ConfigError(f"point-function names cannot contain ':': {name!r}")
    _REGISTRY[name] = fn
    return fn


def get_point_function(name: str) -> PointFunction:
    """Resolve a point-function name (registry first, then module path)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        pass
    if ":" in name:
        module_name, _, attr = name.partition(":")
        try:
            module = importlib.import_module(module_name)
            return getattr(module, attr)
        except (ImportError, AttributeError) as exc:
            raise ConfigError(f"cannot resolve point function {name!r}: {exc}") from exc
    known = ", ".join(sorted(_REGISTRY))
    raise ConfigError(f"unknown point function {name!r}; known: {known}")


# ----------------------------------------------------------------------
# Built-ins
# ----------------------------------------------------------------------
def _experiment_point(params: Dict[str, Any]):
    """One :func:`~repro.runner.experiment.run_experiment` call.

    Parameters mirror the function's signature: ``workload`` (required),
    ``config``, ``machine``, ``seed``, ``time_scale``, ``swap``.
    """
    kwargs = dict(params)
    try:
        workload = kwargs.pop("workload")
    except KeyError:
        raise ConfigError("'experiment' points need a 'workload' parameter") from None
    return run_experiment(workload, **kwargs)


def _score_curve_point(params: Dict[str, Any]):
    """One Figure 3 analytic score curve (no simulation involved)."""
    # Imported here: the sweep worker's entry point would otherwise load
    # the whole analysis package for the one point kind that needs it.
    from ..analysis.score_model import score_curve

    kwargs = dict(params)
    case_id = kwargs.pop("case", None)
    n_points = kwargs.pop("n_points", 41)
    a, scores = score_curve(kwargs, n_points=n_points)
    return {"case": case_id, "aggressiveness": a, "scores": scores}


register_point_function("experiment", _experiment_point)
register_point_function("score_curve", _score_curve_point)
