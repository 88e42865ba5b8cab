"""Declarative sweep grids and their canonical expansion.

A grid is a recipe for a list of :class:`SweepPoint`\\ s.  Points are
*canonical*: parameters are stored as a sorted tuple of ``(name, value)``
pairs restricted to JSON scalars, so the same logical point always
produces the same cache key and the same derived seed, regardless of the
order axes were declared in or which process builds it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigError

__all__ = ["SweepPoint", "SweepGrid", "derive_seed"]

#: Parameter values must be JSON scalars so canonicalisation is trivial
#: and points survive pickling into pool workers unchanged.
_SCALARS = (str, int, float, bool, type(None))


def _check_params(params: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    items = []
    for name, value in params.items():
        if not isinstance(name, str):
            raise ConfigError(f"sweep parameter names must be strings: {name!r}")
        if not isinstance(value, _SCALARS):
            raise ConfigError(
                f"sweep parameter {name}={value!r} is not a JSON scalar "
                "(str | int | float | bool | None)"
            )
        items.append((name, value))
    return tuple(sorted(items))


def derive_seed(base_seed: int, params: Mapping[str, Any], replicate: int = 0) -> int:
    """Deterministic per-point seed: a stable hash of the canonical
    parameters mixed with ``base_seed`` and the replicate index.

    Distinct points get decorrelated seeds; the same point always gets
    the same seed, in any process, on any platform.
    """
    items = [(k, v) for k, v in _check_params(params) if k != "seed"]
    payload = json.dumps(
        {"base": int(base_seed), "replicate": int(replicate), "params": items},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % (2**31)


@dataclass(frozen=True)
class SweepPoint:
    """One canonical point: a named point function plus its parameters."""

    fn: str
    items: Tuple[Tuple[str, Any], ...]

    @classmethod
    def make(cls, fn: str, params: Mapping[str, Any]) -> "SweepPoint":
        if not fn:
            raise ConfigError("a sweep point needs a point-function name")
        return cls(fn=fn, items=_check_params(params))

    @property
    def params(self) -> Dict[str, Any]:
        return dict(self.items)

    def label(self) -> str:
        """Short human-readable identity for progress lines."""
        interesting = [
            f"{k}={v}"
            for k, v in self.items
            if k in ("workload", "config", "machine", "seed", "case")
        ]
        return f"{self.fn}({', '.join(interesting) or '…'})"


class SweepGrid:
    """An ordered list of :class:`SweepPoint`\\ s plus the recipes that
    build one (cross product of axes, or an explicit point list)."""

    def __init__(self, points: Sequence[SweepPoint]):
        if not points:
            raise ConfigError("a sweep grid needs at least one point")
        seen = set()
        for point in points:
            if point in seen:
                raise ConfigError(f"duplicate sweep point: {point.label()}")
            seen.add(point)
        self._points: List[SweepPoint] = list(points)

    # ------------------------------------------------------------------
    @classmethod
    def from_axes(
        cls,
        fn: str,
        axes: Mapping[str, Sequence[Any]],
        *,
        fixed: Optional[Mapping[str, Any]] = None,
    ) -> "SweepGrid":
        """Cross product of ``axes`` (in declaration order), each point
        augmented with the ``fixed`` parameters."""
        if not axes:
            raise ConfigError("from_axes needs at least one axis")
        names = list(axes)
        for name in names:
            if not axes[name]:
                raise ConfigError(f"axis {name!r} has no values")
        base = dict(fixed or {})
        points = []
        for combo in itertools.product(*(axes[name] for name in names)):
            params = dict(base)
            params.update(zip(names, combo))
            points.append(SweepPoint.make(fn, params))
        return cls(points)

    @classmethod
    def from_points(
        cls, fn: str, params_list: Iterable[Mapping[str, Any]]
    ) -> "SweepGrid":
        """Explicit point list — for grids whose parameters are derived
        per point (e.g. per-workload time scales) rather than a product."""
        return cls([SweepPoint.make(fn, params) for params in params_list])

    # ------------------------------------------------------------------
    def points(self) -> List[SweepPoint]:
        """The grid's points in execution order (a fresh list)."""
        return list(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def replicated(self, n_seeds: int, *, base_seed: int = 0) -> "SweepGrid":
        """Each point repeated ``n_seeds`` times with derived per-point
        seeds (see :func:`derive_seed`).  Points that already carry an
        explicit ``seed`` parameter are rejected — mixing the two
        schemes would silently correlate replicates."""
        if n_seeds < 1:
            raise ConfigError(f"need at least one seed replicate: {n_seeds}")
        out = []
        for point in self._points:
            params = point.params
            if "seed" in params:
                raise ConfigError(
                    f"point {point.label()} already has an explicit seed; "
                    "use a seed axis instead of replicated()"
                )
            for replicate in range(n_seeds):
                seeded = dict(params)
                seeded["seed"] = derive_seed(base_seed, params, replicate)
                out.append(SweepPoint.make(point.fn, seeded))
        return SweepGrid(out)
