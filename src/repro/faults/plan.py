"""Fault plans: an ordered, seeded set of fault specs.

A plan is loaded from a TOML or JSON file (or built programmatically)::

    # plan.toml
    seed = 11
    [[faults]]
    kind = "swap_full"
    start = "2s"
    end = "4s"

    [[faults]]
    kind = "flaky_bits"
    probability = 0.25

The plan's ``seed`` feeds every injection decision through per-spec RNG
substreams (:mod:`repro.faults.injector`), so the same plan against the
same seeded run replays to a byte-identical trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Tuple, Union

from ..errors import FaultError
from .spec import FaultSpec

__all__ = ["FaultPlan", "load_fault_plan"]

try:  # Python 3.11+; TOML plans degrade to a clear error below it.
    import tomllib as _toml
except ImportError:  # pragma: no cover - depends on interpreter version
    _toml = None


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered collection of :class:`FaultSpec`."""

    specs: Tuple[FaultSpec, ...] = ()
    #: Seed of the injector's decision RNG (independent of the run seed:
    #: the same chaos can be replayed against different workload seeds).
    seed: int = 0
    #: Optional human label (the run report's ``faults`` line).
    name: str = ""

    def __post_init__(self):
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise FaultError(f"plan entries must be FaultSpec, got {spec!r}")

    def __len__(self) -> int:
        return len(self.specs)

    def kinds(self) -> List[str]:
        """Distinct fault kinds in plan order."""
        out: List[str] = []
        for spec in self.specs:
            if spec.kind not in out:
                out.append(spec.kind)
        return out

    def only(self, *kinds: str) -> "FaultPlan":
        """The sub-plan containing just the given kinds (hook scoping:
        the sweep runner applies only ``worker_crash`` specs)."""
        return FaultPlan(
            specs=tuple(s for s in self.specs if s.kind in kinds),
            seed=self.seed,
            name=self.name,
        )

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        specs: Iterable[Union[FaultSpec, Mapping[str, Any]]],
        *,
        seed: int = 0,
        name: str = "",
    ) -> "FaultPlan":
        """Programmatic constructor accepting specs or spec dicts."""
        out = tuple(
            s if isinstance(s, FaultSpec) else FaultSpec.from_dict(s) for s in specs
        )
        return cls(specs=out, seed=int(seed), name=name)

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "FaultPlan":
        """Build a plan from a parsed plan-file document."""
        if not isinstance(document, Mapping):
            raise FaultError(
                f"fault plan must be a table/object, got {type(document).__name__}"
            )
        unknown = sorted(set(document) - {"seed", "name", "faults"})
        if unknown:
            raise FaultError(f"unknown fault-plan key(s): {unknown}")
        rows = document.get("faults", [])
        if not isinstance(rows, list):
            raise FaultError("'faults' must be an array of fault tables")
        if not rows:
            raise FaultError("fault plan declares no faults")
        seed = document.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise FaultError(f"plan seed must be an integer: {seed!r}")
        name = document.get("name", "")
        if not isinstance(name, str):
            raise FaultError(f"plan name must be a string: {name!r}")
        return cls.build(rows, seed=seed, name=name)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-scalar form (round-trips through :meth:`from_dict`)."""
        return {
            "seed": self.seed,
            "name": self.name,
            "faults": [spec.to_dict() for spec in self.specs],
        }


def load_fault_plan(path: Union[str, Path]) -> FaultPlan:
    """Load a plan file; the format follows the extension (.toml / .json)."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise FaultError(f"cannot read fault plan {path}: {exc}") from exc
    suffix = path.suffix.lower()
    if suffix == ".toml":
        if _toml is None:
            raise FaultError(
                f"{path}: TOML plans need Python 3.11+ (tomllib); "
                "use a .json plan on this interpreter"
            )
        try:
            document = _toml.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, _toml.TOMLDecodeError) as exc:
            raise FaultError(f"{path}: malformed TOML: {exc}") from exc
    elif suffix == ".json":
        try:
            document = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FaultError(f"{path}: malformed JSON: {exc}") from exc
    else:
        raise FaultError(
            f"{path}: unknown fault-plan extension {suffix!r} (.toml | .json)"
        )
    plan = FaultPlan.from_dict(document)
    if not plan.name:
        plan = FaultPlan(specs=plan.specs, seed=plan.seed, name=path.stem)
    return plan
