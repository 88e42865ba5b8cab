"""Counter and histogram aggregators over trace streams.

The bus counts events by kind on its own; these helpers are the
subscriber-side reducers for anything finer: per-field histograms
(``PageoutBatch.paged_out_pages`` distributions) and the frozen :class:`TraceSummary` a run attaches to its
:class:`~repro.runner.results.RunResult`.

Everything here is deterministic in the event stream — bucket layout is
fixed power-of-two, dict insertion order follows first appearance, and
rendered output sorts numerically — so summaries survive the sweep
subsystem's canonical-JSON round trip unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from .events import TraceEvent, event_payload

__all__ = ["TraceSummary", "FieldHistogram"]


@dataclass(frozen=True)
class TraceSummary:
    """Lifetime roll-up of one bus: how many events of which kinds.

    ``first_time_us``/``last_time_us`` are -1 when no event was emitted.
    """

    n_events: int
    first_time_us: int
    last_time_us: int
    counts: Dict[str, int]

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form (sorted count keys) for result serialization."""
        return {
            "n_events": self.n_events,
            "first_time_us": self.first_time_us,
            "last_time_us": self.last_time_us,
            "counts": {kind: self.counts[kind] for kind in sorted(self.counts)},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceSummary":
        """Invert :meth:`as_dict`."""
        return cls(
            n_events=int(data["n_events"]),
            first_time_us=int(data["first_time_us"]),
            last_time_us=int(data["last_time_us"]),
            counts={str(k): int(v) for k, v in data.get("counts", {}).items()},
        )


class FieldHistogram:
    """Power-of-two histogram over one numeric event field.

    Bucket ``k`` holds values in ``[2**(k-1), 2**k)`` (bucket 0 holds
    zero and negatives), giving a stable layout independent of the
    value range — the same shape ``damo report`` style tooling uses for
    size distributions.
    """

    def __init__(self, field_name: str) -> None:
        self.field_name = field_name
        self.buckets: Dict[int, int] = {}
        self.n_values = 0
        self.total = 0.0

    def __call__(self, event: TraceEvent) -> None:
        """Record the event's field value (the subscriber entry point)."""
        value = event_payload(event).get(self.field_name)
        if value is None:
            return
        self.add(float(value))

    def add(self, value: float) -> None:
        """Record one value directly."""
        bucket = 0 if value < 1 else int(value).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.n_values += 1
        self.total += value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the recorded values (0.0 when empty)."""
        if not self.n_values:
            return 0.0
        return self.total / self.n_values

    def render(self, width: int = 40) -> str:
        """ASCII rows ``[lo, hi) count ###`` sorted by bucket."""
        if not self.buckets:
            return "(no samples)"
        peak = max(self.buckets.values())
        rows = []
        for bucket in sorted(self.buckets):
            lo = 0 if bucket == 0 else 2 ** (bucket - 1)
            hi = 2**bucket
            count = self.buckets[bucket]
            bar = "#" * max(1, round(width * count / peak))
            rows.append(f"[{lo:>10d}, {hi:>10d})  {count:>8d}  {bar}")
        return "\n".join(rows)
