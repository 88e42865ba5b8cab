"""Canonical serialization of sweep results.

The cache and the determinism guarantees both hang off one property:
encoding a result value must be *canonical* — the same value always
produces the same JSON text, in any process.  ``json`` gives us that for
free (shortest-roundtrip float repr, sorted keys), so a result's
identity is simply the SHA-256 of its canonical encoding.

``RunResult.wall_clock_us`` is the one *volatile* field: it measures the
host, not the simulation, so :func:`fingerprint` strips it before
hashing.  Cached payloads keep it (it is useful data), which is why the
cache stores the full encoding and fingerprints are computed separately.

A :class:`~repro.monitor.snapshot.Snapshot` encodes its columns as one
``[start, end, nr_accesses, age, nr_writes]`` row per region and decodes
the rows straight back into columns: a cache hit builds no region objects.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from typing import Any

import numpy as np

from ..errors import ParseError
from ..monitor.snapshot import Snapshot
from ..runner.results import NormalizedResult, RunResult

__all__ = ["encode_value", "decode_value", "canonical_json", "fingerprint"]

#: Tag key marking an encoded non-JSON-native object.
_TAG = "__daos__"

#: Per-type fields excluded from :func:`fingerprint`: host-time noise
#: (``wall_clock_us``) and instrumentation roll-ups (``trace_summary``),
#: so a point's identity does not depend on whether tracing ran.
VOLATILE_FIELDS = {"RunResult": {"wall_clock_us", "trace_summary"}}


def encode_value(value: Any) -> Any:
    """Encode ``value`` into JSON-serialisable primitives (tagged)."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ParseError(f"cannot encode non-string dict key {key!r}")
            if key == _TAG:
                raise ParseError(f"dict key {_TAG!r} is reserved for encoding tags")
            out[key] = encode_value(item)
        return out
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, tuple):
        return {_TAG: "tuple", "items": [encode_value(item) for item in value]}
    if isinstance(value, np.ndarray):
        return {
            _TAG: "ndarray",
            "dtype": str(value.dtype),
            "shape": list(value.shape),
            "data": value.ravel().tolist(),
        }
    if isinstance(value, RunResult):
        return {
            _TAG: "RunResult",
            "fields": {
                f.name: encode_value(getattr(value, f.name)) for f in fields(RunResult)
            },
        }
    if isinstance(value, NormalizedResult):
        return {
            _TAG: "NormalizedResult",
            "fields": {
                f.name: encode_value(getattr(value, f.name))
                for f in fields(NormalizedResult)
            },
        }
    if isinstance(value, Snapshot):
        # One row per region, matching the recording file's compactness.
        columns = (value.start, value.end, value.nr_accesses, value.age, value.nr_writes)
        return {
            _TAG: "Snapshot",
            "time_us": value.time_us,
            "max_nr_accesses": value.max_nr_accesses,
            "regions": list(map(list, zip(*columns))),
        }
    raise ParseError(f"cannot encode {type(value).__name__} value for the sweep cache")


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if not isinstance(value, dict):
        return value
    tag = value.get(_TAG)
    if tag is None:
        return {key: decode_value(item) for key, item in value.items()}
    if tag == "tuple":
        return tuple(decode_value(item) for item in value["items"])
    if tag == "ndarray":
        data = np.array(value["data"], dtype=np.dtype(value["dtype"]))
        return data.reshape(value["shape"])
    if tag == "RunResult":
        return RunResult(**{k: decode_value(v) for k, v in value["fields"].items()})
    if tag == "NormalizedResult":
        return NormalizedResult(
            **{k: decode_value(v) for k, v in value["fields"].items()}
        )
    if tag == "Snapshot":
        return Snapshot.from_rows(value["time_us"], value["regions"], value["max_nr_accesses"])
    raise ParseError(f"unknown encoding tag {tag!r} in sweep cache payload")


def canonical_json(value: Any) -> str:
    """The canonical text form of an *encoded* value."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _strip_volatile(encoded: Any) -> Any:
    if isinstance(encoded, list):
        return [_strip_volatile(item) for item in encoded]
    if isinstance(encoded, dict):
        tag = encoded.get(_TAG)
        volatile = VOLATILE_FIELDS.get(tag, ())
        if volatile and "fields" in encoded:
            kept = {
                k: _strip_volatile(v)
                for k, v in encoded["fields"].items()
                if k not in volatile
            }
            return {_TAG: tag, "fields": kept}
        return {key: _strip_volatile(item) for key, item in encoded.items()}
    return encoded


def fingerprint(value: Any) -> str:
    """SHA-256 identity of a result value, ignoring volatile (host-time)
    fields — two runs of the same point must produce equal fingerprints
    whether they ran in-process, in a pool worker, or on another day.

    The one value digest: ``value`` is anything :func:`encode_value`
    takes (a :class:`~repro.runner.results.RunResult`, a plain dict) or
    an object with a ``canonical_dict()`` — a
    :class:`~repro.fleet.result.FleetResult` or a
    :class:`~repro.sweep.runner.SweepReport` — whose canonical dict
    already leaves out volatile fields and code-version keys.
    """
    canonical_dict = getattr(value, "canonical_dict", None)
    encoded = canonical_dict() if canonical_dict is not None else encode_value(value)
    text = canonical_json(_strip_volatile(encoded))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
