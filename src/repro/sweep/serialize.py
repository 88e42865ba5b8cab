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
``[start, end, nr_accesses, age, nr_writes]`` row per region: that row
form is the identity form every digest, ``daos sweep --out``, the journal
and the worker pipe carry.  The result cache stores the same tagged
encoding with one difference (:func:`encode_stored`): each snapshot
holds a ``[first_row, n_rows]`` reference into one block of five
little-endian int64 columns covering every snapshot of the value, so a
cache hit (:func:`decode_stored`) decodes a region table with one
``np.frombuffer`` and one ``tolist`` per column, not a JSON parse per row.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from itertools import chain
from typing import Any, Callable, List, Tuple

import numpy as np

from ..errors import ParseError
from ..monitor.snapshot import Snapshot
from ..runner.results import NormalizedResult, RunResult

__all__ = [
    "encode_value",
    "decode_value",
    "encode_stored",
    "decode_stored",
    "canonical_json",
    "fingerprint",
]

#: Tag key marking an encoded non-JSON-native object.
_TAG = "__daos__"

#: Per-type fields excluded from :func:`fingerprint`: host-time noise
#: (``wall_clock_us``) and instrumentation roll-ups (``trace_summary``),
#: so a point's identity does not depend on whether tracing ran.
VOLATILE_FIELDS = {"RunResult": {"wall_clock_us", "trace_summary"}}

#: A snapshot's region columns: the order of a row and of the block.
_COLUMNS = ("start", "end", "nr_accesses", "age", "nr_writes")

#: The block's element type: little-endian int64, whatever the host.
_BLOCK_DTYPE = np.dtype("<i8")


def _snapshot_rows(snapshot: Snapshot) -> Any:
    # One row per region, matching the recording file's compactness.
    columns = [getattr(snapshot, name) for name in _COLUMNS]
    return {
        _TAG: "Snapshot",
        "time_us": snapshot.time_us,
        "max_nr_accesses": snapshot.max_nr_accesses,
        "regions": list(map(list, zip(*columns))),
    }


def encode_value(value: Any) -> Any:
    """Encode ``value`` into JSON-serialisable primitives (tagged)."""
    return _encode(value, _snapshot_rows)


def encode_stored(value: Any) -> Tuple[Any, bytes]:
    """The cache's storage form of ``value``: its tagged encoding with
    every snapshot's region table moved into one column block, returned
    beside it.  A snapshot carries ``rows: [first_row, n_rows]`` instead
    of ``regions``; the block is the five :data:`_COLUMNS`, each covering
    every snapshot in encoding order.  A region value outside int64 is a
    :class:`ParseError`."""
    snapshots: List[Snapshot] = []
    n_rows = 0

    def reference(snapshot: Snapshot) -> Any:
        nonlocal n_rows
        snapshots.append(snapshot)
        first, n_rows = n_rows, n_rows + len(snapshot.start)
        return {
            _TAG: "Snapshot",
            "time_us": snapshot.time_us,
            "max_nr_accesses": snapshot.max_nr_accesses,
            "rows": [first, n_rows - first],
        }

    encoded = _encode(value, reference)
    columns = [
        list(chain.from_iterable(getattr(s, name) for s in snapshots)) for name in _COLUMNS
    ]
    try:
        block = np.array(columns, dtype=_BLOCK_DTYPE)
    except OverflowError:
        raise ParseError("a snapshot region value does not fit the cache's int64 block") from None
    return encoded, block.tobytes()


def _encode(value: Any, snapshot: Callable[[Snapshot], Any]) -> Any:
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
            out[key] = _encode(item, snapshot)
        return out
    if isinstance(value, list):
        return [_encode(item, snapshot) for item in value]
    if isinstance(value, tuple):
        return {_TAG: "tuple", "items": [_encode(item, snapshot) for item in value]}
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
                f.name: _encode(getattr(value, f.name), snapshot) for f in fields(RunResult)
            },
        }
    if isinstance(value, NormalizedResult):
        return {
            _TAG: "NormalizedResult",
            "fields": {
                f.name: _encode(getattr(value, f.name), snapshot)
                for f in fields(NormalizedResult)
            },
        }
    if isinstance(value, Snapshot):
        return snapshot(value)
    raise ParseError(f"cannot encode {type(value).__name__} value for the sweep cache")


def _snapshot_from_rows(value: Any) -> Snapshot:
    return Snapshot.from_rows(value["time_us"], value["regions"], value["max_nr_accesses"])


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    return _decode(value, _snapshot_from_rows)


def decode_stored(encoded: Any, block: bytes) -> Any:
    """Invert :func:`encode_stored`; a block whose size is not a whole
    table, or a row reference outside it, is a :class:`ParseError`."""
    width = len(_COLUMNS) * _BLOCK_DTYPE.itemsize
    if len(block) % width:
        raise ParseError(f"cache column block of {len(block)} bytes is not whole rows")
    table = np.frombuffer(block, dtype=_BLOCK_DTYPE).reshape(len(_COLUMNS), -1)
    start, end, nr_accesses, age, nr_writes = (tuple(column.tolist()) for column in table)
    n_rows = table.shape[1]

    def attach(value: Any) -> Snapshot:
        first, count = value["rows"]
        stop = first + count
        if not 0 <= first <= stop <= n_rows:
            raise ParseError(f"snapshot rows [{first}, {stop}) outside the {n_rows}-row block")
        rows = slice(first, stop)
        return Snapshot(
            value["time_us"],
            start[rows],
            end[rows],
            nr_accesses[rows],
            age[rows],
            nr_writes[rows],
            value["max_nr_accesses"],
        )

    return _decode(encoded, attach)


def _decode(value: Any, snapshot: Callable[[Any], Snapshot]) -> Any:
    if isinstance(value, list):
        return [_decode(item, snapshot) for item in value]
    if not isinstance(value, dict):
        return value
    tag = value.get(_TAG)
    if tag is None:
        return {key: _decode(item, snapshot) for key, item in value.items()}
    if tag == "Snapshot":
        return snapshot(value)
    if tag == "tuple":
        return tuple(_decode(item, snapshot) for item in value["items"])
    if tag == "ndarray":
        data = np.array(value["data"], dtype=np.dtype(value["dtype"]))
        return data.reshape(value["shape"])
    if tag == "RunResult":
        return RunResult(**{k: _decode(v, snapshot) for k, v in value["fields"].items()})
    if tag == "NormalizedResult":
        return NormalizedResult(
            **{k: _decode(v, snapshot) for k, v in value["fields"].items()}
        )
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
