"""Content-addressed on-disk cache of completed sweep points.

Layout (one file per completed point)::

    <cache_dir>/
        <key[:2]>/<key>.json      # fan-out to keep directories small

where ``key = sha256(canonical point spec + code version tag)``.  The
version tag (:func:`~repro.version.code_version_tag`) hashes every
``.py`` file of the installed ``repro`` package, so *any* code change
invalidates the whole cache — stale results can never leak across
versions.

An entry is a header line and a column block.  The header is one JSON
line: ``format``, ``key``, ``fn``, ``params``, ``meta``, the block's
byte count (``block_bytes``) and ``result``, the value's storage
encoding (:func:`~repro.sweep.serialize.encode_stored`).  After the
newline comes the block: the region tables of every snapshot in the
result as five little-endian int64 columns.  The entry is a storage
form only; a result's identity is still its canonical JSON
(:func:`~repro.sweep.serialize.fingerprint`).

Writes are atomic (tempfile + ``os.replace``), so a sweep killed mid
write never leaves a corrupt entry, and concurrent workers writing the
same key are harmless — last writer wins with identical content.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..errors import ParseError
from ..version import code_version_tag
from .grid import SweepPoint
from .serialize import canonical_json, decode_stored, encode_stored

__all__ = ["code_version_tag", "point_key", "ResultCache"]

#: Payload format marker, bumped on incompatible layout changes.
_FORMAT = "daos-sweep-v2"


def point_key(point: SweepPoint, version_tag: Optional[str] = None) -> str:
    """The point's content address: hash of (fn, params, code version)."""
    spec = {
        "fn": point.fn,
        "params": [[name, value] for name, value in point.items],
        "version": version_tag if version_tag is not None else code_version_tag(),
    }
    return hashlib.sha256(canonical_json(spec).encode("utf-8")).hexdigest()


class ResultCache:
    """One cache directory; see the module docstring for the layout."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        """Where the result for cache key ``key`` lives (existing or not)."""
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Tuple[Any, Dict[str, Any]]]:
        """``(decoded result, meta)`` for ``key``, or None on miss.

        A corrupt or foreign file is treated as a miss (and left in
        place for post-mortems) — the sweep then simply re-runs the
        point and overwrites it.
        """
        try:
            data = self.path_for(key).read_bytes()
            newline = data.index(b"\n")
            header = json.loads(data[:newline])
        except (OSError, ValueError):
            return None
        block = memoryview(data)[newline + 1 :]
        if (
            not isinstance(header, dict)
            or header.get("format") != _FORMAT
            or header.get("key") != key
            or header.get("block_bytes") != len(block)
        ):
            return None
        try:
            return decode_stored(header["result"], block), dict(header.get("meta", {}))
        except (KeyError, ParseError, TypeError, ValueError):
            return None

    def put(
        self,
        key: str,
        value: Any,
        *,
        point: Optional[SweepPoint] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Atomically store the result ``value`` under ``key``.  A value
        the block cannot hold is a :class:`~repro.errors.ParseError`,
        raised before any file is written."""
        encoded, block = encode_stored(value)
        header = {
            "format": _FORMAT,
            "key": key,
            "fn": point.fn if point is not None else None,
            "params": [[n, v] for n, v in point.items] if point is not None else None,
            "meta": meta or {},
            "block_bytes": len(block),
            "result": encoded,
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "wb", dir=path.parent, prefix=".tmp-", suffix=".json", delete=False
        )
        try:
            with handle:
                handle.write(json.dumps(header, separators=(",", ":")).encode("utf-8"))
                handle.write(b"\n")
                handle.write(block)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        return path
