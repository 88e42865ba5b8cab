"""Content-addressed on-disk cache of completed sweep points.

Layout (all JSON, one file per completed point)::

    <cache_dir>/
        <key[:2]>/<key>.json      # fan-out to keep directories small

where ``key = sha256(canonical point spec + code version tag)``.  The
version tag (:func:`~repro.version.code_version_tag`) hashes every
``.py`` file of the installed ``repro`` package, so *any* code change
invalidates the whole cache — stale results can never leak across
versions.

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
from .serialize import canonical_json, decode_value

__all__ = ["code_version_tag", "point_key", "ResultCache"]

#: Payload format marker, bumped on incompatible layout changes.
_FORMAT = "daos-sweep-v1"


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

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Tuple[Any, Dict[str, Any]]]:
        """``(decoded result, meta)`` for ``key``, or None on miss.

        A corrupt or foreign file is treated as a miss (and left in
        place for post-mortems) — the sweep then simply re-runs the
        point and overwrites it.
        """
        path = self.path_for(key)
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if document.get("format") != _FORMAT or document.get("key") != key:
            return None
        try:
            return decode_value(document["result"]), dict(document.get("meta", {}))
        except (KeyError, ParseError, TypeError):
            return None

    def put(
        self,
        key: str,
        encoded_result: Any,
        *,
        point: Optional[SweepPoint] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Atomically store an *encoded* result under ``key``."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "format": _FORMAT,
            "key": key,
            "fn": point.fn if point is not None else None,
            "params": [[n, v] for n, v in point.items] if point is not None else None,
            "meta": meta or {},
            "result": encoded_result,
        }
        handle = tempfile.NamedTemporaryFile(
            "w", dir=path.parent, prefix=".tmp-", suffix=".json", delete=False
        )
        try:
            with handle:
                handle.write(json.dumps(document, separators=(",", ":")))
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------
    def count(self) -> int:
        """Number of cached entries."""
        return sum(1 for _ in self.root.glob("*/*.json"))
