"""The code version tag: which source tree produced a value.

:func:`code_version_tag` hashes every ``.py`` file of the ``repro``
package.  Sweep cache keys embed it, so any code change invalidates the
whole cache, and checkpoint headers carry it, so ``daos resume`` can
refuse state written by other code.  ``REPRO_SWEEP_VERSION_TAG``
overrides the tag (tests pin it; deployments can use a release id).
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Optional

__all__ = ["code_version_tag"]

_version_tag_cache: Optional[str] = None


def code_version_tag() -> str:
    """Hash of the ``repro`` package's source files (cached per process)."""
    # The version tag is a pure function of the installed sources, so
    # every spawn-pool worker recomputes the identical value; caching
    # it per process only saves the rehash.
    global _version_tag_cache  # daos-lint: disable=DF320
    # The documented cache-pinning knob (tests and deployments set it);
    # it feeds the cache key, never a result value.
    override = os.environ.get("REPRO_SWEEP_VERSION_TAG")  # daos-lint: disable=DT204
    if override:
        return override
    if _version_tag_cache is None:
        package_root = Path(__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _version_tag_cache = digest.hexdigest()[:16]
    return _version_tag_cache
