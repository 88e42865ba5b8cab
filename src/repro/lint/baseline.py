"""Committed lint baselines: grandfather findings without suppressing
the code that detects them.

A baseline entry identifies a diagnostic by ``(file, code, text)``
where ``text`` is the stripped source line the diagnostic points at —
robust to line-number drift from unrelated edits, invalidated the
moment the offending line itself changes.  Matching is multiset
semantics: two identical findings need two baseline entries.

``daos lint --write-baseline`` regenerates the file from the current
findings; the committed baseline at the repo root
(``.daos-lint-baseline.json``) is empty because ``src/repro`` lints
clean — it exists so the workflow (and its format) stay exercised.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..diagnostics import Diagnostic
from ..errors import ParseError

__all__ = [
    "DEFAULT_BASELINE_NAME",
    "baseline_entry",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
]

_FORMAT = "daos-lint-baseline-v1"

DEFAULT_BASELINE_NAME = ".daos-lint-baseline.json"


def _line_text(diag: Diagnostic, root: Optional[Path]) -> str:
    """The stripped source line a diagnostic points at ('' if unknown)."""
    if diag.file is None or diag.line is None:
        return ""
    path = Path(diag.file)
    if not path.is_absolute() and root is not None:
        path = root / path
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        return lines[diag.line - 1].strip()
    except (OSError, IndexError):
        return ""


def baseline_entry(diag: Diagnostic, *, root: Optional[Path] = None) -> Dict[str, str]:
    return {
        "file": diag.file or "",
        "code": diag.code,
        "text": _line_text(diag, root),
    }


def load_baseline(path: Union[str, Path]) -> List[Dict[str, str]]:
    """Entries of a baseline file; a missing file is an empty baseline."""
    path = Path(path)
    if not path.exists():
        return []
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ParseError(f"baseline {path} is not valid JSON: {exc}") from None
    if not isinstance(document, dict) or document.get("format") != _FORMAT:
        raise ParseError(f"baseline {path} has unknown format "
                         f"{document.get('format')!r}"
                         if isinstance(document, dict)
                         else f"baseline {path} is not a JSON object")
    entries = document.get("entries", [])
    out = []
    for entry in entries:
        if not isinstance(entry, dict) or "file" not in entry or "code" not in entry:
            raise ParseError(f"baseline {path} has a malformed entry: {entry!r}")
        out.append(
            {
                "file": str(entry["file"]),
                "code": str(entry["code"]),
                "text": str(entry.get("text", "")),
            }
        )
    return out


def write_baseline(
    path: Union[str, Path],
    diagnostics: Sequence[Diagnostic],
    *,
    root: Optional[Path] = None,
) -> Path:
    """Write ``diagnostics`` as the new baseline at ``path``."""
    path = Path(path)
    entries = sorted(
        (baseline_entry(diag, root=root) for diag in diagnostics),
        key=lambda e: (e["file"], e["code"], e["text"]),
    )
    document = {"format": _FORMAT, "entries": entries}
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def apply_baseline(
    diagnostics: Sequence[Diagnostic],
    entries: Sequence[Dict[str, str]],
    *,
    root: Optional[Path] = None,
) -> Tuple[List[Diagnostic], int]:
    """Split findings against a baseline.

    Returns ``(kept, n_baselined)`` — ``kept`` preserves input order;
    each baseline entry absorbs at most one matching finding.
    """
    pool: Dict[Tuple[str, str, str], int] = {}
    for entry in entries:
        key = (entry["file"], entry["code"], entry["text"])
        pool[key] = pool.get(key, 0) + 1
    kept: List[Diagnostic] = []
    absorbed = 0
    for diag in diagnostics:
        key = (diag.file or "", diag.code, _line_text(diag, root))
        if pool.get(key, 0) > 0:
            pool[key] -= 1
            absorbed += 1
        else:
            kept.append(diag)
    return kept, absorbed
