"""Diagnostics: the common currency of every lint pass.

Every finding — from the scheme semantic analyzer
(:mod:`repro.schemes.analyzer`) and the ``daos lint`` source passes
(:mod:`repro.lint.astlint`, :mod:`repro.lint.dataflow`) — is a
:class:`Diagnostic` with a *stable code*, a severity, and an optional
source location.  Codes never change meaning across versions; retired
codes are not reused.  A base module: the analyzer sits with the
schemes, far below the linters, and both report in this currency.

Code space
----------

========  ==========================================================
Range     Pass
========  ==========================================================
DS1xx     Scheme semantic analysis (DAOS Schemes)
DT2xx     Determinism AST lint (DAOS deTerminism)
DF3xx     Vectorized-state dataflow lint (DAOS dataFlow)
DL4xx     Package layering (DAOS Layers)
========  ==========================================================

The full table lives in :data:`CODES` (and DESIGN.md §9).  Reporters:
:func:`render_text` for humans, :func:`render_json` for machines.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from .errors import ParseError

__all__ = [
    "Severity",
    "Diagnostic",
    "CODES",
    "has_errors",
    "render_text",
    "render_json",
    "summarize",
]

#: JSON document format marker (bumped on incompatible layout changes).
JSON_FORMAT = "daos-lint-v1"


class Severity(enum.Enum):
    """Diagnostic severity; only ``ERROR`` fails a lint run."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"


#: Stable code registry: code -> (default severity, one-line title).
#: This is the authoritative table (mirrored in DESIGN.md §9).
CODES: Dict[str, tuple] = {
    # --- scheme semantic analysis (pass 1) ----------------------------
    "DS101": (Severity.ERROR, "scheme line does not parse"),
    "DS102": (Severity.ERROR, "frequency window contains no achievable access count"),
    "DS103": (Severity.ERROR, "age window lies below one aggregation interval"),
    "DS104": (Severity.ERROR, "write-frequency bound without write tracking"),
    "DS110": (Severity.WARNING, "min_age quantizes to zero aggregation intervals"),
    "DS120": (Severity.ERROR, "overlapping schemes apply contradictory actions"),
    "DS121": (Severity.WARNING, "overlapping schemes apply opposing hints"),
    "DS130": (Severity.ERROR, "scheme fully shadowed by an earlier scheme"),
    "DS140": (Severity.ERROR, "quota budget below one page"),
    "DS141": (Severity.WARNING, "priority weights on an unlimited quota"),
    "DS142": (Severity.WARNING, "watermark activation band is a single point"),
    "DS150": (Severity.ERROR, "paging out hot memory will thrash"),
    # --- determinism AST lint (pass 2) --------------------------------
    "DT200": (Severity.ERROR, "file does not parse"),
    "DT201": (Severity.ERROR, "wall-clock time source"),
    "DT202": (Severity.ERROR, "global random-module RNG"),
    "DT203": (Severity.ERROR, "seedless or global NumPy RNG"),
    "DT204": (Severity.ERROR, "environment read outside the CLI boundary"),
    "DT205": (Severity.ERROR, "iteration over an unordered set"),
    "DT206": (Severity.ERROR, "mutable default argument"),
    "DT207": (Severity.WARNING, "None default with non-Optional annotation"),
    # --- vectorized-state dataflow lint (pass 3) -----------------------
    "DF301": (Severity.ERROR, "column rebound without a generation bump"),
    "DF302": (Severity.ERROR, "ndarray slice view stored across method boundaries"),
    "DF303": (Severity.ERROR, "in-place op on aliasing slices of one array"),
    "DF310": (Severity.ERROR, "unit-confused arithmetic between suffixed names"),
    "DF320": (Severity.WARNING, "function mutates a module global (spawn hazard)"),
    "DF330": (Severity.ERROR, "broad except handler swallows the exception"),
    # --- package layering (astlint) -------------------------------------
    "DL401": (Severity.ERROR, "import points up the layer table"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a lint pass."""

    code: str
    severity: Severity
    message: str
    #: Source file (scheme file or Python module), if any.
    file: Optional[str] = None
    #: 1-based line in ``file`` (scheme line or AST lineno).
    line: Optional[int] = None
    #: 1-based column, when the AST provides one.
    column: Optional[int] = None
    #: Which pass produced it: ``"schemes"`` or ``"ast"``.
    source: str = "schemes"

    def location(self) -> str:
        """``file:line:col`` with missing parts elided."""
        parts: List[str] = [self.file or "<schemes>"]
        if self.line is not None:
            parts.append(str(self.line))
            if self.column is not None:
                parts.append(str(self.column))
        return ":".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        """The diagnostic as one JSON-ready record of :func:`render_json`."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "column": self.column,
            "source": self.source,
        }


def make_diagnostic(
    code: str,
    message: str,
    *,
    file: Optional[str] = None,
    line: Optional[int] = None,
    column: Optional[int] = None,
    source: str = "schemes",
) -> Diagnostic:
    """A diagnostic with the code's registered default severity."""
    try:
        severity, _title = CODES[code]
    except KeyError:
        raise ParseError(f"unknown diagnostic code {code!r}") from None
    return Diagnostic(
        code=code,
        severity=severity,
        message=message,
        file=file,
        line=line,
        column=column,
        source=source,
    )


# ----------------------------------------------------------------------
# Aggregation helpers
# ----------------------------------------------------------------------
def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    """Whether any finding has error severity (the lint exit-1 rule)."""
    return any(d.severity is Severity.ERROR for d in diagnostics)


def summarize(diagnostics: Sequence[Diagnostic]) -> Dict[str, int]:
    """``{"error": n, "warning": n, "info": n}`` counts."""
    counts = {severity.value: 0 for severity in Severity}
    for diag in diagnostics:
        counts[diag.severity.value] += 1
    return counts


def _sort_key(diag: Diagnostic) -> tuple:
    return (
        diag.file or "",
        diag.line if diag.line is not None else 0,
        diag.column if diag.column is not None else 0,
        diag.code,
        diag.message,
    )


def sorted_diagnostics(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Stable reporting order: by location, then code."""
    return sorted(diagnostics, key=_sort_key)


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def render_text(diagnostics: Sequence[Diagnostic]) -> str:
    """One ``location: severity CODE: message`` line per diagnostic,
    plus a summary trailer."""
    lines = [
        f"{diag.location()}: {diag.severity.value} {diag.code}: {diag.message}"
        for diag in sorted_diagnostics(diagnostics)
    ]
    counts = summarize(diagnostics)
    lines.append(
        f"{len(diagnostics)} diagnostic(s): {counts['error']} error(s), "
        f"{counts['warning']} warning(s), {counts['info']} info"
    )
    return "\n".join(lines)


def render_json(diagnostics: Sequence[Diagnostic]) -> str:
    """Machine-readable report: format tag, severity counts and the
    sorted diagnostics as :meth:`Diagnostic.to_dict` records."""
    document = {
        "format": JSON_FORMAT,
        "summary": summarize(diagnostics),
        "diagnostics": [d.to_dict() for d in sorted_diagnostics(diagnostics)],
    }
    return json.dumps(document, indent=2, sort_keys=True)

