"""Static analysis for the DAOS reproduction (``daos lint``).

Three passes, one diagnostic currency (:mod:`repro.diagnostics`):

* :mod:`repro.schemes.analyzer` — semantic analysis of DAMOS scheme
  sets (the paper's ``(size, freq, age) -> action`` interface), catching
  predicates that are empty, unreachable, or contradictory once the
  monitor's quantization is applied.  It lives with the schemes because
  every run calls it; this package re-exports it;
* :mod:`repro.lint.astlint` — a linter over the Python source tree:
  the ambient-state reads (wall clocks, global RNGs, environment,
  unordered sets) that would break the sweep subsystem's byte-identity
  and cache-key invariants, and the package's layer table (DL401);
* :mod:`repro.lint.dataflow` — the vectorized-state dataflow pass.

Every pass reports :class:`~repro.diagnostics.Diagnostic` objects with
stable codes.  The one exception mechanism is an inline
``# daos-lint: disable=CODE`` comment on the offending line; see
DESIGN.md §9 for the code table and the suppression syntax.
"""

from ..diagnostics import (
    CODES,
    Diagnostic,
    Severity,
    has_errors,
    render_json,
    render_text,
    summarize,
)
from ..schemes.analyzer import analyze_scheme_text, analyze_schemes, check_schemes
from .astlint import lint_file, lint_paths, lint_source
from .dataflow import dataflow_source

__all__ = [
    "CODES",
    "Diagnostic",
    "Severity",
    "dataflow_source",
    "analyze_schemes",
    "analyze_scheme_text",
    "check_schemes",
    "lint_source",
    "lint_file",
    "lint_paths",
    "render_text",
    "render_json",
    "has_errors",
    "summarize",
]
