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
stable codes; see DESIGN.md §9 for the code table and suppression
syntax.
"""

from ..diagnostics import (
    CODES,
    Diagnostic,
    Severity,
    diagnostics_from_json,
    has_errors,
    max_severity,
    render_json,
    render_text,
    summarize,
)
from ..schemes.analyzer import analyze_scheme_text, analyze_schemes, check_schemes
from .astlint import LintConfig, lint_file, lint_paths, lint_source
from .baseline import (
    DEFAULT_BASELINE_NAME,
    apply_baseline,
    baseline_entry,
    load_baseline,
    write_baseline,
)
from .dataflow import DataflowConfig, dataflow_source

__all__ = [
    "CODES",
    "Diagnostic",
    "Severity",
    "LintConfig",
    "DataflowConfig",
    "dataflow_source",
    "analyze_schemes",
    "analyze_scheme_text",
    "check_schemes",
    "lint_source",
    "lint_file",
    "lint_paths",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
    "baseline_entry",
    "DEFAULT_BASELINE_NAME",
    "render_text",
    "render_json",
    "diagnostics_from_json",
    "has_errors",
    "max_severity",
    "summarize",
]
