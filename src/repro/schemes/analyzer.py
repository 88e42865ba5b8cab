"""The scheme analyzer: semantic analysis of DAMOS scheme sets.

It is the first ``daos lint`` pass, and it lives with the schemes rather
than with the linters because the experiment runner calls it on every
configuration it builds: a run loads this module, never the AST passes.

Each :class:`~repro.schemes.scheme.Scheme` is modelled as an interval
predicate over the three monitored dimensions — (size, frequency, age)
— expressed in the units the engine actually compares against: bytes,
achievable per-aggregation access *counts*, and whole aggregation
intervals.  Working in measured units is the point: a textually sane
scheme can still be empty, unreachable, or contradictory once the
``MonitorAttrs`` quantization is applied, and those are exactly the
defects this pass reports.

Checks (codes in :data:`~repro.diagnostics.CODES`):

* per scheme — empty frequency window after count quantization (DS102),
  age windows below one aggregation interval (DS103/DS110), write-
  frequency bounds without write tracking (DS104), quota and watermark
  sanity (DS140/DS141/DS142), and the hot-pageout thrash check (DS150);
* pairwise, under the engine's apply order — overlapping predicates
  with contradictory actions (DS120: hugepage∧nohugepage,
  pageout∧willneed) or opposing hints (DS121: cold∧willneed,
  lru_prio∧lru_deprio), and schemes fully shadowed by an earlier
  unrestricted scheme that claims every region first (DS130).

Entry points: :func:`analyze_schemes` for parsed schemes,
:func:`analyze_scheme_text` for Listing 1/3 text (parse failures become
DS101 diagnostics instead of aborting on the first bad line), and
:func:`check_schemes` — the fail-fast hook the experiment runner and
sweep pre-flight call.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..diagnostics import Diagnostic, Severity, make_diagnostic
from ..errors import DaosError, SchemeError
from ..monitor.attrs import MonitorAttrs
from ..units import UNLIMITED, format_time
from .actions import Action, require_paddr_support
from .parser import parse_scheme
from .scheme import Scheme

__all__ = [
    "analyze_schemes",
    "analyze_scheme_text",
    "check_schemes",
]

#: The engine skips any quota budget smaller than one page.
_MIN_USEFUL_QUOTA = 4096

#: Action pairs that contradict each other outright on the same region.
_CONFLICTS = (
    frozenset({Action.HUGEPAGE, Action.NOHUGEPAGE}),
    frozenset({Action.PAGEOUT, Action.WILLNEED}),
)

#: Action pairs that pull the same region in opposite directions
#: without being outright destructive together.
_OPPOSING = (
    frozenset({Action.COLD, Action.WILLNEED}),
    frozenset({Action.LRU_PRIO, Action.LRU_DEPRIO}),
    frozenset({Action.MIGRATE_HOT, Action.MIGRATE_COLD}),
)

#: Tolerance mirroring AccessPattern.match_mask's bound rounding slack.
_EPS = 1e-9


@dataclass(frozen=True)
class _Predicate:
    """One scheme's match set in measured units.

    ``freq``/``age`` are integer intervals (achievable access counts and
    whole aggregation intervals); ``size`` stays in bytes.  An upper
    bound of ``UNLIMITED`` means unbounded.
    """

    size: Tuple[int, int]
    freq: Tuple[int, int]
    age: Tuple[int, int]

    @property
    def empty(self) -> bool:
        return any(lo > hi for lo, hi in (self.size, self.freq, self.age))

    def overlaps(self, other: "_Predicate") -> bool:
        return all(
            max(a_lo, b_lo) <= min(a_hi, b_hi)
            for (a_lo, a_hi), (b_lo, b_hi) in (
                (self.size, other.size),
                (self.freq, other.freq),
                (self.age, other.age),
            )
        )

    def subset_of(self, other: "_Predicate") -> bool:
        return all(
            b_lo <= a_lo and a_hi <= b_hi
            for (a_lo, a_hi), (b_lo, b_hi) in (
                (self.size, other.size),
                (self.freq, other.freq),
                (self.age, other.age),
            )
        )


def _freq_counts(min_freq: float, max_freq: float, max_nr: int) -> Tuple[int, int]:
    """The achievable integer access counts in a frequency window,
    with the same rounding slack the engine's matcher applies."""
    lo = math.ceil(min_freq * max_nr - _EPS)
    hi = math.floor(max_freq * max_nr + _EPS)
    return max(0, lo), min(max_nr, hi)


def _age_interval(min_age_us: int, max_age_us: int, attrs: MonitorAttrs) -> Tuple[int, int]:
    lo = attrs.age_intervals(min_age_us)
    hi = UNLIMITED if max_age_us == UNLIMITED else attrs.age_intervals(max_age_us)
    return lo, hi


def _predicate(scheme: Scheme, attrs: MonitorAttrs) -> _Predicate:
    p = scheme.pattern
    return _Predicate(
        size=(p.min_size, p.max_size),
        freq=_freq_counts(p.min_freq, p.max_freq, attrs.max_nr_accesses),
        age=_age_interval(p.min_age_us, p.max_age_us, attrs),
    )


def _unrestricted(scheme: Scheme) -> bool:
    """Does the scheme act on *every* matching region, every interval?
    (No watermark gate, no limited quota — the precondition for it to
    shadow a later scheme.)"""
    if scheme.watermarks is not None:
        return False
    if scheme.quota is not None and scheme.quota.limited:
        return False
    if scheme.filters:
        return False
    return True


# ----------------------------------------------------------------------
# Per-scheme checks
# ----------------------------------------------------------------------
def _check_single(
    scheme: Scheme,
    pred: _Predicate,
    attrs: MonitorAttrs,
    *,
    file: Optional[str],
    line: Optional[int],
) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    p = scheme.pattern
    aggr = attrs.aggregation_interval_us

    def emit(code: str, message: str) -> None:
        out.append(
            make_diagnostic(code, message, file=file, line=line, source="schemes")
        )

    # DS102 — the frequency window contains no achievable count.
    if pred.freq[0] > pred.freq[1]:
        emit(
            "DS102",
            f"frequency window [{p.min_freq:.0%}, {p.max_freq:.0%}] contains no "
            f"achievable access count (the monitor takes "
            f"{attrs.max_nr_accesses} samples per aggregation); "
            f"the scheme can never match",
        )

    # DS103 / DS110 — age bounds below the measurement granularity.
    if 0 < p.max_age_us != UNLIMITED and p.max_age_us < aggr:
        if p.min_age_us > 0:
            emit(
                "DS103",
                f"age window [{format_time(p.min_age_us)}, "
                f"{format_time(p.max_age_us)}] lies entirely below one "
                f"aggregation interval ({format_time(aggr)}); region ages are "
                f"measured in whole intervals, so no region can ever match "
                f"the window as written",
            )
        else:
            emit(
                "DS110",
                f"max_age {format_time(p.max_age_us)} is below the aggregation "
                f"interval ({format_time(aggr)}); it quantizes to 0, matching "
                f"every region younger than one full interval",
            )
    elif 0 < p.min_age_us < aggr:
        emit(
            "DS110",
            f"min_age {format_time(p.min_age_us)} is below the aggregation "
            f"interval ({format_time(aggr)}); it quantizes to 0 and behaves "
            f"like 'min'",
        )

    # DS104 — write-frequency bounds need a write-tracking monitor.
    if p.min_wfreq > 0.0 and not attrs.track_writes:
        emit(
            "DS104",
            f"min_wfreq {p.min_wfreq:.0%} can never match: the monitor does "
            f"not track writes (attrs.track_writes is off), so every region "
            f"reads as zero writes",
        )

    # DS150 — the thrash check.
    if scheme.action is Action.PAGEOUT and p.min_freq > 0.5:
        emit(
            "DS150",
            f"paging out memory with more than 50% access frequency will "
            f"thrash (min_freq is {p.min_freq:.0%})",
        )
    elif scheme.action is Action.MIGRATE_COLD and p.min_freq > 0.5:
        emit(
            "DS150",
            f"demoting memory with more than 50% access frequency to the "
            f"slow tier will thrash (min_freq is {p.min_freq:.0%})",
        )

    # DS140 / DS141 — quota sanity.
    quota = scheme.quota
    if quota is not None:
        if quota.limited and quota.size_bytes < _MIN_USEFUL_QUOTA:
            emit(
                "DS140",
                f"quota budget of {quota.size_bytes} bytes is below one page; "
                f"the engine skips budgets under {_MIN_USEFUL_QUOTA} bytes, so "
                f"the scheme can never apply"
                + (
                    " (its priority weights are moot)"
                    if (quota.weight_nr_accesses, quota.weight_age) != (0.5, 0.5)
                    else ""
                ),
            )
        elif not quota.limited and (
            (quota.weight_nr_accesses, quota.weight_age) != (0.5, 0.5)
        ):
            emit(
                "DS141",
                f"priority weights ({quota.weight_nr_accesses:g}, "
                f"{quota.weight_age:g}) have no effect on an unlimited quota; "
                f"prioritisation only runs under budget pressure",
            )

    # DS142 — watermark band degenerating to a point.
    wm = scheme.watermarks
    if wm is not None and wm.low == wm.mid and not wm.active:
        emit(
            "DS142",
            f"watermark activation band [low={wm.low:g}, mid={wm.mid:g}] is a "
            f"single point; the scheme only ever activates at exactly that "
            f"free-memory ratio",
        )

    return out


# ----------------------------------------------------------------------
# Pairwise checks
# ----------------------------------------------------------------------
def _describe(scheme: Scheme, line: Optional[int]) -> str:
    where = f"scheme at line {line}" if line is not None else "scheme"
    return f"{where} ({scheme.describe()!r})"


def _check_pairs(
    schemes: Sequence[Scheme],
    preds: Sequence[_Predicate],
    *,
    file: Optional[str],
    lines: Sequence[Optional[int]],
) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for j in range(len(schemes)):
        for i in range(j):
            earlier, later = schemes[i], schemes[j]
            if not preds[i].overlaps(preds[j]):
                continue
            pair = frozenset({earlier.action, later.action})
            if pair in _CONFLICTS:
                out.append(
                    make_diagnostic(
                        "DS120",
                        f"overlapping schemes apply contradictory actions: "
                        f"{_describe(earlier, lines[i])} says "
                        f"{earlier.action.value}, this one says "
                        f"{later.action.value} for the same regions",
                        file=file,
                        line=lines[j],
                        source="schemes",
                    )
                )
            elif pair in _OPPOSING:
                out.append(
                    make_diagnostic(
                        "DS121",
                        f"overlapping schemes pull the same regions in "
                        f"opposite directions: {_describe(earlier, lines[i])} "
                        f"says {earlier.action.value}, this one says "
                        f"{later.action.value}",
                        file=file,
                        line=lines[j],
                        source="schemes",
                    )
                )
            # DS130 — full shadowing under apply order: every region the
            # later scheme could match is already claimed each interval
            # by an earlier unrestricted scheme that either removes the
            # memory (pageout) or performs the same action first.
            if (
                preds[j].subset_of(preds[i])
                and _unrestricted(earlier)
                and (
                    earlier.action is Action.PAGEOUT
                    or earlier.action is later.action
                )
                and later.action is not Action.STAT
            ):
                reason = (
                    "pages out every matching region first"
                    if earlier.action is Action.PAGEOUT
                    else f"already applies {earlier.action.value} to every "
                    f"region it matches"
                )
                out.append(
                    make_diagnostic(
                        "DS130",
                        f"scheme is fully shadowed: its predicate is a subset "
                        f"of {_describe(earlier, lines[i])}, which {reason}; "
                        f"this scheme is unreachable",
                        file=file,
                        line=lines[j],
                        source="schemes",
                    )
                )
    return out


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def analyze_schemes(
    schemes: Sequence[Scheme],
    attrs: Optional[MonitorAttrs] = None,
    *,
    file: Optional[str] = None,
    lines: Optional[Sequence[Optional[int]]] = None,
) -> List[Diagnostic]:
    """Analyze a parsed scheme set under ``attrs`` (defaults to the
    paper's monitor configuration).

    ``lines`` optionally maps each scheme to its 1-based source line;
    without it, diagnostics carry the scheme's 1-based position in the
    list instead.
    """
    attrs = attrs if attrs is not None else MonitorAttrs()
    if lines is None:
        lines = [index + 1 for index in range(len(schemes))]
    if len(lines) != len(schemes):
        raise SchemeError("analyze_schemes: lines and schemes differ in length")
    preds = [_predicate(scheme, attrs) for scheme in schemes]
    out: List[Diagnostic] = []
    for scheme, pred, line in zip(schemes, preds, lines):
        out.extend(_check_single(scheme, pred, attrs, file=file, line=line))
    out.extend(_check_pairs(schemes, preds, file=file, lines=list(lines)))
    return out


def analyze_scheme_text(
    text: str, *, file: Optional[str] = None
) -> Tuple[List[Scheme], List[Diagnostic]]:
    """Parse and analyze Listing 1/3 scheme text under the default
    :class:`MonitorAttrs`.

    Unlike :func:`~repro.schemes.parser.parse_schemes`, a malformed line
    does not abort the run: it becomes a DS101 diagnostic and analysis
    continues with the lines that did parse.
    """
    attrs = MonitorAttrs()
    schemes: List[Scheme] = []
    lines: List[Optional[int]] = []
    diagnostics: List[Diagnostic] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            schemes.append(parse_scheme(body, attrs))
            lines.append(lineno)
        except DaosError as exc:
            diagnostics.append(
                make_diagnostic(
                    "DS101", str(exc), file=file, line=lineno, source="schemes"
                )
            )
    diagnostics.extend(analyze_schemes(schemes, attrs, file=file, lines=lines))
    return schemes, diagnostics


def check_schemes(
    schemes: Sequence[Scheme],
    attrs: Optional[MonitorAttrs] = None,
    *,
    context: str = "schemes",
    logger: Optional[logging.Logger] = None,
    phys: bool = False,
) -> List[Diagnostic]:
    """Fail-fast gate for executors (the experiment runner and the sweep
    pre-flight).

    Raises :class:`~repro.errors.SchemeError` if any error-severity
    diagnostic is present, or if ``phys`` (a physical-address target)
    and a scheme's action has no physical form; logs warnings/info
    through ``logger`` (a ``logging.Logger``) when one is given.  Returns
    the diagnostics.
    """
    if phys:
        for scheme in schemes:
            require_paddr_support(scheme.action)
    diagnostics = analyze_schemes(schemes, attrs)
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    if logger is not None:
        for diag in diagnostics:
            if diag.severity is not Severity.ERROR:
                logger.warning("%s: %s %s: %s", context, diag.severity.value,
                               diag.code, diag.message)
    if errors:
        detail = "; ".join(f"{d.code}: {d.message}" for d in errors)
        raise SchemeError(f"{context}: scheme analysis found {len(errors)} "
                          f"error(s): {detail}")
    return diagnostics
