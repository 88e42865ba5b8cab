"""The text scheme format of paper Listings 1 and 3.

Each non-comment line has seven whitespace-separated fields::

    <min_size> <max_size> <min_freq> <max_freq> <min_age> <max_age> <action>

* sizes accept ``4K``, ``2MB``, ``1.5GiB``, bare byte counts, and the
  keywords ``min`` / ``max``;
* frequencies accept percentages (``80%``), bare per-aggregation access
  counts (``5`` — resolved against the monitor's samples-per-aggregation),
  and ``min`` / ``max``;
* ages accept durations (``5s``, ``2m``, ``100ms``) and ``min`` / ``max``;
* actions accept the Table 1 names plus the paper's listing aliases
  (``page_out``, ``thp``, ``nothp``).

Example — the paper's Listing 3, verbatim::

    # size  frequency  age  action
    min max 5 max min max hugepage
    2M max min min 7s max nohugepage
    4K max min min 5s max pageout
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ParseError
from ..monitor.attrs import MonitorAttrs
from ..units import (
    UNLIMITED,
    decode_raw_count,
    format_size,
    format_time,
    parse_percent,
    parse_size,
    parse_time,
)
from .actions import Action
from .scheme import AccessPattern, Scheme

__all__ = ["parse_scheme", "parse_schemes", "format_scheme"]


def _resolve_freq(token: str, max_nr_accesses: int) -> float:
    """Frequency field → fraction in [0, 1]; bare counts are scaled by
    the monitor's samples-per-aggregation."""
    value = parse_percent(token)
    if value >= 0:
        return float(value)
    raw = decode_raw_count(value)
    if max_nr_accesses <= 0:
        raise ParseError("cannot resolve a raw access count without attrs")
    return min(1.0, raw / max_nr_accesses)


def parse_scheme(line: str, attrs: Optional[MonitorAttrs] = None) -> Scheme:
    """Parse one scheme line."""
    attrs = attrs if attrs is not None else MonitorAttrs()
    body = line.split("#", 1)[0].strip()
    fields = body.split()
    if len(fields) != 7:
        raise ParseError(
            f"a scheme needs exactly 7 fields, got {len(fields)}: {line!r}"
        )
    (min_sz, max_sz, min_fr, max_fr, min_age, max_age, action) = fields
    pattern = AccessPattern(
        min_size=parse_size(min_sz),
        max_size=parse_size(max_sz),
        min_freq=_resolve_freq(min_fr, attrs.max_nr_accesses),
        max_freq=_resolve_freq(max_fr, attrs.max_nr_accesses),
        min_age_us=parse_time(min_age),
        max_age_us=parse_time(max_age),
    )
    return Scheme(pattern=pattern, action=Action.parse(action))


def parse_schemes(text: str, attrs: Optional[MonitorAttrs] = None) -> List[Scheme]:
    """Parse a multi-line scheme description, skipping comments/blanks."""
    schemes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            schemes.append(parse_scheme(body, attrs))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return schemes


def format_scheme(scheme: Scheme, attrs: Optional[MonitorAttrs] = None) -> str:
    """Render a scheme back into the 7-field text form.

    ``parse_scheme(format_scheme(s))`` reproduces ``s`` (round-trip
    property, covered by tests).
    """
    p = scheme.pattern

    def freq(value: float) -> str:
        if value == 0.0:
            return "min"
        if value == 1.0:
            return "max"
        return f"{value * 100:g}%"

    def size(value: int) -> str:
        if value == 0:
            return "min"
        if value == UNLIMITED:
            return "max"
        return format_size(value)

    def age(value: int) -> str:
        if value == 0:
            return "min"
        if value == UNLIMITED:
            return "max"
        return format_time(value)

    return (
        f"{size(p.min_size)} {size(p.max_size)} "
        f"{freq(p.min_freq)} {freq(p.max_freq)} "
        f"{age(p.min_age_us)} {age(p.max_age_us)} "
        f"{scheme.action.value}"
    )
