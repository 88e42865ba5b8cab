"""Canonical JSONL encoding of trace streams.

One event per line: the event's fields plus ``"ev": kind``, serialised
with sorted keys and compact separators — the same canonical-JSON
convention the sweep cache uses — so a seeded run's trace file is
byte-identical across invocations, processes, and machines.

:func:`validate_trace_file` is the schema gate the CI trace-smoke job
runs: every line must name a registered event type, carry exactly its
fields with the right scalar types, and timestamps must be monotone
non-decreasing in simulation time.
"""

from __future__ import annotations

import json
import operator
import typing
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, TextIO, Type, Union

from ..errors import ParseError
from .aggregate import TraceSummary
from .events import EVENT_TYPES, TraceEvent

__all__ = [
    "JsonlTraceSink",
    "encode_event",
    "decode_event",
    "read_trace",
    "validate_trace_file",
]

#: Reserved key naming the event type on the wire.
_KIND_KEY = "ev"


def encode_event(event: TraceEvent) -> str:
    """One canonical JSONL line (no trailing newline) for ``event``.

    Byte-identical to ``json.dumps({**payload, "ev": kind},
    sort_keys=True, separators=(",", ":"))`` but via a per-class
    precompiled encoder — sinks sit on the per-event hot path.
    """
    cls = type(event)
    encoder = cls.__dict__.get("_trace_encoder")
    if encoder is None:
        encoder = _compile_encoder(cls)
    return encoder(event)


def _compile_encoder(cls: Type[TraceEvent]) -> Callable[[TraceEvent], str]:
    """Build (and cache on ``cls``) a closure rendering the canonical
    line: key order and scalar formatting are fixed per class, so each
    call only formats the field values.

    All-numeric classes (most of the hot ones) compile down to a single
    ``%``-format over an :func:`operator.attrgetter` tuple — ``repr`` of
    a finite int/float is exactly its canonical JSON rendering.  Classes
    with str/bool fields take the segment loop, deferring to
    :func:`json.dumps` per string for exact escaping.
    """
    types = _field_types(cls)
    names = sorted(list(types) + [_KIND_KEY])

    if all(types[n] in (int, float) for n in names if n != _KIND_KEY):
        template = ",".join(
            f'"{_KIND_KEY}":"{cls.kind}"' if n == _KIND_KEY else f'"{n}":%r'
            for n in names
        )
        template = "{" + template + "}"
        getter = operator.attrgetter(*[n for n in names if n != _KIND_KEY])

        def encode(event: TraceEvent) -> str:
            return template % getter(event)

    else:
        segments = []
        for index, name in enumerate(names):
            comma = "," if index else ""
            if name == _KIND_KEY:
                segments.append((f'{comma}"{_KIND_KEY}":"{cls.kind}"', None, None))
            else:
                segments.append((f'{comma}"{name}":', name, types[name]))
        segments = tuple(segments)

        def encode(event: TraceEvent, _dumps: Callable[[str], str] = json.dumps) -> str:
            parts = ["{"]
            for prefix, attr, scalar in segments:
                parts.append(prefix)
                if attr is None:
                    continue
                value = getattr(event, attr)
                if scalar is int:
                    parts.append(str(value))
                elif scalar is bool:
                    parts.append("true" if value else "false")
                else:  # str and float take json.dumps for exact escaping
                    parts.append(_dumps(value))
            parts.append("}")
            return "".join(parts)

    cls._trace_encoder = staticmethod(encode)  # type: ignore[attr-defined]
    return encode


def _field_types(cls: Type[TraceEvent]) -> Dict[str, type]:
    """Resolved scalar type per dataclass field (cached on the class)."""
    cached = cls.__dict__.get("_trace_field_types")
    if cached is None:
        hints = typing.get_type_hints(cls)
        cached = {
            name: hint
            for name, hint in hints.items()
            if hint in (int, float, str, bool)
        }
        cls._trace_field_types = cached  # type: ignore[attr-defined]
    return cached


def decode_event(text: str) -> TraceEvent:
    """Parse one JSONL line back into its typed event.

    Raises :class:`~repro.errors.ParseError` on unknown kinds, missing
    or extra fields, and scalar type mismatches — the schema contract.
    """
    try:
        row = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"trace line is not valid JSON: {exc}") from exc
    if not isinstance(row, dict):
        raise ParseError(f"trace line must be a JSON object, got {type(row).__name__}")
    kind = row.pop(_KIND_KEY, None)
    if kind is None:
        raise ParseError(f"trace line lacks the {_KIND_KEY!r} kind key")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        known = ", ".join(sorted(EVENT_TYPES))
        raise ParseError(f"unknown trace event kind {kind!r} (known: {known})")
    types = _field_types(cls)
    extra = sorted(set(row) - set(types))
    if extra:
        raise ParseError(f"{kind} line carries unknown field(s): {extra}")
    for name, expected in types.items():
        if name not in row:
            # Fall through to the constructor, which supplies declared
            # defaults and raises on genuinely missing required fields.
            continue
        value = row[name]
        if expected is float:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif expected is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, expected)
        if not ok:
            raise ParseError(
                f"{kind}.{name} must be {expected.__name__}, "
                f"got {type(value).__name__} ({value!r})"
            )
    try:
        return cls(**row)
    except TypeError as exc:
        raise ParseError(f"malformed {kind} line: {exc}") from exc


class JsonlTraceSink:
    """A subscriber streaming every event as canonical JSONL.

    Accepts a path (opened and owned; closed by :meth:`close` / context
    exit) or an already-open text stream (flushed but left open).
    """

    def __init__(self, target: Union[str, Path, TextIO]) -> None:
        if isinstance(target, (str, Path)):
            self._stream: TextIO = open(target, "w", encoding="utf-8", newline="\n")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self.n_written = 0

    def __call__(self, event: TraceEvent) -> None:
        """Write one event line (the subscriber entry point)."""
        self._stream.write(encode_event(event) + "\n")
        self.n_written += 1

    def close(self) -> None:
        """Flush, and close the stream if this sink opened it."""
        self._stream.flush()
        if self._owns_stream and not self._stream.closed:
            self._stream.close()

    def __enter__(self) -> "JsonlTraceSink":
        """Context-manager entry: the sink itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: close the sink."""
        self.close()


def _iter_lines(source: Union[str, Path, TextIO, Iterable[str]]) -> Iterator[str]:
    if isinstance(source, (str, Path)):
        try:
            with open(source, encoding="utf-8") as handle:
                yield from handle
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read trace {source}: {exc}") from None
    else:
        yield from source


def read_trace(source: Union[str, Path, TextIO, Iterable[str]]) -> List[TraceEvent]:
    """Decode a whole JSONL trace (path, stream, or lines) to events."""
    events = []
    for line in _iter_lines(source):
        line = line.strip()
        if line:
            events.append(decode_event(line))
    return events


def validate_trace_file(source: Union[str, Path, TextIO, Iterable[str]]) -> TraceSummary:
    """Schema-validate a trace and return its summary.

    Every line must decode against the event registry (see
    :func:`decode_event`), and timestamps must be non-decreasing in
    simulation time.  Raises
    :class:`~repro.errors.ParseError` on the first violation, naming
    the offending line number (and the file, for a path), or on a file
    that cannot be read.
    """
    where = f"{source}: " if isinstance(source, (str, Path)) else ""
    counts: Dict[str, int] = {}
    n_events = 0
    first = last = -1
    prev: Optional[int] = None
    for lineno, line in enumerate(_iter_lines(source), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = decode_event(line)
        except ParseError as exc:
            raise ParseError(f"{where}line {lineno}: {exc}") from exc
        if prev is not None and event.time_us < prev:
            raise ParseError(
                f"{where}line {lineno}: timestamp {event.time_us} moves backwards "
                f"(previous event at {prev}) — trace is not monotone in sim time"
            )
        prev = event.time_us
        counts[event.kind] = counts.get(event.kind, 0) + 1
        if not n_events:
            first = event.time_us
        last = event.time_us
        n_events += 1
    return TraceSummary(
        n_events=n_events, first_time_us=first, last_time_us=last, counts=counts
    )
