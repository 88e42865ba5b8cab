"""The trace bus: typed subscribe/emit over one run's virtual clock.

One :class:`TraceBus` is wired per experiment run.  Layers emit typed
events (:mod:`repro.trace.events`); subscribers receive exactly the
types they asked for (or everything, via :meth:`TraceBus.subscribe_all`).
The bus itself does three cheap things on every emit — count the event,
remember its timestamp, append it to the bounded ring buffer — and when
*nothing* retains or consumes a type (no ring, no matching subscriber),
emission sites skip materialising the event entirely and call
:meth:`TraceBus.count` instead, which bumps the same counters from the
same clock.  The summary is identical either way; a run with no bus at
all pays one ``is None`` check per site.

Robustness contract: a subscriber that raises is **detached and
reported once** (collected in :attr:`TraceBus.subscriber_errors`, logged
as a warning); it can never abort the simulation or starve the other
subscribers of the same event.  The one exception is
:class:`BrokenPipeError`: the reader of a streamed trace is gone (``daos
run --trace - | head -1``), so it propagates and ends the run.
"""

from __future__ import annotations

import logging
from collections import deque
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Type

from ..clock import VirtualClock
from ..errors import ConfigError
from .aggregate import TraceSummary
from .events import TraceEvent

__all__ = ["TraceBus", "Subscriber"]

#: A subscriber: any callable taking one event.
Subscriber = Callable[[TraceEvent], None]

_log = logging.getLogger("repro.trace")


class TraceBus:
    """Typed event bus stamped by one virtual clock.

    Parameters
    ----------
    clock:
        The simulation clock events are stamped from.  ``None`` (the
        default) creates an owned clock starting at 0; the experiment
        driver rebinds it to the run's event-queue clock via
        :meth:`bind_clock` at wiring time.
    ring_capacity:
        Entries kept in the ring buffer of recent events (0 disables
        retention; emission, counting and dispatch are unaffected).
    """

    def __init__(
        self, clock: Optional[VirtualClock] = None, *, ring_capacity: int = 1024
    ) -> None:
        if ring_capacity < 0:
            raise ConfigError(f"ring capacity cannot be negative: {ring_capacity}")
        self.clock = clock if clock is not None else VirtualClock()
        self._owns_clock = clock is None
        self._ring: Optional[deque] = (
            deque(maxlen=ring_capacity) if ring_capacity else None
        )
        self._handlers: Dict[Type[TraceEvent], List[Subscriber]] = {}
        self._all_handlers: List[Subscriber] = []
        self._wants_all = self._ring is not None
        #: Event counts by kind, in emission order of first appearance.
        self.counts: Dict[str, int] = {}
        #: Per-group breakdowns by kind (``kind -> group -> count``),
        #: fed only through :meth:`count_groups`; the fleet layer uses
        #: per-tenant group keys.  ``counts`` stays the authoritative
        #: total — every grouped occurrence is also counted there.
        self.group_counts: Dict[str, Dict[str, int]] = {}
        self.n_events = 0
        self.first_time_us = -1
        self.last_time_us = -1
        #: ``(subscriber repr, error repr)`` of every detached subscriber.
        self.subscriber_errors: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------
    # Clock plumbing
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current virtual time — what emitters stamp events with."""
        return self.clock.now

    @property
    def owns_clock(self) -> bool:
        """True while the bus still drives its own clock (no run-queue
        clock adopted) — the precondition for :meth:`advance_to`."""
        return self._owns_clock

    def bind_clock(self, clock: VirtualClock) -> None:
        """Adopt the run's clock (wiring time, before the run starts).

        Rebinding after events were emitted is allowed only when it
        cannot break timestamp monotonicity.
        """
        if self.n_events and clock.now < self.last_time_us:
            raise ConfigError(
                f"cannot bind a clock at {clock.now} behind already-emitted "
                f"events at {self.last_time_us}"
            )
        self.clock = clock
        self._owns_clock = False

    def advance_to(self, when: int) -> None:
        """Advance an *owned* clock (clock-less emitters like the tuner
        drive virtual time themselves).  Never moves backwards; adopting
        callers must let the event queue advance the shared clock."""
        if not self._owns_clock:
            raise ConfigError("cannot advance an adopted simulation clock")
        self.clock.advance_to(max(self.clock.now, int(when)))

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------
    def subscribe(
        self, event_type: Type[TraceEvent], handler: Subscriber
    ) -> Subscriber:
        """Receive every event of exactly ``event_type``; returns the
        handler for later :meth:`unsubscribe`."""
        if event_type is TraceEvent:
            return self.subscribe_all(handler)
        self._handlers.setdefault(event_type, []).append(handler)
        return handler

    def subscribe_all(self, handler: Subscriber) -> Subscriber:
        """Receive every event regardless of type (sinks use this)."""
        self._all_handlers.append(handler)
        self._wants_all = True
        return handler

    def unsubscribe(self, handler: Subscriber) -> bool:
        """Detach ``handler`` wherever it is subscribed; True if found."""
        found = False
        for handlers in list(self._handlers.values()) + [self._all_handlers]:
            while handler in handlers:
                handlers.remove(handler)
                found = True
        self._wants_all = self._ring is not None or bool(self._all_handlers)
        return found

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def wants(self, event_type: Type[TraceEvent]) -> bool:
        """Whether an ``event_type`` instance would actually be retained
        or delivered.  Hot emission sites check this and fall back to
        :meth:`count` when False, skipping payload computation and
        event construction entirely."""
        return self._wants_all or bool(self._handlers.get(event_type))

    def count(self, event_type: Type[TraceEvent]) -> None:
        """Account one ``event_type`` occurrence at the current clock
        without materialising the event — the counters, ``n_events`` and
        first/last timestamps move exactly as :meth:`emit` would for an
        event stamped now."""
        kind = event_type.kind
        self.counts[kind] = self.counts.get(kind, 0) + 1
        now = self.clock.now
        if not self.n_events:
            self.first_time_us = now
        self.n_events += 1
        self.last_time_us = now

    def count_groups(self, event_type: Type[TraceEvent], counts: Mapping[str, int]) -> None:
        """Bulk-account many ``event_type`` occurrences split by group.

        The fleet scheduler accumulates per-tenant counters in flat
        arrays and flushes them here in one call, so per-tenant
        attribution rides the same no-materialisation fast path as
        :meth:`count`: the lifetime counters, ``n_events`` and the
        first/last timestamps move exactly as ``count()`` called once
        per occurrence would, and the per-group split lands in
        :attr:`group_counts`.  Zero entries are ignored; negative
        counts are a caller bug.
        """
        total = 0
        for n in counts.values():
            if n < 0:
                raise ConfigError(f"negative group count: {dict(counts)!r}")
            total += n
        if not total:
            return
        kind = event_type.kind
        by_group = self.group_counts.setdefault(kind, {})
        for group, n in counts.items():
            if n:
                by_group[group] = by_group.get(group, 0) + int(n)
        self.counts[kind] = self.counts.get(kind, 0) + total
        now = self.clock.now
        if not self.n_events:
            self.first_time_us = now
        self.n_events += total
        self.last_time_us = now

    def emit(self, event: TraceEvent) -> None:
        """Record ``event`` and dispatch it to matching subscribers."""
        kind = event.kind
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if not self.n_events:
            self.first_time_us = event.time_us
        self.n_events += 1
        self.last_time_us = event.time_us
        if self._ring is not None:
            self._ring.append(event)
        handlers = self._handlers.get(type(event))
        if handlers:
            self._dispatch(handlers, event)
        if self._all_handlers:
            self._dispatch(self._all_handlers, event)

    def _dispatch(self, handlers: List[Subscriber], event: TraceEvent) -> None:
        broken: List[Tuple[Subscriber, Exception]] = []
        for handler in handlers:
            try:
                handler(event)
            except BrokenPipeError:
                raise
            except Exception as exc:  # noqa: BLE001 — isolation is the contract
                broken.append((handler, exc))
        for handler, exc in broken:
            handlers.remove(handler)
            name = getattr(handler, "__qualname__", None) or repr(handler)
            self.subscriber_errors.append((name, f"{type(exc).__name__}: {exc}"))
            _log.warning(
                "trace subscriber %s raised %s: %s — detached (reported once)",
                name,
                type(exc).__name__,
                exc,
            )
        if broken:
            self._wants_all = self._ring is not None or bool(self._all_handlers)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def counters_state(self) -> Dict[str, object]:
        """The bus's lifetime accounting as one plain, picklable dict.

        Subscribers, the ring and the clock binding are deliberately
        excluded: they are re-wired by the restore path, while the
        counters below are what make a resumed run's trace summary
        byte-identical to the uninterrupted one.
        """
        return {
            "counts": dict(self.counts),
            "group_counts": {k: dict(v) for k, v in self.group_counts.items()},
            "n_events": self.n_events,
            "first_time_us": self.first_time_us,
            "last_time_us": self.last_time_us,
        }

    def restore_counters(self, state: Mapping[str, object]) -> None:
        """Load a :meth:`counters_state` snapshot into a fresh bus."""
        if self.n_events:
            raise ConfigError(
                "cannot restore counters onto a bus that already emitted"
            )
        self.counts = dict(state["counts"])  # type: ignore[arg-type]
        self.group_counts = {
            k: dict(v)
            for k, v in state["group_counts"].items()  # type: ignore[union-attr]
        }
        self.n_events = int(state["n_events"])  # type: ignore[arg-type]
        self.first_time_us = int(state["first_time_us"])  # type: ignore[arg-type]
        self.last_time_us = int(state["last_time_us"])  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def ring(self) -> Tuple[TraceEvent, ...]:
        """The retained recent events, oldest first (empty if disabled)."""
        return tuple(self._ring) if self._ring is not None else ()

    def summary(self) -> TraceSummary:
        """Freeze the bus's lifetime counters into a summary."""
        return TraceSummary(
            n_events=self.n_events,
            first_time_us=self.first_time_us,
            last_time_us=self.last_time_us,
            counts=dict(self.counts),
        )
