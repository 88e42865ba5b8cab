"""Discrete-event virtual time.

All components of the reproduction — workload epochs, monitor sampling
ticks, aggregation callbacks, scheme application — are events on a single
virtual clock measured in integer microseconds.  Running the paper's
experiments (hundreds of seconds of monitored execution at a 5 ms sampling
interval) therefore costs only as much wall time as the handlers
themselves.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from .errors import CheckpointError, ConfigError

__all__ = ["SAME_INSTANT_ORDER", "VirtualClock", "EventQueue", "PeriodicEvent"]

#: Same-instant dispatch order of the named periodics, kdamond's loop
#: order followed by the workload driver.  A stable rank, not the
#: re-queue sequence number, decides who fires first, so a sampling tick
#: always precedes the aggregation it shares an instant with, and a
#: checkpoint restore rebuilds the order from the names alone.  Every
#: other event (one-shots, unnamed periodics) ranks after these and falls
#: back to scheduling order.
SAME_INSTANT_ORDER = ("sample", "aggregate", "update", "khugepaged", "epoch")
_RANK = {name: rank for rank, name in enumerate(SAME_INSTANT_ORDER)}
_DEFAULT_RANK = len(SAME_INSTANT_ORDER)


class VirtualClock:
    """A monotonically advancing virtual clock in microseconds."""

    __slots__ = ("_now",)

    def __init__(self, start: int = 0):
        if start < 0:
            raise ConfigError(f"clock cannot start at negative time: {start}")
        self._now = int(start)

    @property
    def now(self) -> int:
        """Current virtual time in microseconds."""
        return self._now

    def advance_to(self, when: int) -> None:
        """Move the clock forward to ``when``; moving backwards is a bug."""
        if when < self._now:
            raise ConfigError(
                f"clock cannot move backwards: {when} < {self._now}"
            )
        self._now = int(when)


class PeriodicEvent:
    """Handle for a repeating event registered on an :class:`EventQueue`.

    The period may be changed on the fly (the monitor's regions-update
    interval is reconfigurable at runtime in upstream DAMON); cancellation
    is lazy — the queue drops cancelled entries when they surface.
    """

    __slots__ = ("callback", "period", "cancelled", "name", "rank", "queue")

    def __init__(self, callback: Callable[[int], None], period: int, name: str = ""):
        if period <= 0:
            raise ConfigError(f"event period must be positive: {period}")
        self.callback = callback
        self.period = int(period)
        self.cancelled = False
        self.name = name or getattr(callback, "__name__", "event")
        self.rank = _RANK.get(self.name, _DEFAULT_RANK)
        #: The queue the event is registered on, for :meth:`EventQueue.run_ahead`.
        self.queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Stop future firings (lazily dropped from the queue)."""
        self.cancelled = True


class EventQueue:
    """Priority queue of timed callbacks driving a :class:`VirtualClock`.

    Events scheduled for the same instant fire by
    :data:`SAME_INSTANT_ORDER` rank, then in scheduling order, which
    keeps runs bit-for-bit reproducible.
    """

    def __init__(self, clock: Optional[VirtualClock] = None):
        self.clock = clock if clock is not None else VirtualClock()
        self._heap: list = []
        self._counter = itertools.count()
        #: While :meth:`run_until` dispatches a periodic: the event, the
        #: call's deadline, and the last of its firings served so far.
        self._firing: Optional[PeriodicEvent] = None
        self._deadline = 0
        self._served = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule_at(self, when: int, callback: Callable[[int], None]) -> None:
        """Run ``callback(now)`` once at virtual time ``when``."""
        self._schedule(when, callback, None)

    def _schedule(
        self,
        when: int,
        callback: Callable[[int], None],
        event: Optional[PeriodicEvent],
    ) -> None:
        if when < self.clock.now:
            raise ConfigError(
                f"cannot schedule in the past: {when} < {self.clock.now}"
            )
        rank = event.rank if event is not None else _DEFAULT_RANK
        heapq.heappush(
            self._heap, (int(when), rank, next(self._counter), callback, event)
        )

    def schedule_periodic(
        self,
        period: int,
        callback: Callable[[int], None],
        *,
        phase: int = 0,
        name: str = "",
        first_at: Optional[int] = None,
    ) -> PeriodicEvent:
        """Run ``callback(now)`` every ``period`` microseconds.

        ``phase`` offsets the first firing from the current time; the
        monitor uses it so that sampling, aggregation and regions-update
        ticks interleave in the same order as the upstream kdamond loop
        (sampling first, then aggregation, then regions update).

        ``first_at`` pins the first firing to an absolute virtual time
        instead — checkpoint restore uses it to re-register each pending
        periodic at exactly the instant the interrupted run would have
        fired it; same-instant ties follow the names' ranks.
        """
        event = PeriodicEvent(callback, period, name=name)
        event.queue = self

        def fire(now: int, _event: PeriodicEvent = event) -> None:
            if _event.cancelled:
                return
            self._firing, self._served = _event, now
            try:
                _event.callback(now)
            finally:
                self._firing = None
            if not _event.cancelled:
                self._schedule(self._served + _event.period, fire, _event)

        when = first_at if first_at is not None else self.clock.now + phase + event.period
        self._schedule(when, fire, event)
        return event

    def pending_events(self) -> List[Tuple[PeriodicEvent, int]]:
        """Snapshot the pending heap as ``(handle, next_fire)`` pairs.

        Pairs come back in dispatch order — ``(when, rank, seq)`` — so
        re-registering them through :meth:`schedule_periodic` with
        ``first_at`` restores identical same-instant tie-breaking.
        Cancelled entries are skipped; a pending *one-shot* entry has no
        handle to re-register from, so checkpointing with one in flight
        is an error.
        """
        pairs: List[Tuple[PeriodicEvent, int]] = []
        for when, _rank, _seq, _callback, event in sorted(
            self._heap, key=lambda entry: entry[:3]
        ):
            if event is None:
                raise CheckpointError(
                    f"cannot snapshot queue: one-shot event pending at t={when}"
                )
            if event.cancelled:
                continue
            pairs.append((event, int(when)))
        return pairs

    def run_until(self, deadline: int) -> int:
        """Dispatch events up to and including ``deadline``.

        Returns the number of events dispatched.  The clock finishes at
        ``deadline`` even if the queue drains earlier.
        """
        dispatched = 0
        self._deadline = deadline
        while self._heap and self._heap[0][0] <= deadline:
            when, _rank, _seq, callback, _ = heapq.heappop(self._heap)
            self.clock.advance_to(when)
            callback(when)
            dispatched += 1
        self.clock.advance_to(max(self.clock.now, deadline))
        return dispatched

    def run_ahead(self, event: PeriodicEvent) -> int:
        """How many of ``event``'s firings its current call may serve.

        Called from ``event``'s callback while :meth:`run_until`
        dispatches it at ``now``: returns ``k >= 1``, the number of its
        firings ``now, now + period, ...`` that come before every other
        pending entry by ``(when, rank)`` and by the call's deadline, so
        nothing else could have run between them.  The callback must
        serve all ``k``, advancing :attr:`clock` to each one's instant;
        the periodic is next scheduled one period after the last.
        Anywhere else (a direct call, another event's callback) the
        answer is 1: outside dispatch there is no limit to tell.
        """
        if event is not self._firing:
            return 1
        now = self.clock.now
        last = self._deadline
        if self._heap:
            when, rank = self._heap[0][:2]
            last = min(last, when if event.rank < rank else when - 1)
        rows = max(1, (last - now) // event.period + 1)
        self._served = now + (rows - 1) * event.period
        return rows

    def run_for(self, duration: int) -> int:
        """Dispatch events for ``duration`` microseconds of virtual time."""
        return self.run_until(self.clock.now + int(duration))
