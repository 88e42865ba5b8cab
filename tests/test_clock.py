"""Virtual clock and event queue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.clock import SAME_INSTANT_ORDER, EventQueue, VirtualClock

from tests.helpers import schedule_once


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0

    def test_custom_start(self):
        assert VirtualClock(500).now == 500

    def test_advance(self):
        clock = VirtualClock()
        clock.advance_to(1000)
        assert clock.now == 1000

    def test_no_backwards(self):
        clock = VirtualClock(100)
        with pytest.raises(ConfigError):
            clock.advance_to(50)

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigError):
            VirtualClock(-1)


class TestEventQueue:
    def test_one_shot_fires_at_time(self):
        queue = EventQueue()
        fired = []
        schedule_once(queue, 100, lambda now: fired.append(now))
        queue.run_until(99)
        assert fired == []
        queue.run_until(100)
        assert fired == [100]

    def test_cannot_schedule_in_past(self):
        queue = EventQueue()
        queue.run_until(100)
        with pytest.raises(ConfigError):
            schedule_once(queue, 50, lambda now: None)

    def test_same_time_fires_in_registration_order(self):
        queue = EventQueue()
        order = []
        schedule_once(queue, 10, lambda now: order.append("a"))
        schedule_once(queue, 10, lambda now: order.append("b"))
        schedule_once(queue, 10, lambda now: order.append("c"))
        queue.run_until(10)
        assert order == ["a", "b", "c"]

    def test_same_instant_periodics_fire_by_name_rank(self):
        """Registered and re-queued in the wrong order, the named ticks
        still fire sample → aggregate → epoch at every shared instant,
        and a snapshot replayed on a fresh queue keeps that order."""
        queue = EventQueue()
        order = []
        for name, period in (("epoch", 20), ("aggregate", 20), ("sample", 5)):
            queue.schedule_periodic(
                period, lambda now, name=name: order.append((now, name)), name=name
            )
        queue.run_until(40)
        assert [n for t, n in order if t == 20] == ["sample", "aggregate", "epoch"]
        rows = [(event.name, due, event.period) for event, due in queue.pending_events()]
        assert [name for name, due, _ in rows if due == 60] == [
            "aggregate", "epoch"
        ]
        replay = EventQueue(VirtualClock(start=40))
        order.clear()
        for name, due, period in reversed(rows):
            replay.schedule_periodic(
                period, lambda now, name=name: order.append((now, name)),
                name=name, first_at=due,
            )
        replay.run_until(60)
        assert [n for t, n in order if t == 60] == ["sample", "aggregate", "epoch"]

    def test_clock_reaches_deadline_with_empty_queue(self):
        queue = EventQueue()
        queue.run_until(12345)
        assert queue.clock.now == 12345

    def test_periodic_fires_every_period(self):
        queue = EventQueue()
        fired = []
        queue.schedule_periodic(10, lambda now: fired.append(now))
        queue.run_until(35)
        assert fired == [10, 20, 30]

    def test_periodic_first_at_pins_first_firing(self):
        queue = EventQueue()
        fired = []
        queue.schedule_periodic(10, lambda now: fired.append(now), first_at=13)
        queue.run_until(25)
        assert fired == [13, 23]

    def test_periodic_cancel(self):
        queue = EventQueue()
        fired = []
        event = queue.schedule_periodic(10, lambda now: fired.append(now))
        queue.run_until(25)
        event.cancel()
        queue.run_until(100)
        assert fired == [10, 20]

    def test_cancel_inside_callback_stops_rescheduling(self):
        queue = EventQueue()
        fired = []
        holder = {}

        def callback(now):
            fired.append(now)
            if len(fired) == 2:
                holder["event"].cancel()

        holder["event"] = queue.schedule_periodic(10, callback)
        queue.run_until(100)
        assert fired == [10, 20]

    def test_zero_period_rejected(self):
        queue = EventQueue()
        with pytest.raises(ConfigError):
            queue.schedule_periodic(0, lambda now: None)

    def test_period_change_takes_effect_lazily(self):
        # The firing at t=10 already queued its successor at t=20 with
        # the old period; the new period applies from there on.
        queue = EventQueue()
        fired = []
        event = queue.schedule_periodic(10, lambda now: fired.append(now))
        queue.run_until(10)
        event.period = 20
        queue.run_until(70)
        assert fired == [10, 20, 40, 60]

    def test_events_scheduled_by_events_run_same_pass(self):
        queue = EventQueue()
        fired = []

        def outer(now):
            schedule_once(queue, now + 5, lambda t: fired.append(("inner", t)))
            fired.append(("outer", now))

        schedule_once(queue, 10, outer)
        queue.run_until(20)
        assert fired == [("outer", 10), ("inner", 15)]

    def test_dispatch_count(self):
        queue = EventQueue()
        schedule_once(queue, 1, lambda now: None)
        schedule_once(queue, 2, lambda now: None)
        assert queue.run_until(10) == 2

    def test_len_reflects_pending(self):
        queue = EventQueue()
        schedule_once(queue, 5, lambda now: None)
        assert len(queue) == 1
        queue.run_until(5)
        assert len(queue) == 0


# ----------------------------------------------------------------------
# run_ahead: a periodic serving its due firings in one call
# ----------------------------------------------------------------------
def _batching(queue, log, label):
    """A periodic callback serving every firing ``run_ahead`` grants,
    logging each at its own instant."""
    handle = {}

    def tick(now):
        event = handle["event"]
        for row in range(queue.run_ahead(event)):
            queue.clock.advance_to(now + row * event.period)
            log.append((queue.clock.now, label))

    return tick, handle


class TestRunAhead:
    def test_one_outside_dispatch(self):
        queue = EventQueue()
        tick, handle = _batching(queue, [], "b")
        handle["event"] = queue.schedule_periodic(10, tick)
        assert queue.run_ahead(handle["event"]) == 1

    def test_bounded_by_the_next_entry_and_the_deadline(self):
        queue = EventQueue()
        log = []
        tick, handle = _batching(queue, log, "b")
        handle["event"] = queue.schedule_periodic(10, tick, name="sample")
        schedule_once(queue, 45, lambda now: log.append((now, "shot")))
        # Three dispatches: the one-shot ends the first batch, the
        # deadline the second.
        assert queue.run_until(75) == 3
        assert log == [(10, "b"), (20, "b"), (30, "b"), (40, "b"), (45, "shot"),
                       (50, "b"), (60, "b"), (70, "b")]
        assert queue.pending_events() == [(handle["event"], 80)]

    def test_a_same_instant_tie_goes_by_rank(self):
        fired = {}
        for name in ("sample", "epoch"):
            queue = EventQueue()
            log = []
            tick, handle = _batching(queue, log, "b")
            handle["event"] = queue.schedule_periodic(10, tick, name=name)
            queue.schedule_periodic(30, lambda now: log.append((now, "x")), name="aggregate")
            queue.run_until(40)
            fired[name] = log
        assert fired["sample"][:4] == [(10, "b"), (20, "b"), (30, "b"), (30, "x")]
        assert fired["epoch"][:4] == [(10, "b"), (20, "b"), (30, "x"), (30, "b")]


#: Names with a same-instant rank, one without, and the callback's own.
_NAMES = st.sampled_from(SAME_INSTANT_ORDER + ("fleet-tick", ""))
_PERIODIC = st.tuples(_NAMES, st.integers(1, 40), st.integers(0, 30))
_SHOT = st.tuples(
    st.integers(0, 300),
    st.sampled_from(("log", "cancel", "period", "spawn")),
    st.integers(0, 8),
    st.integers(1, 25),
)


def _replay(periodics, batcher, shots, deadlines, *, batching):
    """Dispatch one scenario; returns everything that fired, as
    ``(instant, label)`` in firing order, plus the clock at each pause.
    Periodic ``len(periodics)`` is the batcher; with ``batching`` off
    its callback serves one firing per call, as a plain periodic does."""
    queue = EventQueue()
    log = []
    handles = []
    for index, (name, period, phase) in enumerate(periodics):
        label = f"p{index}"
        handles.append(
            queue.schedule_periodic(
                period, lambda now, label=label: log.append((now, label)),
                name=name, first_at=phase + period,
            )
        )
    name, period, phase = batcher
    if batching:
        tick, handle = _batching(queue, log, "batcher")
    else:
        tick, handle = (lambda now: log.append((now, "batcher"))), {}
    handles.append(queue.schedule_periodic(period, tick, name=name, first_at=phase + period))
    handle["event"] = handles[-1]

    def shot(when, kind, target, value):
        def fire(now):
            log.append((now, f"{kind}-{target}"))
            event = handles[target % len(handles)]
            if kind == "cancel":
                event.cancel()
            elif kind == "period":
                event.period = value
            elif kind == "spawn":
                schedule_once(queue, now + value, lambda t: log.append((t, "spawned")))

        schedule_once(queue, when, fire)

    for args in shots:
        shot(*args)
    for deadline in sorted(deadlines):
        queue.run_until(deadline)
        log.append(("pause", queue.clock.now))
    return log


@settings(max_examples=200, deadline=None)
@given(
    periodics=st.lists(_PERIODIC, max_size=4),
    batcher=_PERIODIC,
    shots=st.lists(_SHOT, max_size=8),
    deadlines=st.lists(st.integers(0, 400), min_size=1, max_size=5),
)
def test_a_batching_periodic_fires_as_a_plain_one(periodics, batcher, shots, deadlines):
    """Same firing instants, in the same order relative to every other
    event, whatever else is queued and wherever ``run_until`` pauses."""
    plain = _replay(periodics, batcher, shots, deadlines, batching=False)
    batched = _replay(periodics, batcher, shots, deadlines, batching=True)
    assert batched == plain
