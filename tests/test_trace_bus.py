"""The trace bus: dispatch, counters, ring, clocks, subscriber isolation."""

import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError, ParseError
from repro.clock import VirtualClock
from repro.trace import (
    EVENT_TYPES,
    AccessSampled,
    EpochEnd,
    FieldHistogram,
    JsonlTraceSink,
    ReclaimPass,
    TraceBus,
    TraceEvent,
    decode_event,
    encode_event,
    read_trace,
    validate_trace_file,
)

from tests.helpers import BASE, run_epochs  # noqa: F401


def sampled(t, **kw):
    defaults = dict(nr_regions=4, checked=4, hits=2)
    defaults.update(kw)
    return AccessSampled(time_us=t, **defaults)


def reclaim(t, **kw):
    defaults = dict(requested_pages=8, evicted_pages=8, written_back_pages=2, trigger="alloc")
    defaults.update(kw)
    return ReclaimPass(time_us=t, **defaults)


class TestDispatch:
    def test_typed_subscribe_receives_only_its_type(self):
        bus = TraceBus()
        got = []
        bus.subscribe(AccessSampled, got.append)
        bus.emit(sampled(0))
        bus.emit(reclaim(0))
        assert len(got) == 1 and isinstance(got[0], AccessSampled)

    def test_subscribe_all_receives_everything(self):
        bus = TraceBus()
        got = []
        bus.subscribe_all(got.append)
        bus.emit(sampled(0))
        bus.emit(reclaim(0))
        assert [type(e) for e in got] == [AccessSampled, ReclaimPass]

    def test_subscribe_base_type_means_all(self):
        bus = TraceBus()
        got = []
        bus.subscribe(TraceEvent, got.append)
        bus.emit(reclaim(0))
        assert got

    def test_counts_and_times(self):
        bus = TraceBus()
        assert bus.first_time_us == -1 and bus.last_time_us == -1
        bus.advance_to(10)
        bus.emit(sampled(bus.now))
        bus.advance_to(30)
        bus.emit(reclaim(bus.now))
        bus.emit(sampled(bus.now))
        assert bus.n_events == 3
        assert bus.counts == {"AccessSampled": 2, "ReclaimPass": 1}
        assert (bus.first_time_us, bus.last_time_us) == (10, 30)
        summary = bus.summary()
        assert summary.n_events == 3
        assert summary.as_dict()["counts"] == {"AccessSampled": 2, "ReclaimPass": 1}

    def test_ring_is_bounded(self):
        bus = TraceBus(ring_capacity=3)
        for t in range(5):
            bus.advance_to(t)
            bus.emit(sampled(t))
        assert [e.time_us for e in bus.ring] == [2, 3, 4]

    def test_ring_disabled(self):
        bus = TraceBus(ring_capacity=0)
        bus.emit(sampled(0))
        assert bus.ring == ()
        assert bus.n_events == 1  # counting unaffected

    def test_negative_ring_capacity_rejected(self):
        with pytest.raises(ConfigError):
            TraceBus(ring_capacity=-1)

    def test_wants_tracks_consumers(self):
        bus = TraceBus(ring_capacity=0)
        assert not bus.wants(AccessSampled)
        bus.subscribe(AccessSampled, lambda e: None)
        assert bus.wants(AccessSampled) and not bus.wants(ReclaimPass)
        bus.subscribe_all(lambda e: None)
        assert bus.wants(ReclaimPass)
        assert TraceBus(ring_capacity=4).wants(ReclaimPass)  # ring retains

    def test_count_matches_emit_summary(self):
        """The fast path must move the counters exactly as emit would
        for an event stamped now — summaries are path-independent."""
        emitting, counting = TraceBus(ring_capacity=0), TraceBus(ring_capacity=0)
        for t in (5, 9, 9, 40):
            for bus in (emitting, counting):
                bus.advance_to(t)
            emitting.emit(sampled(emitting.now))
            counting.count(AccessSampled)
        assert counting.summary() == emitting.summary()

    def test_count_groups_matches_count(self):
        """Bulk grouped accounting equals count() called per occurrence,
        with the per-group split recorded on the side."""
        single, grouped = TraceBus(ring_capacity=0), TraceBus(ring_capacity=0)
        for bus in (single, grouped):
            bus.advance_to(7)
        for _ in range(5):
            single.count(AccessSampled)
        grouped.count_groups(AccessSampled, {"t0": 2, "t1": 3, "t2": 0})
        assert grouped.summary() == single.summary()
        assert grouped.group_counts == {"AccessSampled": {"t0": 2, "t1": 3}}
        grouped.count_groups(AccessSampled, {"t1": 1})
        assert grouped.group_counts["AccessSampled"]["t1"] == 4

    def test_count_groups_all_zero_is_a_no_op(self):
        bus = TraceBus(ring_capacity=0)
        bus.count_groups(AccessSampled, {"t0": 0})
        assert bus.n_events == 0 and bus.group_counts == {}

    def test_count_groups_rejects_negative(self):
        bus = TraceBus(ring_capacity=0)
        with pytest.raises(ConfigError):
            bus.count_groups(AccessSampled, {"t0": -1})


class TestSubscriberIsolation:
    def test_raising_subscriber_detached_and_reported_once(self, caplog):
        bus = TraceBus()
        calls = []

        def bad(event):
            calls.append(event)
            raise RuntimeError("boom")

        after = []
        bus.subscribe_all(bad)
        bus.subscribe_all(after.append)
        with caplog.at_level(logging.WARNING, logger="repro.trace"):
            bus.emit(sampled(0))
            bus.emit(sampled(1))
        # The bad subscriber saw exactly one event, then was detached.
        assert len(calls) == 1
        # The healthy subscriber saw both, including the one that raised.
        assert len(after) == 2
        # Reported once: one error record, one warning log line.
        assert len(bus.subscriber_errors) == 1
        assert "RuntimeError: boom" in bus.subscriber_errors[0][1]
        assert sum("detached" in r.message for r in caplog.records) == 1

    def test_typed_subscriber_errors_isolated_too(self):
        bus = TraceBus()

        def bad(event):
            raise ValueError("nope")

        bus.subscribe(AccessSampled, bad)
        bus.emit(sampled(0))  # must not raise
        bus.emit(sampled(1))
        assert len(bus.subscriber_errors) == 1


class TestClocks:
    def test_owned_clock_advance(self):
        bus = TraceBus()
        assert bus.owns_clock
        bus.advance_to(100)
        assert bus.now == 100
        bus.advance_to(50)  # never moves backwards
        assert bus.now == 100

    def test_adopted_clock_cannot_be_advanced(self):
        clock = VirtualClock()
        bus = TraceBus(clock)
        assert not bus.owns_clock
        with pytest.raises(ConfigError):
            bus.advance_to(10)

    def test_bind_clock_adopts(self):
        bus = TraceBus()
        clock = VirtualClock(start=5)
        bus.bind_clock(clock)
        assert bus.now == 5
        clock.advance_to(9)
        assert bus.now == 9

    def test_bind_behind_emitted_events_rejected(self):
        bus = TraceBus()
        bus.advance_to(100)
        bus.emit(sampled(bus.now))
        with pytest.raises(ConfigError):
            bus.bind_clock(VirtualClock(start=10))
        # Binding at or ahead of the stream is fine.
        bus.bind_clock(VirtualClock(start=100))


class TestAggregators:
    def test_field_histogram(self):
        hist = FieldHistogram("evicted_pages")
        for pages in (0, 1, 2, 3, 500):
            hist(reclaim(0, evicted_pages=pages))
        hist(sampled(0))  # no such field: ignored
        assert hist.n_values == 5
        assert hist.mean == pytest.approx(506 / 5)
        rendered = hist.render(width=10)
        assert "#" in rendered and rendered.count("\n") >= 2


class TestJsonl:
    def test_encode_is_canonical(self):
        line = encode_event(reclaim(7))
        assert line == (
            '{"ev":"ReclaimPass","evicted_pages":8,"requested_pages":8,'
            '"time_us":7,"trigger":"alloc","written_back_pages":2}'
        )

    def test_round_trip_every_registered_type(self):
        import json

        from repro.trace import event_payload

        for kind, cls in EVENT_TYPES.items():
            kwargs = {}
            for name, value in _example_values(cls).items():
                kwargs[name] = value
            event = cls(**kwargs)
            line = encode_event(event)
            again = decode_event(line)
            assert again == event, kind
            assert again.kind == kind
            # The compiled encoder must match the canonical-JSON
            # reference byte for byte.
            reference = json.dumps(
                {**event_payload(event), "ev": kind},
                sort_keys=True,
                separators=(",", ":"),
            )
            assert line == reference, kind

    def test_decode_rejects_unknown_kind(self):
        with pytest.raises(ParseError, match="unknown trace event kind"):
            decode_event('{"ev":"Nope","time_us":0}')

    def test_decode_rejects_missing_kind(self):
        with pytest.raises(ParseError, match="kind key"):
            decode_event('{"time_us":0}')

    def test_decode_rejects_extra_fields(self):
        with pytest.raises(ParseError, match="unknown field"):
            decode_event('{"ev":"EpochEnd","time_us":0,"bogus":1}')

    def test_decode_rejects_wrong_scalar_type(self):
        line = encode_event(reclaim(0)).replace('"alloc"', "3")
        with pytest.raises(ParseError, match="trigger must be str"):
            decode_event(line)

    def test_decode_rejects_missing_required_field(self):
        with pytest.raises(ParseError, match="malformed"):
            decode_event('{"ev":"ReclaimPass","time_us":0}')

    def test_decode_rejects_non_object(self):
        with pytest.raises(ParseError):
            decode_event("[1,2]")
        with pytest.raises(ParseError):
            decode_event("not json")

    def test_sink_counts_and_reads_back(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink(sampled(0))
            sink(reclaim(5))
        assert sink.n_written == 2
        events = read_trace(path)
        assert [e.kind for e in events] == ["AccessSampled", "ReclaimPass"]

    def test_validate_rejects_backwards_time(self):
        lines = [encode_event(sampled(10)), encode_event(sampled(5))]
        with pytest.raises(ParseError, match="moves backwards"):
            validate_trace_file(lines)

    def test_validate_reports_line_numbers(self):
        lines = [encode_event(sampled(0)), "", "garbage"]
        with pytest.raises(ParseError, match="line 3"):
            validate_trace_file(lines)


def _example_values(cls):
    """Minimal plausible constructor kwargs for an event class."""
    import typing

    hints = typing.get_type_hints(cls)
    out = {}
    for name, hint in hints.items():
        if hint is int:
            out[name] = 3
        elif hint is float:
            out[name] = 1.5
        elif hint is bool:
            out[name] = True
        elif hint is str:
            out[name] = "alloc"
    return out


class TestMonotoneProperty:
    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=40))
    def test_emission_stamping_is_monotone(self, advances):
        """Events stamped with ``bus.now`` are monotone no matter how the
        clock advances, because the clock itself never moves backwards."""
        bus = TraceBus(ring_capacity=0)
        sink_lines = []
        bus.subscribe_all(lambda e: sink_lines.append(encode_event(e)))
        for step in advances:
            bus.advance_to(bus.now + step)
            bus.emit(sampled(bus.now))
        times = [e.time_us for e in read_trace(sink_lines)]
        assert times == sorted(times)
        summary = validate_trace_file(sink_lines)
        assert summary.n_events == len(advances)
        assert summary.first_time_us == times[0]
        assert summary.last_time_us == times[-1]


class TestKernelEmission:
    def test_kernel_epoch_and_reclaim_events(self, small_guest, queue):
        """A kernel driven over its DRAM budget emits EpochEnd every epoch
        and alloc/pressure ReclaimPass events."""
        from repro.sim.kernel import SimKernel
        from repro.sim.swap import ZramDevice
        from repro.units import MIB

        bus = TraceBus(queue.clock)
        kernel = SimKernel(small_guest, swap=ZramDevice(512 * MIB), seed=7, trace=bus)
        kernel.mmap(BASE, 400 * MIB)
        run_epochs(
            kernel,
            queue,
            [dict(start=BASE, end=BASE + 400 * MIB, fraction=0.5)],
            n_epochs=4,
        )
        assert bus.counts.get("EpochEnd") == 5  # run_epochs runs one inline
        assert bus.counts.get("ReclaimPass", 0) > 0
        triggers = {e.trigger for e in bus.ring if isinstance(e, ReclaimPass)}
        assert "alloc" in triggers
        epoch_events = [e for e in bus.ring if isinstance(e, EpochEnd)]
        assert epoch_events  # the last epoch is always within ring capacity
        # Domain time (epoch end) leads emission time by one epoch.
        assert all(e.epoch_end_us > e.time_us for e in epoch_events)

    def test_trace_package_passes_daos_lint_clean(self):
        """Meta: the new subsystem introduces no determinism findings —
        no new baseline entries allowed."""
        from pathlib import Path

        from repro.lint import lint_paths

        pkg = Path(__file__).resolve().parent.parent / "src" / "repro" / "trace"
        assert pkg.is_dir()
        diagnostics = lint_paths([pkg], relative_to=pkg.parent)
        assert diagnostics == [], [str(d) for d in diagnostics]
