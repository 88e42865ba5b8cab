"""Sampling batches change no result bit: a metamorphic property.

Two monitors with the same seed watch twin kernels, each on its own
event queue carrying the same sampling, aggregation and regions-update
periodics.  One monitor was started on its queue, so a dispatched
``sample_tick`` serves every sampling tick due before the next event
(``EventQueue.run_ahead``); the other's ticks were registered by hand
under the same names, so each call serves one tick: the tick-by-tick
sampler.  Whatever kernel and layout changes the two queues carry as
one-shot events, and wherever ``run_until`` pauses them, the twins must
agree at every pause on every counter, every region column and the RNG
position.  No frozen oracle is involved.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clock import EventQueue
from repro.monitor.attrs import MonitorAttrs
from repro.monitor.core import DataAccessMonitor
from repro.monitor.primitives import PhysicalPrimitive, VirtualPrimitive
from repro.monitor.region import _COLUMNS, _INT_COLUMNS, RegionArray
from repro.sim.kernel import SimKernel
from repro.sim.machine import GuestSpec, get_instance
from repro.sim.swap import ZramDevice
from repro.units import MIB, MSEC

from tests.helpers import BASE, schedule_once, set_rate

ATTRS = MonitorAttrs(
    sampling_interval_us=1 * MSEC,
    aggregation_interval_us=20 * MSEC,
    regions_update_interval_us=200 * MSEC,
    min_nr_regions=5,
    max_nr_regions=60,
)
PERIOD = ATTRS.sampling_interval_us
#: The two mappings every twin starts with, and the slots ``mmap`` fills.
FIXED = ((BASE, 8 * MIB), (BASE + 64 * MIB, 4 * MIB))
SLOTS = tuple((BASE + (128 + 16 * i) * MIB, 2 * MIB) for i in range(3))


class CountingMonitor(DataAccessMonitor):
    """Counts ``sample_tick`` calls."""

    calls = 0

    def sample_tick(self, now):
        self.calls += 1
        super().sample_tick(now)


class Twin:
    """One kernel + monitor + queue, with the changes both twins make."""

    def __init__(self, primitive_cls, *, batched):
        guest = GuestSpec(host=get_instance("i3.metal"), vcpus=4, dram_bytes=256 * MIB)
        self.kernel = SimKernel(guest, swap=ZramDevice(32 * MIB), seed=7)
        for start, size in FIXED:
            self.kernel.mmap(start, size)
        self.slots = {}
        self.monitor = CountingMonitor(primitive_cls(self.kernel), ATTRS, seed=11)
        self.queue = EventQueue()
        if batched:
            self.monitor.start(self.queue)
        else:
            # start()'s registrations without handing the monitor its
            # handles: every call serves one tick.
            self.monitor.init_regions()
            periods = (
                ATTRS.sampling_interval_us,
                ATTRS.aggregation_interval_us,
                ATTRS.regions_update_interval_us,
            )
            for (name, tick), period in zip(self.monitor.tick_handlers().items(), periods):
                self.queue.schedule_periodic(period, tick, name=name)

    def schedule(self, when, op, *args):
        schedule_once(self.queue, when, lambda now: getattr(self, "do_" + op)(now, *args))

    def segment(self, which):
        """The page-table row ``(first page, pages, first chunk, chunks)``
        of VMA ``which``."""
        flat = self.kernel.space.flat
        k = which % len(self.kernel.space.vmas)
        po, co = flat.page_offset, flat.chunk_offset
        return int(po[k]), int(po[k + 1] - po[k]), int(co[k]), int(co[k + 1] - co[k])

    def page_range(self, which, lo, span):
        """A page span of VMA ``which``, in VMA-local page numbers."""
        _, n_pages, _, _ = self.segment(which)
        lo = int(lo * (n_pages - 1))
        return lo, min(n_pages, lo + 1 + int(span * n_pages))

    def flat_range(self, which, lo, span):
        first, _, _, _ = self.segment(which)
        lo, hi = self.page_range(which, lo, span)
        return self.kernel.space.flat, first + lo, first + hi

    # -- a sampling tick off the beat (a direct call: one row) ------------
    def do_sample(self, now):
        self.monitor.sample_tick(now)

    # -- what the accessed-bit probes read --------------------------------
    def do_set_rate(self, now, which, lo, span, rate):
        pt, lo, hi = self.flat_range(which, lo, span)
        set_rate(pt, lo, hi, rate)

    def do_add_rate(self, now, which, lo, span, rate):
        pt, lo, hi = self.flat_range(which, lo, span)
        pt.add_rate(lo, hi, rate)

    def do_add_write_rate(self, now, which, lo, span, rate):
        pt, lo, hi = self.flat_range(which, lo, span)
        pt.add_write_rate(lo, hi, rate)

    def do_clear_rates(self, now):
        self.kernel.space.flat.clear_rates()

    def do_promote(self, now, which, chunk):
        _, _, first, n_chunks = self.segment(which)
        self.kernel.space.flat.promote_chunks(np.array([first + chunk % n_chunks]), now)

    def do_demote(self, now, which, chunk):
        _, _, first, n_chunks = self.segment(which)
        self.kernel.space.flat.demote_chunks(np.array([first + chunk % n_chunks]), now)

    # -- the rmap (what the physical probe also reads) --------------------
    def byte_range(self, which, lo, span):
        vmas = self.kernel.space.vmas
        vma = vmas[which % len(vmas)]
        lo, hi = self.page_range(which, lo, span)
        return vma.start + lo * 4096, vma.start + hi * 4096

    def do_touch(self, now, which, lo, span):
        start, end = self.byte_range(which, lo, span)
        self.kernel.apply_access(start, end, now, 100 * MSEC)

    def do_pageout(self, now, which, lo, span):
        start, end = self.byte_range(which, lo, span)
        self.kernel.pageout(start, end, now)

    # -- layout ------------------------------------------------------------
    def do_mmap(self, now, slot):
        if slot not in self.slots:
            self.slots[slot] = self.kernel.mmap(*SLOTS[slot])

    def do_munmap(self, now, slot):
        if slot in self.slots:
            self.kernel.munmap(self.slots.pop(slot))

    def do_assign_regions(self, now, keep):
        ra = self.monitor.regions
        head = RegionArray(min(ra.n, max(1, int(keep * ra.n))))
        for name in _COLUMNS:
            getattr(head, name)[:] = getattr(ra, name)[: head.n]
        self.monitor.regions = head

    def do_track_writes(self, now, flag):
        self.monitor.attrs = dataclasses.replace(self.monitor.attrs, track_writes=flag)


def assert_twins_agree(batched: Twin, single: Twin, where) -> None:
    a, b = batched.monitor, single.monitor
    for name in ("_acc", "_wacc"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), f"{name} {where}"
    assert (a._addrs is None) == (b._addrs is None), f"_addrs {where}"
    if a._addrs is not None:
        assert np.array_equal(a._addrs, b._addrs), f"_addrs {where}"
    for name in _INT_COLUMNS + ("write_ewma",):
        assert np.array_equal(getattr(a._ra, name), getattr(b._ra, name)), f"{name} {where}"
    assert a._pending_since == b._pending_since, where
    assert a.total_checks == b.total_checks, where
    assert a.total_aggregations == b.total_aggregations, where
    # Exact: one ``+=`` per tick, in tick order, not ``rows * x``.
    assert batched.kernel.metrics.monitor_cpu_us == single.kernel.metrics.monitor_cpu_us, where
    assert batched.kernel.metrics.monitor_checks == single.kernel.metrics.monitor_checks, where
    assert a.rng.bit_generator.state == b.rng.bit_generator.state, f"rng position {where}"
    assert batched.queue.clock.now == single.queue.clock.now, where


def drive(primitive_cls, steps):
    """Run ``steps`` on both twins, comparing them at every pause;
    returns the twins."""
    batched = Twin(primitive_cls, batched=True)
    single = Twin(primitive_cls, batched=False)
    now = 0
    for gap, pause, op in steps:
        now += gap
        for twin in (batched, single):
            twin.schedule(now, *op)
        if pause:
            for twin in (batched, single):
                twin.queue.run_until(now)
            assert_twins_agree(batched, single, f"at t={now} after {op!r}")
    for twin in (batched, single):
        twin.queue.run_until(now + 2 * ATTRS.aggregation_interval_us)
    assert_twins_agree(batched, single, "at the end")
    return batched, single


fraction = st.floats(0.0, 1.0, allow_nan=False)
rate = st.sampled_from((0.0, 40.0, 700.0, 5000.0))
which = st.integers(0, 4)
slot = st.integers(0, len(SLOTS) - 1)
OP = st.one_of(
    st.tuples(st.just("sample")),
    st.tuples(st.just("set_rate"), which, fraction, fraction, rate),
    st.tuples(st.just("add_rate"), which, fraction, fraction, rate),
    st.tuples(st.just("add_write_rate"), which, fraction, fraction, rate),
    st.tuples(st.just("clear_rates")),
    st.tuples(st.just("promote"), which, st.integers(0, 3)),
    st.tuples(st.just("demote"), which, st.integers(0, 3)),
    st.tuples(st.just("touch"), which, fraction, fraction),
    st.tuples(st.just("pageout"), which, fraction, fraction),
    st.tuples(st.just("mmap"), slot),
    st.tuples(st.just("munmap"), slot),
    st.tuples(st.just("assign_regions"), fraction),
    st.tuples(st.just("track_writes"), st.booleans()),
)
#: On a tick, off the beat, inside an interval, across several.
GAP = st.sampled_from((0, PERIOD, 3 * PERIOD, 300, 7 * PERIOD + 450, 25 * PERIOD, 230 * PERIOD))
STEP = st.tuples(GAP, st.booleans(), OP)

#: A rate change half way through an interval: the batch must end there.
RATE_MID_INTERVAL = [
    (0, False, ("touch", 0, 0.0, 1.0)),
    (5 * PERIOD, False, ("set_rate", 0, 0.0, 1.0, 5000.0)),
    (6 * PERIOD, True, ("clear_rates",)),
]
#: A huge mapping coarsens what later ticks see (chunk-total rates).
PROMOTE_MID_INTERVAL = [
    (0, False, ("set_rate", 0, 0.0, 0.001, 5000.0)),
    (4 * PERIOD + 300, True, ("promote", 0, 0)),
]
#: A layout change the next regions update picks up, paused mid-interval.
MMAP_BEFORE_UPDATE = [(190 * PERIOD, False, ("mmap", 0)), (15 * PERIOD, True, ("sample",))]
#: Frames change hands inside intervals: the physical probe's rmap.
RMAP_MID_INTERVAL = [
    (0, False, ("touch", 0, 0.0, 1.0)),
    (0, False, ("set_rate", 0, 0.0, 1.0, 5000.0)),
    (4 * PERIOD, False, ("pageout", 0, 0.0, 0.5)),
    (4 * PERIOD, True, ("touch", 0, 0.0, 0.25)),
    (3 * PERIOD, False, ("track_writes", True)),
    (7 * PERIOD + 450, True, ("assign_regions", 0.5)),
]

PRIMITIVES = pytest.mark.parametrize("primitive_cls", [VirtualPrimitive, PhysicalPrimitive])


@PRIMITIVES
@settings(max_examples=40, deadline=None)
@given(steps=st.lists(STEP, min_size=1, max_size=30))
@example(steps=RATE_MID_INTERVAL)
@example(steps=PROMOTE_MID_INTERVAL)
@example(steps=MMAP_BEFORE_UPDATE)
@example(steps=RMAP_MID_INTERVAL)
def test_lookahead_equals_tick_by_tick(primitive_cls, steps):
    drive(primitive_cls, steps)


@PRIMITIVES
def test_the_planning_twin_really_looks_ahead(primitive_cls):
    """The property above is vacuous if both twins sample tick by tick:
    with nothing else queued, the started monitor serves an aggregation
    interval's ticks in one call."""
    batched, single = drive(primitive_cls, [])
    intervals = 2
    assert batched.monitor.total_aggregations == single.monitor.total_aggregations == intervals
    assert batched.monitor.calls == intervals
    assert single.monitor.calls == intervals * ATTRS.max_nr_accesses
