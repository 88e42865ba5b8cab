"""Sampling lookahead changes no result bit: a metamorphic property.

Two monitors with the same seed watch twin kernels.  One primitive
(virtual or physical) reports its ``probe_generation``, so the monitor
plans a whole aggregation interval of sampling ahead; the other is the
same primitive with the generation forced to ``None``, so every plan is
one round, drawn and asked per tick: the tick-by-tick sampler.  Whatever
interleaving of ticks and kernel or layout changes drives them, the two
must agree after every step on every counter, every region column and
the RNG position.  No frozen oracle is involved.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.monitor.attrs import MonitorAttrs
from repro.monitor.core import DataAccessMonitor
from repro.monitor.primitives import PhysicalPrimitive, VirtualPrimitive
from repro.monitor.region import _INT_COLUMNS
from repro.sim.kernel import SimKernel
from repro.sim.machine import GuestSpec, get_instance
from repro.sim.swap import ZramDevice
from repro.units import MIB, MSEC

from tests.helpers import BASE

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


def blind(primitive_cls):
    """The same target, unable to say whether its answer moved."""

    class Blind(primitive_cls):
        def probe_generation(self):
            return None

    return Blind


class Twin:
    """One kernel + monitor, with the steps both twins take."""

    def __init__(self, primitive_cls):
        guest = GuestSpec(host=get_instance("i3.metal"), vcpus=4, dram_bytes=256 * MIB)
        self.kernel = SimKernel(guest, swap=ZramDevice(32 * MIB), seed=7)
        for start, size in FIXED:
            self.kernel.mmap(start, size)
        self.slots = {}
        self.monitor = DataAccessMonitor(primitive_cls(self.kernel), ATTRS, seed=11)
        self.monitor.init_regions()
        self.now = 0

    def pages(self, which):
        vmas = self.kernel.space.vmas
        return vmas[which % len(vmas)].pages

    def page_range(self, which, lo, span):
        pt = self.pages(which)
        lo = int(lo * (pt.n_pages - 1))
        return pt, lo, min(pt.n_pages, lo + 1 + int(span * pt.n_pages))

    def step(self, op, *args):
        getattr(self, "do_" + op)(*args)

    # -- monitor ticks ---------------------------------------------------
    def do_sample(self, dt):
        self.now += dt
        self.monitor.sample_tick(self.now)

    def do_aggregate(self):
        self.monitor.aggregate_tick(self.now)

    def do_update(self):
        self.monitor.regions_update_tick(self.now)

    # -- everything the probe generation covers --------------------------
    def do_set_rate(self, which, lo, span, rate):
        pt, lo, hi = self.page_range(which, lo, span)
        pt.set_rate(lo, hi, rate)

    def do_add_rate(self, which, lo, span, rate):
        pt, lo, hi = self.page_range(which, lo, span)
        pt.add_rate(lo, hi, rate)

    def do_add_write_rate(self, which, lo, span, rate):
        pt, lo, hi = self.page_range(which, lo, span)
        pt.add_write_rate(lo, hi, rate)

    def do_clear_rates(self):
        self.kernel.space.clear_rates()

    def do_promote(self, which, chunk):
        pt = self.pages(which)
        pt.promote_chunks(np.array([chunk % pt.n_chunks]), self.now)

    def do_demote(self, which, chunk):
        pt = self.pages(which)
        pt.demote_chunks(np.array([chunk % pt.n_chunks]), self.now)

    # -- the rmap (what the physical probe also reads) --------------------
    def byte_range(self, which, lo, span):
        vmas = self.kernel.space.vmas
        vma = vmas[which % len(vmas)]
        _, lo, hi = self.page_range(which, lo, span)
        return vma.start + lo * 4096, vma.start + hi * 4096

    def do_touch(self, which, lo, span):
        start, end = self.byte_range(which, lo, span)
        self.kernel.apply_access(start, end, self.now, 100 * MSEC)

    def do_pageout(self, which, lo, span):
        start, end = self.byte_range(which, lo, span)
        self.kernel.pageout(start, end, self.now)

    # -- layout ------------------------------------------------------------
    def do_mmap(self, slot):
        if slot not in self.slots:
            self.slots[slot] = self.kernel.mmap(*SLOTS[slot])

    def do_munmap(self, slot):
        if slot in self.slots:
            self.kernel.munmap(self.slots.pop(slot))

    def do_assign_regions(self, keep):
        regions = self.monitor._ra.to_regions()
        self.monitor.regions = regions[: max(1, int(keep * len(regions)))]

    def do_track_writes(self, flag):
        self.monitor.attrs = dataclasses.replace(self.monitor.attrs, track_writes=flag)


def assert_twins_agree(planned: Twin, unplanned: Twin, step) -> None:
    a, b = planned.monitor, unplanned.monitor
    where = f"after {step!r}"
    for name in ("_acc", "_wacc"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), f"{name} {where}"
    assert (a._addrs is None) == (b._addrs is None), f"_addrs {where}"
    if a._addrs is not None:
        assert np.array_equal(a._addrs, b._addrs), f"_addrs {where}"
    for name in _INT_COLUMNS + ("write_ewma",):
        assert np.array_equal(getattr(a._ra, name), getattr(b._ra, name)), f"{name} {where}"
    assert a._pending_since == b._pending_since, where
    assert a.total_checks == b.total_checks, where
    # Exact: twenty ``+=`` of one float, not ``20 * x``.
    assert planned.kernel.metrics.monitor_cpu_us == unplanned.kernel.metrics.monitor_cpu_us, where
    assert planned.kernel.metrics.monitor_checks == unplanned.kernel.metrics.monitor_checks, where
    # The planning monitor's live generator runs ahead of the rows it has
    # served; the position it reports for a checkpoint is the rewound one.
    rewound = a.__getstate__()["rng"].bit_generator.state
    assert rewound == b.rng.bit_generator.state, f"rng position {where}"


fraction = st.floats(0.0, 1.0, allow_nan=False)
rate = st.sampled_from((0.0, 40.0, 700.0, 5000.0))
which = st.integers(0, 4)
slot = st.integers(0, len(SLOTS) - 1)
STEP = st.one_of(
    # Mostly on the beat, so plans live long enough to be overtaken.
    st.tuples(st.just("sample"), st.sampled_from((PERIOD,) * 6 + (0, 300, 2 * PERIOD))),
    st.tuples(st.just("sample"), st.just(PERIOD)),
    st.tuples(st.just("aggregate")),
    st.tuples(st.just("update")),
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

BEAT = ("sample", PERIOD)
#: A rate change under a live plan: the case the generation exists for.
#: (Resident first: the physical probe only sees pages that hold a frame.)
RATE_MID_PLAN = (
    [("touch", 0, 0.0, 1.0)] + [BEAT] * 4 + [("set_rate", 0, 0.0, 1.0, 5000.0)] + [BEAT] * 6
)
#: A huge mapping coarsens what later rows see (chunk-total rates).
PROMOTE_MID_PLAN = (
    [("set_rate", 0, 0.0, 0.001, 5000.0)] + [BEAT] * 4 + [("promote", 0, 0)] + [BEAT] * 6
)
#: A layout change with a plan in flight: the update tick must rewind.
UPDATE_MID_PLAN = [BEAT] * 5 + [("mmap", 0), ("update",)] + [BEAT] * 3 + [("aggregate",)]
#: Frames change hands under a live plan: the physical probe's rmap.
RMAP_MID_PLAN = (
    [("touch", 0, 0.0, 1.0), ("set_rate", 0, 0.0, 1.0, 5000.0)]
    + [BEAT] * 4
    + [("pageout", 0, 0.0, 0.5)]
    + [BEAT] * 4
    + [("touch", 0, 0.0, 0.25)]
    + [BEAT] * 4
)

PRIMITIVES = pytest.mark.parametrize("primitive_cls", [VirtualPrimitive, PhysicalPrimitive])


@PRIMITIVES
@settings(max_examples=40, deadline=None)
@given(steps=st.lists(STEP, min_size=1, max_size=60))
@example(steps=RATE_MID_PLAN)
@example(steps=PROMOTE_MID_PLAN)
@example(steps=UPDATE_MID_PLAN)
@example(steps=RMAP_MID_PLAN)
def test_lookahead_equals_tick_by_tick(primitive_cls, steps):
    planned, unplanned = Twin(primitive_cls), Twin(blind(primitive_cls))
    for step in steps:
        planned.step(*step)
        unplanned.step(*step)
        assert_twins_agree(planned, unplanned, step)


@PRIMITIVES
def test_the_planning_twin_really_looks_ahead(primitive_cls):
    """The property above is vacuous if both twins sample tick by tick."""
    planned, unplanned = Twin(primitive_cls), Twin(blind(primitive_cls))
    for twin in (planned, unplanned):
        for _ in range(3):
            twin.do_sample(PERIOD)
    assert planned.monitor._plan.rounds == ATTRS.max_nr_accesses
    assert unplanned.monitor._plan.rounds == 1
