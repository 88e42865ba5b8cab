"""Stateful property test: the monitor under arbitrary driving.

A hypothesis rule-based state machine interleaves workload epochs,
monitor ticks, layout changes and scheme applications in random orders
and checks the structural invariants after every step:

* regions are sorted, non-overlapping, and at least one page each;
* the region count respects the configured maximum;
* per-region counters stay within their theoretical ceilings;
* page state stays consistent (present/swapped disjoint, huge chunks
  fully resident, bloat pages resident).
"""

import numpy as np
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

from repro.monitor.attrs import MonitorAttrs
from repro.monitor.core import DataAccessMonitor
from repro.monitor.primitives import VirtualPrimitive
from repro.schemes.engine import SchemesEngine
from repro.schemes.parser import parse_scheme
from repro.clock import EventQueue
from repro.sim.kernel import SimKernel
from repro.sim.machine import GuestSpec, get_instance
from repro.sim.swap import ZramDevice
from repro.units import MIB, MSEC

BASE = 0x7F00_0000_0000
FOOTPRINT = 64 * MIB

ATTRS = MonitorAttrs(
    sampling_interval_us=1 * MSEC,
    aggregation_interval_us=10 * MSEC,
    regions_update_interval_us=100 * MSEC,
    min_nr_regions=5,
    max_nr_regions=100,
)


class MonitorMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        guest = GuestSpec(host=get_instance("i3.metal"), vcpus=4, dram_bytes=256 * MIB)
        self.kernel = SimKernel(guest, swap=ZramDevice(128 * MIB), seed=11)
        self.kernel.mmap(BASE, FOOTPRINT)
        self.queue = EventQueue()
        self.monitor = DataAccessMonitor(VirtualPrimitive(self.kernel), ATTRS, seed=13)
        self.engine = SchemesEngine(
            self.kernel,
            [parse_scheme("4K max min min 30ms max pageout", ATTRS)],
        )
        self.monitor.attach_engine(self.engine)
        self.monitor.start(self.queue)
        self.extra_vmas = []

    # -- driving rules ---------------------------------------------------
    @rule(
        eighth=st.integers(min_value=0, max_value=7),
        touches=st.sampled_from([1, 50, 2000]),
        writes=st.sampled_from([0.0, 1.0]),
    )
    def touch_region(self, eighth, touches, writes):
        start = BASE + eighth * FOOTPRINT // 8
        self.kernel.begin_epoch()
        self.kernel.apply_access(
            start,
            start + FOOTPRINT // 8,
            self.queue.clock.now,
            10 * MSEC,
            touches_per_page=touches,
            write_fraction=writes,
            stall_weight=0.0,
        )

    @rule(ticks=st.integers(min_value=1, max_value=30))
    def advance_time(self, ticks):
        self.queue.run_for(ticks * MSEC)

    @rule()
    def mmap_extra(self):
        if len(self.extra_vmas) < 3:
            offset = (len(self.extra_vmas) + 2) * 256 * MIB
            self.extra_vmas.append(self.kernel.mmap(BASE + offset, 8 * MIB))

    @rule()
    def munmap_extra(self):
        if self.extra_vmas:
            self.kernel.munmap(self.extra_vmas.pop())

    @rule(eighth=st.integers(min_value=0, max_value=7))
    def promote_huge(self, eighth):
        start = BASE + eighth * FOOTPRINT // 8
        self.kernel.apply_access(
            start, start + 2 * MIB, self.queue.clock.now, 10 * MSEC, stall_weight=0.0
        )
        self.kernel.madvise_hugepage(start, start + 2 * MIB, self.queue.clock.now)

    @rule(eighth=st.integers(min_value=0, max_value=7))
    def demote_huge(self, eighth):
        start = BASE + eighth * FOOTPRINT // 8
        self.kernel.madvise_nohugepage(start, start + 2 * MIB, self.queue.clock.now)

    # -- invariants --------------------------------------------------------
    @invariant()
    def regions_well_formed(self):
        self.monitor.check_invariants()
        assert self.monitor.nr_regions() <= ATTRS.max_nr_regions

    @invariant()
    def counters_within_ceilings(self):
        ra = self.monitor.regions
        for column in (ra.nr_accesses, ra.nr_writes):
            assert ((0 <= column) & (column <= ATTRS.max_nr_accesses)).all()
        assert (ra.age >= 0).all()

    @invariant()
    def page_state_consistent(self):
        pt = self.kernel.space.flat
        assert not (pt.present & pt.swapped).any()
        assert not (pt.bloat & ~pt.present).any()
        huge = np.nonzero(pt.chunk_huge)[0]
        assert pt.present[pt.chunk_pages(huge)].all()

    @invariant()
    def frame_accounting_consistent(self):
        pt = self.kernel.space.flat
        have_frame = pt.frame >= 0
        # Present pages (outside a mid-fault window, which cannot
        # happen between rules) all hold frames and vice versa.
        assert (have_frame == pt.present).all()
        assert int(np.count_nonzero(have_frame)) == self.kernel.frames.allocated


MonitorMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None
)
TestMonitorMachine = MonitorMachine.TestCase
