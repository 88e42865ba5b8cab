"""Regression tests for the monitor hot-path fidelity fixes.

Three real bugs, each with a test that fails on the pre-fix code:

1. **Lost sampling check** — ``aggregate_tick`` used to end by clearing
   the sampling state, so the first sampling tick of every aggregation
   interval only *prepared* and the observable access-count ceiling was
   ``aggregation/sampling − 1``, never the ``attrs.max_nr_accesses``
   the schemes engine quantizes against.
2. **Dropped address-space slivers** — layout clipping (now
   ``RegionArray.clipped_to``) used to silently discard
   sub-``MIN_REGION_SIZE`` pieces (clipped survivors and gap fills), so
   after layout churn the region list stopped tiling the target ranges:
   mapped bytes left monitoring forever.
3. **Silent zip truncation** — the counter-publish step used to
   ``zip()`` regions with the accumulator arrays; a length divergence
   (a callback mutating the region list mid-interval) dropped counts
   without any error instead of raising ``MonitorStateError``.
"""

import numpy as np
import pytest

from repro.errors import MonitorStateError
from repro.monitor.attrs import MonitorAttrs
from repro.monitor.core import DataAccessMonitor
from repro.monitor.primitives import MonitoringPrimitive
from repro.monitor.region import MIN_REGION_SIZE, RegionArray
from repro.clock import EventQueue
from repro.trace import AccessSampled, TraceBus
from repro.units import MIB, MSEC

from tests.helpers import BASE

K = MIN_REGION_SIZE

ATTRS = MonitorAttrs(
    sampling_interval_us=1 * MSEC,
    aggregation_interval_us=20 * MSEC,
    regions_update_interval_us=200 * MSEC,
    min_nr_regions=5,
    max_nr_regions=100,
)


class SaturatingPrimitive(MonitoringPrimitive):
    """Every sample check hits: the ceiling-probing workload."""

    name = "vaddr"

    def __init__(self, ranges):
        self._ranges = list(ranges)

    def target_ranges(self):
        return list(self._ranges)

    def layout_generation(self):
        return 0

    def access_probabilities(self, addrs, window_us):
        return np.ones(len(addrs))

    def write_probabilities(self, addrs, window_us):
        return np.zeros(len(addrs))

    def charge_checks(self, n_checks, wakeups=1):
        return None


# ----------------------------------------------------------------------
# Fix 1: the full complement of checks lands every aggregation interval
# ----------------------------------------------------------------------
class TestSamplingCheckNotLost:
    def test_saturating_workload_reaches_max_nr_accesses(self):
        """A region whose sample page is always hot must read exactly
        ``attrs.max_nr_accesses`` — with the lost-check bug the maximum
        observable count was ``max_nr_accesses - 1`` forever."""
        monitor = DataAccessMonitor(
            SaturatingPrimitive([(BASE, BASE + 4 * MIB)]), ATTRS, seed=3
        )
        queue = EventQueue()
        maxima = []
        monitor.register_raw_callback(
            lambda mon, now: maxima.append(max(mon.snapshot(now).nr_accesses))
        )
        monitor.start(queue)
        queue.run_until(queue.clock.now + 4 * ATTRS.aggregation_interval_us)
        assert len(maxima) >= 3
        # From the second interval on, every interval carries its full
        # aggregation/sampling checks.
        assert max(maxima) == ATTRS.max_nr_accesses
        assert all(m == ATTRS.max_nr_accesses for m in maxima[1:])

    def test_counts_never_exceed_the_ceiling(self):
        """The fix must not overshoot: the ceiling stays a ceiling."""
        monitor = DataAccessMonitor(
            SaturatingPrimitive([(BASE, BASE + 4 * MIB)]), ATTRS, seed=4
        )
        queue = EventQueue()
        seen = []
        monitor.register_raw_callback(
            lambda mon, now: seen.extend(mon.regions.nr_accesses.tolist())
        )
        monitor.start(queue)
        queue.run_until(queue.clock.now + 6 * ATTRS.aggregation_interval_us)
        assert seen
        assert max(seen) <= ATTRS.max_nr_accesses


class WindowedSaturatingPrimitive(SaturatingPrimitive):
    """Hot whenever any time has passed since the bit was cleared, which
    is what a real accessed bit gives a saturating page; a zero-length
    window cannot hit.  (``SaturatingPrimitive`` ignores the window.)"""

    def access_probabilities(self, addrs, window_us):
        return np.full(len(addrs), 1.0 if window_us > 0 else 0.0)


class LoggingMonitor(DataAccessMonitor):
    """Records which tick fired when: aggregations per call, sampling
    ticks per ``AccessSampled`` event at the queue's clock (a dispatched
    ``sample_tick`` call serves every tick due before the next event)."""

    def __init__(self, *args, queue, **kwargs):
        super().__init__(*args, trace=TraceBus(queue.clock, ring_capacity=0), **kwargs)
        self.fired = []
        self.trace.subscribe(
            AccessSampled, lambda event: self.fired.append((event.time_us, "sample"))
        )

    def aggregate_tick(self, now):
        self.fired.append((now, "aggregate"))
        super().aggregate_tick(now)


class TestSameInstantTickOrder:
    """Under the event queue, the sample tick sharing an instant with an
    aggregation fires before it, and both before the driver's epoch
    event: kdamond's order, whatever order the ticks were re-queued in."""

    def _run(self, intervals):
        queue = EventQueue()
        monitor = LoggingMonitor(
            WindowedSaturatingPrimitive([(BASE, BASE + 4 * MIB)]), ATTRS, seed=3, queue=queue
        )
        maxima = []
        monitor.register_raw_callback(
            lambda mon, now: maxima.append(max(mon.snapshot(now).nr_accesses))
        )
        monitor.start(queue)
        # Registered after the monitor, one per aggregation: the epoch
        # event of ``ExperimentRun.start``.
        queue.schedule_periodic(
            ATTRS.aggregation_interval_us,
            lambda now: monitor.fired.append((now, "epoch")),
            name="epoch",
        )
        queue.run_until(queue.clock.now + intervals * ATTRS.aggregation_interval_us)
        return monitor, maxima

    def test_order_is_sample_aggregate_epoch(self):
        monitor, _ = self._run(3)
        for k in (1, 2, 3):
            instant = k * ATTRS.aggregation_interval_us
            assert [what for now, what in monitor.fired if now == instant] == [
                "sample",
                "aggregate",
                "epoch",
            ]

    def test_saturating_region_reads_exact_maximum_under_the_queue(self):
        _, maxima = self._run(4)
        assert len(maxima) == 4
        assert all(m == ATTRS.max_nr_accesses for m in maxima[1:])


# ----------------------------------------------------------------------
# Fix 2: layout clipping never drops bytes
# ----------------------------------------------------------------------
def _counted(*rows, last=5, age=3, writes=2):
    """A table of ``(start, end, nr_accesses)`` rows."""
    ra = RegionArray.from_bounds([row[0] for row in rows], [row[1] for row in rows])
    ra.nr_accesses[:] = [row[2] for row in rows]
    ra.last_nr_accesses[:] = last
    ra.age[:] = age
    ra.nr_writes[:] = writes
    return ra


def _bounds(ra):
    return list(zip(ra.start.tolist(), ra.end.tolist()))


class TestRegionsIntersectingTiling:
    def test_sub_min_gap_sliver_is_absorbed_not_dropped(self):
        """A sub-page hole between two survivors used to vanish from
        monitoring; now the next region extends down over it."""
        regions = _counted((0, K, 1), (K + K // 2, 3 * K, 9))
        ranges = [(0, 3 * K)]
        out = regions.clipped_to(ranges)
        assert out.total_bytes() == 3 * K  # tiling: no lost bytes
        (i,) = [i for i, (s, e) in enumerate(_bounds(out)) if s <= K + K // 2 < e]
        assert out.start[i] == K  # extended over the sliver
        assert out.nr_accesses[i] == 9  # keeping its own counters

    def test_sub_min_clipped_survivor_is_absorbed_not_dropped(self):
        """A survivor clipped below the minimum size used to be
        discarded (with its bytes); now the previous region extends over
        it."""
        regions = _counted((0, K, 4), (K, 2 * K, 8))
        ranges = [(0, K + K // 4)]
        out = regions.clipped_to(ranges)
        assert out.total_bytes() == K + K // 4
        assert out.n == 1
        assert _bounds(out) == [(0, K + K // 4)]
        assert out.nr_accesses[0] == 4

    def test_aligned_layouts_unchanged(self):
        """Page-aligned clipping (the common case) behaves exactly as
        before: survivors keep counters, uncovered space gets fresh
        regions."""
        regions = _counted((0, 2 * K, 6), (2 * K, 4 * K, 2))
        ranges = [(K, 6 * K)]
        out = regions.clipped_to(ranges)
        assert _bounds(out) == [(K, 2 * K), (2 * K, 4 * K), (4 * K, 6 * K)]
        assert out.nr_accesses.tolist() == [6, 2, 0]

    def test_whole_range_below_minimum_is_skipped(self):
        assert _counted((0, K, 7)).clipped_to([(0, K // 2)]).n == 0

    def test_monitor_invariants_include_tiling(self):
        """check_invariants now asserts the region list covers the
        target ranges byte for byte."""
        monitor = DataAccessMonitor(
            SaturatingPrimitive([(BASE, BASE + 16 * MIB)]), ATTRS, seed=1
        )
        monitor.init_regions()
        monitor.check_invariants()  # tiles after init
        ra = monitor.regions
        monitor.regions = RegionArray.from_bounds(ra.start[:-1], ra.end[:-1])  # break the tiling
        with pytest.raises(MonitorStateError, match="tile"):
            monitor.check_invariants()


# ----------------------------------------------------------------------
# Fix 3: counter publish fails loudly on length divergence
# ----------------------------------------------------------------------
class TestCounterPublishStrict:
    def _monitor(self):
        monitor = DataAccessMonitor(primitive=None, attrs=ATTRS, seed=2)
        monitor.regions = RegionArray.from_bounds([0, K, 2 * K], [K, 2 * K, 3 * K])
        return monitor

    def test_short_accumulator_raises_with_both_lengths(self):
        monitor = self._monitor()
        monitor._acc = np.zeros(2, dtype=np.int64)  # a callback "ate" a region
        with pytest.raises(MonitorStateError, match=r"3 regions.*2 access"):
            monitor.aggregate_tick(ATTRS.aggregation_interval_us)

    def test_long_write_accumulator_raises(self):
        monitor = self._monitor()
        monitor._wacc = np.zeros(5, dtype=np.int64)
        with pytest.raises(MonitorStateError, match=r"5 write"):
            monitor.aggregate_tick(ATTRS.aggregation_interval_us)

    def test_matching_lengths_publish_cleanly(self):
        monitor = self._monitor()
        monitor._acc = np.array([1, 2, 3], dtype=np.int64)
        published = []
        monitor.register_raw_callback(
            lambda mon, now: published.extend(mon.regions.nr_accesses.tolist())
        )
        monitor.aggregate_tick(ATTRS.aggregation_interval_us)
        # Merge may fold the similar-count neighbours; the weighted
        # averages still come from the published values.
        assert published
        assert min(published) >= 1
