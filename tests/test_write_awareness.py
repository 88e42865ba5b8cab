"""Write-awareness — the paper's stated future work, implemented.

"At the moment, DAOS does not treat memory reads and writes
differently ... We leave this feature for future versions of DAOS."
(§1 Limitations.)  These tests cover the whole added channel: dirty-bit
sampling in the monitor, write-frequency scheme bounds, and dirty-aware
writeback pricing on swap-out.
"""

import pytest

from repro.monitor.attrs import MonitorAttrs
from repro.monitor.core import DataAccessMonitor
from repro.monitor.primitives import PhysicalPrimitive, VirtualPrimitive
from repro.schemes.actions import Action
from repro.schemes.engine import SchemesEngine
from repro.schemes.scheme import AccessPattern, Scheme
from repro.units import MIB, MSEC, SEC

from tests.helpers import BASE, run_epochs, write_frequency

WATTRS = MonitorAttrs(
    sampling_interval_us=1 * MSEC,
    aggregation_interval_us=20 * MSEC,
    regions_update_interval_us=200 * MSEC,
    min_nr_regions=10,
    max_nr_regions=200,
    track_writes=True,
)


def run_read_write_split(kernel, queue, monitor, n_epochs=25):
    """First 8 MiB read-hot, next 8 MiB write-hot, rest untouched."""
    monitor.start(queue)
    snaps = []
    monitor.register_raw_callback(lambda mon, now: snaps.append(mon.snapshot(now)))
    run_epochs(
        kernel,
        queue,
        [
            dict(start=BASE, end=BASE + 8 * MIB, touches_per_page=2000),
            dict(
                start=BASE + 8 * MIB,
                end=BASE + 16 * MIB,
                touches_per_page=2000,
                write_fraction=1.0,
            ),
        ],
        n_epochs=n_epochs,
    )
    return snaps


class TestMonitorWriteTracking:
    def test_write_hot_regions_show_writes(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 64 * MIB)
        monitor = DataAccessMonitor(VirtualPrimitive(kernel), WATTRS, seed=3)
        snaps = run_read_write_split(kernel, queue, monitor)
        last = snaps[-1]
        write_hot = sum(
            r.size
            for r in last.regions
            if write_frequency(r, last.max_nr_accesses) > 0.5
        )
        assert 4 * MIB < write_hot < 16 * MIB

    def test_read_hot_regions_show_no_writes(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 64 * MIB)
        monitor = DataAccessMonitor(VirtualPrimitive(kernel), WATTRS, seed=3)
        snaps = run_read_write_split(kernel, queue, monitor)
        last = snaps[-1]
        for region in last.regions:
            if region.start < BASE + 7 * MIB and region.end <= BASE + 8 * MIB:
                assert region.nr_writes <= 2  # read-hot: essentially clean

    def test_tracking_off_reports_zero_writes(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 64 * MIB)
        monitor = DataAccessMonitor(VirtualPrimitive(kernel), fast_attrs, seed=3)
        snaps = run_read_write_split(kernel, queue, monitor)
        assert all(r.nr_writes == 0 for s in snaps for r in s.regions)

    def test_paddr_primitive_tracks_writes_too(self, kernel, queue):
        kernel.mmap(BASE, 64 * MIB)
        monitor = DataAccessMonitor(PhysicalPrimitive(kernel), WATTRS, seed=3)
        snaps = run_read_write_split(kernel, queue, monitor)
        last = snaps[-1]
        # Merging only considers nr_accesses (as upstream), so the
        # read-hot and write-hot halves may fold into one region whose
        # write count is the size-weighted blend — about half the
        # access count here.
        assert any(r.nr_writes >= 8 for r in last.regions)


class TestWriteAwareSchemes:
    def test_wfreq_bounds_validated(self):
        with pytest.raises(Exception):
            AccessPattern(min_wfreq=0.9, max_wfreq=0.2)

    def test_clean_only_pattern(self):
        from repro.monitor.region import RegionArray

        attrs = WATTRS
        pattern = AccessPattern(max_wfreq=0.0)
        # Row 0 clean, row 1 dirty.
        ra = RegionArray.from_bounds([0, 8 * MIB], [8 * MIB, 16 * MIB])
        ra.nr_accesses[:] = 10
        ra.nr_writes[1] = 10
        assert pattern.match_mask(ra, attrs).tolist() == [True, False]

    def test_write_heavy_pattern(self):
        from repro.monitor.region import RegionArray

        attrs = WATTRS
        pattern = AccessPattern(min_wfreq=0.5)
        # Row 0 dirty, row 1 clean.
        ra = RegionArray.from_bounds([0, MIB], [MIB, 2 * MIB])
        ra.nr_accesses[:] = 15
        ra.nr_writes[0] = 15
        assert pattern.match_mask(ra, attrs).tolist() == [True, False]

    def test_engine_targets_clean_memory_only(self, kernel, queue):
        """A clean-only PAGEOUT scheme must reclaim the read-cold part
        and leave write-active memory alone."""
        kernel.mmap(BASE, 64 * MIB)
        monitor = DataAccessMonitor(VirtualPrimitive(kernel), WATTRS, seed=3)
        scheme = Scheme(
            pattern=AccessPattern(max_freq=0.0, max_wfreq=0.0, min_age_us=100 * MSEC),
            action=Action.PAGEOUT,
        )
        engine = SchemesEngine(kernel, [scheme])
        monitor.attach_engine(engine)
        monitor.start(queue)
        # Populate everything once (clean); keep 8-16 MiB write-hot.
        kernel.apply_access(BASE, BASE + 64 * MIB, now=0, epoch_us=100 * MSEC)
        run_epochs(
            kernel,
            queue,
            [
                dict(
                    start=BASE + 8 * MIB,
                    end=BASE + 16 * MIB,
                    touches_per_page=2000,
                    write_fraction=1.0,
                )
            ],
            n_epochs=30,
        )
        pt = kernel.space.flat
        write_hot_pages = slice(8 * MIB // 4096, 16 * MIB // 4096)
        assert pt.present[write_hot_pages].all()  # never paged out
        assert scheme.stats.sz_applied > 16 * MIB  # cold clean memory went


class TestDirtyAwareWriteback:
    def test_clean_pageout_costs_no_writeback(self, kernel):
        kernel.mmap(BASE, 16 * MIB)
        kernel.apply_access(BASE, BASE + 8 * MIB, now=0, epoch_us=100 * MSEC)
        kernel.pageout(BASE, BASE + 8 * MIB, now=1)
        assert kernel.metrics.pages_written_back == 0

    def test_dirty_pageout_pays_writeback(self, kernel):
        kernel.mmap(BASE, 16 * MIB)
        kernel.apply_access(
            BASE, BASE + 8 * MIB, now=0, epoch_us=100 * MSEC, write_fraction=1.0
        )
        kernel.pageout(BASE, BASE + 8 * MIB, now=1)
        assert kernel.metrics.pages_written_back == 8 * MIB // 4096

    def test_second_pageout_of_unwritten_pages_is_free(self, kernel):
        kernel.mmap(BASE, 16 * MIB)
        kernel.apply_access(
            BASE, BASE + 4 * MIB, now=0, epoch_us=100 * MSEC, write_fraction=1.0
        )
        kernel.pageout(BASE, BASE + 4 * MIB, now=1)
        first = kernel.metrics.pages_written_back
        # Fault back in READ-only, page out again: content unchanged.
        kernel.apply_access(BASE, BASE + 4 * MIB, now=2, epoch_us=100 * MSEC)
        kernel.pageout(BASE, BASE + 4 * MIB, now=3)
        assert kernel.metrics.pages_written_back == first

    def test_rewritten_pages_pay_again(self, kernel):
        kernel.mmap(BASE, 16 * MIB)
        kernel.apply_access(
            BASE, BASE + 4 * MIB, now=0, epoch_us=100 * MSEC, write_fraction=1.0
        )
        kernel.pageout(BASE, BASE + 4 * MIB, now=1)
        first = kernel.metrics.pages_written_back
        kernel.apply_access(
            BASE, BASE + 4 * MIB, now=2, epoch_us=100 * MSEC, write_fraction=1.0
        )
        kernel.pageout(BASE, BASE + 4 * MIB, now=3)
        assert kernel.metrics.pages_written_back == 2 * first
