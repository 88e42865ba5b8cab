"""DataAccessMonitor: the kdamond loop on the simulated kernel."""

from unittest import mock

import pytest

from repro.errors import ConfigError, MonitorStateError
from repro.monitor.attrs import MonitorAttrs
from repro.monitor.core import DataAccessMonitor
from repro.monitor.overhead import theoretical_bound_cpu_share
from repro.monitor.primitives import PhysicalPrimitive, VirtualPrimitive
from repro.clock import EventQueue
from repro.runner.experiment import run_experiment
from repro.sim.kernel import SimKernel
from repro.units import MIB, MSEC, SEC

from tests.helpers import BASE, run_epochs


def make_monitor(kernel, attrs, seed=3, primitive_cls=VirtualPrimitive):
    return DataAccessMonitor(primitive_cls(kernel), attrs, seed=seed)


class TestAttrs:
    def test_paper_defaults(self):
        attrs = MonitorAttrs()
        assert attrs.sampling_interval_us == 5 * MSEC
        assert attrs.aggregation_interval_us == 100 * MSEC
        assert attrs.regions_update_interval_us == 1 * SEC
        assert attrs.min_nr_regions == 10
        assert attrs.max_nr_regions == 1000

    def test_max_nr_accesses(self):
        assert MonitorAttrs().max_nr_accesses == 20

    def test_age_interval_conversion(self):
        attrs = MonitorAttrs()
        assert attrs.age_intervals(5 * SEC) == 50
        assert attrs.age_intervals(99 * MSEC) == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            MonitorAttrs(sampling_interval_us=0)
        with pytest.raises(ConfigError):
            MonitorAttrs(aggregation_interval_us=3 * MSEC, sampling_interval_us=5 * MSEC)
        with pytest.raises(ConfigError):
            MonitorAttrs(aggregation_interval_us=101 * MSEC)  # not a multiple
        with pytest.raises(ConfigError):
            MonitorAttrs(regions_update_interval_us=50 * MSEC)
        with pytest.raises(ConfigError):
            MonitorAttrs(min_nr_regions=2)
        with pytest.raises(ConfigError):
            MonitorAttrs(min_nr_regions=100, max_nr_regions=50)


class TestLifecycle:
    def test_init_regions_near_min(self, kernel, fast_attrs):
        kernel.mmap(BASE, 64 * MIB)
        monitor = make_monitor(kernel, fast_attrs)
        monitor.init_regions()
        assert (
            fast_attrs.min_nr_regions
            <= monitor.nr_regions()
            <= fast_attrs.min_nr_regions + 3
        )
        monitor.check_invariants()

    def test_double_start_rejected(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 64 * MIB)
        monitor = make_monitor(kernel, fast_attrs)
        monitor.start(queue)
        with pytest.raises(MonitorStateError):
            monitor.start(queue)

    def test_stop_cancels_ticks(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 64 * MIB)
        monitor = make_monitor(kernel, fast_attrs)
        monitor.start(queue)
        queue.run_for(100 * MSEC)
        checks = monitor.total_checks
        monitor.stop()
        queue.run_for(100 * MSEC)
        assert monitor.total_checks == checks


class TestRegionBounds:
    def test_region_count_always_within_bounds(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 256 * MIB)
        monitor = make_monitor(kernel, fast_attrs)
        monitor.start(queue)
        counts = []
        monitor.register_raw_callback(lambda mon, now: counts.append(mon.nr_regions()))
        run_epochs(
            kernel,
            queue,
            [dict(start=BASE, end=BASE + 32 * MIB, touches_per_page=1000)],
            n_epochs=20,
        )
        assert counts, "no aggregations happened"
        assert max(counts) <= fast_attrs.max_nr_regions
        # min bound holds after the first merge pass settles
        assert min(counts[2:]) >= fast_attrs.min_nr_regions / 2

    def test_invariants_hold_throughout(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 64 * MIB)
        monitor = make_monitor(kernel, fast_attrs)
        monitor.start(queue)
        monitor.register_raw_callback(lambda mon, now: mon.check_invariants())
        run_epochs(
            kernel,
            queue,
            [dict(start=BASE, end=BASE + 8 * MIB, touches_per_page=500)],
            n_epochs=15,
        )
        monitor.check_invariants()


class TestAccuracy:
    def test_hotspot_found(self, kernel, fast_attrs, queue):
        """A stable hot eighth of the mapping must surface as regions
        with high access counts covering roughly its size."""
        kernel.mmap(BASE, 64 * MIB)
        monitor = make_monitor(kernel, fast_attrs)
        monitor.start(queue)
        snaps = []
        monitor.register_raw_callback(lambda mon, now: snaps.append(mon.snapshot(now)))
        run_epochs(
            kernel,
            queue,
            [dict(start=BASE, end=BASE + 8 * MIB, touches_per_page=2000)],
            n_epochs=30,
        )
        last = snaps[-1]
        hot_bytes = sum(
            r.size for r in last.regions if r.frequency(last.max_nr_accesses) > 0.5
        )
        assert 4 * MIB < hot_bytes < 16 * MIB

    def test_cold_memory_ages(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 64 * MIB)
        monitor = make_monitor(kernel, fast_attrs)
        monitor.start(queue)
        snaps = []
        monitor.register_raw_callback(lambda mon, now: snaps.append(mon.snapshot(now)))
        run_epochs(
            kernel,
            queue,
            [dict(start=BASE, end=BASE + 4 * MIB, touches_per_page=2000)],
            n_epochs=30,
        )
        last = snaps[-1]
        cold = [r for r in last.regions if r.nr_accesses == 0 and r.start >= BASE + 8 * MIB]
        assert cold, "expected cold regions"
        assert max(r.age for r in cold) >= 20

    def test_hot_region_age_grows_when_stable(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 16 * MIB)
        monitor = make_monitor(kernel, fast_attrs)
        monitor.start(queue)
        snaps = []
        monitor.register_raw_callback(lambda mon, now: snaps.append(mon.snapshot(now)))
        run_epochs(
            kernel,
            queue,
            [dict(start=BASE, end=BASE + 16 * MIB, touches_per_page=3000)],
            n_epochs=25,
        )
        last = snaps[-1]
        assert max(r.age for r in last.regions) >= 10

    def test_pattern_change_resets_age(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 16 * MIB)
        monitor = make_monitor(kernel, fast_attrs)
        monitor.start(queue)
        # Phase 1: whole range hot for 20 epochs.
        run_epochs(
            kernel,
            queue,
            [dict(start=BASE, end=BASE + 16 * MIB, touches_per_page=3000)],
            n_epochs=20,
        )
        age_before = int(monitor.regions.age.max())
        # Phase 2: everything goes cold.
        run_epochs(kernel, queue, [], n_epochs=3)
        ages_after = monitor.regions.age.tolist()
        assert min(ages_after) < age_before

    def test_snapshot_frequency_normalisation(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 16 * MIB)
        monitor = make_monitor(kernel, fast_attrs)
        monitor.start(queue)
        snaps = []
        monitor.register_raw_callback(lambda mon, now: snaps.append(mon.snapshot(now)))
        run_epochs(
            kernel,
            queue,
            [dict(start=BASE, end=BASE + 16 * MIB, touches_per_page=5000)],
            n_epochs=10,
        )
        last = snaps[-1]
        assert last.max_nr_accesses == fast_attrs.max_nr_accesses
        for region in last.regions:
            assert 0.0 <= region.frequency(last.max_nr_accesses) <= 1.0


class TestOverheadBound:
    def test_checks_bounded_by_max_regions(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 256 * MIB)
        monitor = make_monitor(kernel, fast_attrs)
        monitor.start(queue)
        run_epochs(
            kernel,
            queue,
            [dict(start=BASE, end=BASE + 64 * MIB, touches_per_page=500)],
            n_epochs=20,
        )
        duration = queue.clock.now
        ticks = duration // fast_attrs.sampling_interval_us
        assert monitor.total_checks <= ticks * fast_attrs.max_nr_regions

    def test_overhead_report_within_bound(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 256 * MIB)
        monitor = make_monitor(kernel, fast_attrs)
        monitor.start(queue)
        run_epochs(
            kernel,
            queue,
            [dict(start=BASE, end=BASE + 64 * MIB, touches_per_page=500)],
            n_epochs=10,
        )
        # The paper's bounded-overhead claim, read off the kernel's ledger.
        cpu_share = kernel.metrics.monitor_cpu_us / queue.clock.now
        assert 0.0 < cpu_share <= theoretical_bound_cpu_share(fast_attrs, kernel.costs)

    def test_bound_formula(self, fast_attrs, kernel):
        bound = theoretical_bound_cpu_share(fast_attrs, kernel.costs)
        expected = (
            fast_attrs.max_nr_regions * kernel.costs.pte_check_us
            + kernel.costs.kdamond_wakeup_us
        ) / fast_attrs.sampling_interval_us
        assert bound == pytest.approx(expected)

    def test_overhead_independent_of_target_size(self, small_guest, fast_attrs):
        """The paper's headline property: monitoring 4x the memory does
        not cost (meaningfully) more checks."""
        from repro.sim.kernel import SimKernel
        from repro.sim.swap import ZramDevice

        checks = {}
        for size_mib in (32, 128):
            kernel = SimKernel(small_guest, swap=ZramDevice(64 * MIB), seed=5)
            queue = EventQueue()
            kernel.mmap(BASE, size_mib * MIB)
            monitor = make_monitor(kernel, fast_attrs, seed=5)
            monitor.start(queue)
            run_epochs(
                kernel,
                queue,
                [dict(start=BASE, end=BASE + size_mib * MIB, touches_per_page=200)],
                n_epochs=15,
            )
            checks[size_mib] = monitor.total_checks
        assert checks[128] < checks[32] * 2.5


class TestLayoutUpdates:
    def test_new_mapping_picked_up(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 16 * MIB)
        monitor = make_monitor(kernel, fast_attrs)
        monitor.start(queue)
        run_epochs(
            kernel,
            queue,
            [dict(start=BASE, end=BASE + 4 * MIB, touches_per_page=500)],
            n_epochs=5,
        )
        kernel.mmap(BASE + 32 * MIB, 16 * MIB)
        queue.run_for(fast_attrs.regions_update_interval_us * 2)
        covered_end = int(monitor.regions.end.max())
        assert covered_end >= BASE + 32 * MIB

    def test_no_change_means_no_rederive(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 16 * MIB)
        monitor = make_monitor(kernel, fast_attrs)
        monitor.start(queue)
        run_epochs(
            kernel,
            queue,
            [dict(start=BASE, end=BASE + 4 * MIB, touches_per_page=500)],
            n_epochs=5,
        )
        table_before = monitor.regions
        monitor.regions_update_tick(queue.clock.now)
        assert monitor.regions is table_before


class TestDeterminism:
    def test_same_seed_same_results(self, small_guest, fast_attrs):
        from repro.sim.kernel import SimKernel
        from repro.sim.swap import ZramDevice

        def run():
            kernel = SimKernel(small_guest, swap=ZramDevice(64 * MIB), seed=9)
            queue = EventQueue()
            kernel.mmap(BASE, 32 * MIB)
            monitor = make_monitor(kernel, fast_attrs, seed=11)
            monitor.start(queue)
            run_epochs(
                kernel,
                queue,
                [dict(start=BASE, end=BASE + 8 * MIB, touches_per_page=800)],
                n_epochs=12,
            )
            ra = monitor.regions
            columns = (ra.start, ra.end, ra.nr_accesses, ra.age)
            return list(zip(*(column.tolist() for column in columns)))

        assert run() == run()


class TestPhysicalPrimitive:
    def test_paddr_monitor_sees_hot_frames(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 32 * MIB)
        monitor = make_monitor(kernel, fast_attrs, primitive_cls=PhysicalPrimitive)
        monitor.start(queue)
        snaps = []
        monitor.register_raw_callback(lambda mon, now: snaps.append(mon.snapshot(now)))
        run_epochs(
            kernel,
            queue,
            [dict(start=BASE, end=BASE + 8 * MIB, touches_per_page=2000)],
            n_epochs=25,
        )
        last = snaps[-1]
        hot = sum(r.size for r in last.regions if r.frequency(last.max_nr_accesses) > 0.5)
        assert hot > 2 * MIB

    def test_paddr_target_is_whole_guest_memory(self, kernel, fast_attrs):
        primitive = PhysicalPrimitive(kernel)
        (start, end), = primitive.target_ranges()
        assert start == 0
        assert end == kernel.guest.dram_bytes


class TestSamplingBatches:
    """Design pin: under the event queue, the sampling ticks of one
    aggregation interval fire as one ``sample_tick`` call and ask the
    kernel once per channel.  With the paper's attributes nothing else
    is due inside an interval: epochs coincide with aggregations and
    rank after them, regions updates come once per second."""

    @pytest.mark.parametrize("track_writes", [False, True])
    def test_one_sample_call_and_one_probe_per_channel_per_interval(self, track_writes):
        calls = {"sample": 0, "probe": 0}
        sample_tick = DataAccessMonitor.sample_tick

        def counted_sample(self, now):
            calls["sample"] += 1
            sample_tick(self, now)

        def counted(probe):
            def wrapper(self, *args):
                calls["probe"] += 1
                return probe(self, *args)

            return wrapper

        with mock.patch.object(DataAccessMonitor, "sample_tick", counted_sample), \
                mock.patch.object(SimKernel, "access_probabilities",
                                  counted(SimKernel.access_probabilities)), \
                mock.patch.object(SimKernel, "write_probabilities",
                                  counted(SimKernel.write_probabilities)):
            result = run_experiment(
                "parsec3/freqmine",
                config="prcl",
                time_scale=0.02,
                attrs=MonitorAttrs(track_writes=track_writes),
            )
        intervals = result.duration_us // MonitorAttrs().aggregation_interval_us
        assert calls["sample"] == intervals
        assert calls["probe"] == intervals * (2 if track_writes else 1)
        assert result.monitor_checks > 0
