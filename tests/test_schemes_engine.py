"""SchemesEngine: application against live monitoring, quotas, watermarks."""

import numpy as np
import pytest

from repro.errors import SchemeError
from repro.lint import check_schemes
from repro.monitor.attrs import MonitorAttrs
from repro.monitor.core import DataAccessMonitor
from repro.monitor.primitives import VirtualPrimitive
from repro.runner.experiment import ExperimentRun
from repro.schemes.actions import Action
from repro.schemes.engine import SchemesEngine
from repro.schemes.parser import parse_scheme
from repro.schemes.quotas import Quota, priority
from repro.schemes.scheme import AccessPattern, Scheme
from repro.schemes.stats import SchemeStats, WssEstimator
from repro.schemes.watermarks import Watermarks
from repro.trace import PageoutBatch, SchemeApplied, TraceBus
from repro.units import MIB, MSEC, SEC, UNLIMITED

from tests.helpers import BASE, run_epochs


def stack(kernel, fast_attrs, queue, schemes):
    monitor = DataAccessMonitor(VirtualPrimitive(kernel), fast_attrs, seed=3)
    engine = SchemesEngine(kernel, schemes)
    monitor.attach_engine(engine)
    monitor.start(queue)
    return monitor, engine


class TestEngineApplication:
    def test_pageout_scheme_reclaims_cold_memory(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 64 * MIB)
        scheme = parse_scheme("4K max min min 200ms max pageout", fast_attrs)
        stack(kernel, fast_attrs, queue, [scheme])
        # Hot first MiB, cold rest (touched once).
        kernel.apply_access(BASE, BASE + 64 * MIB, now=0, epoch_us=100 * MSEC)
        run_epochs(
            kernel,
            queue,
            [dict(start=BASE, end=BASE + MIB, touches_per_page=2000)],
            n_epochs=20,
        )
        assert kernel.rss_bytes() < 16 * MIB  # most of the cold 63 MiB went out
        assert kernel.rss_bytes() >= MIB  # the hot part stayed
        assert scheme.stats.nr_applied > 0

    def test_stat_scheme_touches_nothing(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 64 * MIB)
        scheme = parse_scheme("min max min max min max stat", fast_attrs)
        stack(kernel, fast_attrs, queue, [scheme])
        run_epochs(
            kernel,
            queue,
            [dict(start=BASE, end=BASE + 8 * MIB, touches_per_page=1000)],
            n_epochs=10,
        )
        assert kernel.rss_bytes() == 8 * MIB
        assert scheme.stats.sz_tried > 0
        assert scheme.stats.nr_intervals > 0

    def test_engine_applies_schemes_in_order(self, kernel, fast_attrs):
        first = Scheme(pattern=AccessPattern(), action=Action.STAT)
        second = Scheme(pattern=AccessPattern(), action=Action.STAT)
        engine = SchemesEngine(kernel, [first, second])
        assert engine.schemes == [first, second]

    def test_replace_schemes(self, kernel):
        engine = SchemesEngine(kernel)
        scheme = Scheme(pattern=AccessPattern(), action=Action.STAT)
        engine.replace_schemes([scheme])
        assert engine.schemes == [scheme]

    def test_validate_rejects_hot_pageout(self, kernel):
        scheme = Scheme(
            pattern=AccessPattern(min_freq=0.8), action=Action.PAGEOUT
        )
        engine = SchemesEngine(kernel, [scheme])
        with pytest.raises(SchemeError, match="DS150"):
            check_schemes(engine.schemes)

    def test_describe(self, kernel, fast_attrs):
        scheme = parse_scheme("4K max min min 5s max pageout", fast_attrs)
        engine = SchemesEngine(kernel, [scheme])
        assert "pageout" in engine.describe()
        assert SchemesEngine(kernel).describe() == "(no schemes installed)"


class TestQuota:
    def test_unlimited_by_default(self):
        quota = Quota()
        assert not quota.limited
        assert quota.remaining(0) == UNLIMITED

    def test_budget_consumed_and_reset(self):
        quota = Quota(size_bytes=10 * MIB, reset_interval_us=1 * SEC)
        assert quota.remaining(0) == 10 * MIB
        quota.charge(4 * MIB, 0)
        assert quota.remaining(100) == 6 * MIB
        # After the window rolls, the budget refills.
        assert quota.remaining(2 * SEC) == 10 * MIB

    def test_invalid_quota_rejected(self):
        with pytest.raises(SchemeError):
            Quota(size_bytes=-1)
        with pytest.raises(SchemeError):
            Quota(reset_interval_us=0)

    def test_priority_prefers_cold_for_pageout(self):
        cold_old = priority(0, 100, 20, prefer_cold=True)
        hot_young = priority(20, 0, 20, prefer_cold=True)
        assert cold_old > hot_young

    def test_priority_prefers_hot_for_promotion(self):
        hot = priority(20, 50, 20, prefer_cold=False)
        cold = priority(0, 50, 20, prefer_cold=False)
        assert hot > cold

    def test_quota_caps_engine_application(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 64 * MIB)
        scheme = parse_scheme("4K max min min 100ms max pageout", fast_attrs)
        scheme.quota = Quota(size_bytes=1 * MIB, reset_interval_us=10 * SEC)
        stack(kernel, fast_attrs, queue, [scheme])
        kernel.apply_access(BASE, BASE + 32 * MIB, now=0, epoch_us=100 * MSEC)
        run_epochs(kernel, queue, [], n_epochs=10)
        # At most the quota per window (one window in this run) +
        # region rounding, far below the unrestricted 32 MiB.
        assert scheme.stats.sz_applied <= 2 * MIB

    def test_quota_partial_application_splits_regions(self, kernel, fast_attrs, queue):
        """A region bigger than the remaining budget is applied
        partially (upstream splits it at the budget boundary) rather
        than skipped, so savings accumulate window by window."""
        kernel.mmap(BASE, 64 * MIB)
        scheme = parse_scheme("4K max min min 100ms max pageout", fast_attrs)
        scheme.quota = Quota(size_bytes=1 * MIB, reset_interval_us=1 * SEC)
        stack(kernel, fast_attrs, queue, [scheme])
        kernel.apply_access(BASE, BASE + 32 * MIB, now=0, epoch_us=100 * MSEC)
        run_epochs(kernel, queue, [], n_epochs=50)
        # ~5 windows of 1 MiB each must have been reclaimed despite every
        # matching region being far larger than one window's budget.
        assert 3 * MIB <= scheme.stats.sz_applied <= 8 * MIB


class TestWatermarks:
    def test_always_on(self):
        wm = Watermarks.always_on()
        assert wm.update(0.5)
        assert wm.update(1.0)

    def test_activation_band(self):
        wm = Watermarks(high=0.9, mid=0.5, low=0.1)
        assert not wm.update(0.95)  # plenty free: stay off
        assert wm.update(0.4)  # below mid: activate
        assert wm.update(0.8)  # hysteresis: stays on below high
        assert not wm.update(0.95)  # above high: off again

    def test_low_cutoff(self):
        wm = Watermarks(high=0.9, mid=0.5, low=0.1)
        wm.update(0.4)
        assert not wm.update(0.05)  # critical: emergency reclaim's job

    def test_invalid_order_rejected(self):
        with pytest.raises(SchemeError):
            Watermarks(high=0.2, mid=0.5, low=0.1)

    def test_out_of_range_metric_rejected(self):
        with pytest.raises(SchemeError):
            Watermarks().update(1.5)

    def test_watermark_gates_engine(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 64 * MIB)
        scheme = parse_scheme("4K max min min 100ms max pageout", fast_attrs)
        # Guest has 256 MiB and the workload uses ~64 MiB, so free stays
        # around 75% — above mid=0.5 the scheme must never activate.
        scheme.watermarks = Watermarks(high=0.9, mid=0.5, low=0.1)
        stack(kernel, fast_attrs, queue, [scheme])
        kernel.apply_access(BASE, BASE + 32 * MIB, now=0, epoch_us=100 * MSEC)
        run_epochs(kernel, queue, [], n_epochs=10)
        assert scheme.stats.nr_applied == 0
        assert kernel.rss_bytes() == 32 * MIB


class TestStats:
    def test_counters(self):
        stats = SchemeStats()
        stats.record_tried(100)
        stats.record_tried(200)
        stats.record_applied(150)
        assert stats.nr_tried == 2
        assert stats.sz_tried == 300
        assert stats.nr_applied == 1
        assert stats.sz_applied == 150

    def test_avg_tried_per_interval(self):
        stats = SchemeStats()
        stats.nr_intervals = 4
        stats.record_tried(100)
        stats.record_tried(100)
        assert stats.avg_tried_bytes_per_interval() == 50.0

    def test_wss_estimator_percentiles(self):
        est = WssEstimator()
        for i, value in enumerate([10, 20, 30, 40, 50]):
            est.record(i, value)
        assert est.percentile(0) == 10
        assert est.percentile(50) == 30
        assert est.percentile(100) == 50
        assert est.average() == 30

    def test_wss_estimator_empty(self):
        est = WssEstimator()
        assert est.percentile(50) == 0.0
        assert est.average() == 0.0


class TestBatchedPass:
    """The engine's pass is one kernel entry over the region table."""

    def test_prcl_run_enters_the_kernel_once_per_scheme_and_aggregation(self, monkeypatch):
        run = ExperimentRun("parsec3/freqmine", config="prcl", seed=5, time_scale=0.02)
        kernel = run.tenant.kernel
        passes, calls = [], []
        scheme_pass = kernel.scheme_pass
        pageout = kernel.pageout

        def counted_pass(backend, starts, ends, now, **kw):
            passes.append((now, backend, len(starts)))
            return scheme_pass(backend, starts, ends, now, **kw)

        def checked_pageout(start, end, now):
            # Only rows that hold a present page reach the back-end.
            assert any(
                vma.pages.present[lo:hi].any() for vma, lo, hi in kernel.space.ranges_in(start, end)
            )
            calls.append((start, end))
            return pageout(start, end, now)

        monkeypatch.setattr(kernel, "scheme_pass", counted_pass)
        monkeypatch.setattr(kernel, "pageout", checked_pageout)
        run.start()
        run.run_until(run.spec.duration_us)
        run.finish()
        scheme = run.tenant.engine.schemes[0]
        times = [now for now, _, _ in passes]
        assert len(times) == len(set(times)) <= scheme.stats.nr_intervals
        assert {backend for _, backend, _ in passes} == {"pageout"}
        # Most matching rows were paged out already: they are skipped
        # without a call, and every call that is made pages something out.
        assert 0 < len(calls) < sum(n for _, _, n in passes) // 4
        assert run.trace.counts["PageoutBatch"] == len(calls)

    def test_pass_over_paged_out_regions_is_silent(self, kernel, fast_attrs):
        bus = TraceBus(ring_capacity=0)
        events = []
        bus.subscribe_all(events.append)
        kernel.trace = bus
        kernel.mmap(BASE, 16 * MIB)
        kernel.apply_access(BASE, BASE + 16 * MIB, now=0, epoch_us=100 * MSEC)
        monitor = DataAccessMonitor(VirtualPrimitive(kernel), fast_attrs, seed=3)
        monitor.init_regions()
        scheme = parse_scheme("min max min max min max pageout", fast_attrs)
        engine = SchemesEngine(kernel, [scheme], trace=bus)
        engine.apply(monitor, now=1)
        assert kernel.rss_bytes() == 0
        assert any(isinstance(e, PageoutBatch) for e in events)
        before = (
            kernel.space.generation,
            kernel.frames.rmap_generation,
            kernel.probe_generation(),
            kernel.frame_probe_generation(),
        )
        events.clear()
        engine.apply(monitor, now=2)
        assert not any(isinstance(e, PageoutBatch) for e in events)
        assert [type(e) for e in events] == [SchemeApplied]
        assert events[0].bytes_tried == 16 * MIB and events[0].bytes_applied == 0
        assert before == (
            kernel.space.generation,
            kernel.frames.rmap_generation,
            kernel.probe_generation(),
            kernel.frame_probe_generation(),
        )

    @pytest.mark.parametrize("prefer_cold", [True, False])
    def test_quota_order_is_stable_descending(self, kernel, fast_attrs, prefer_cold):
        kernel.mmap(BASE, 64 * MIB)
        monitor = DataAccessMonitor(VirtualPrimitive(kernel), fast_attrs, seed=3)
        monitor.init_regions()
        ra = monitor._ra
        # Few distinct (nr_accesses, age) pairs: most priorities tie.
        ra.nr_accesses[:] = np.arange(ra.n) % 3 * 5
        ra.age[:] = np.arange(ra.n) % 2 * 40
        action = "pageout" if prefer_cold else "willneed"
        scheme = parse_scheme(f"min max min max min max {action}", fast_attrs)
        scheme.quota = Quota(size_bytes=1 * MIB)
        order = []
        scheme_pass = kernel.scheme_pass

        def recorded(backend, starts, ends, now, **kw):
            order.extend(starts.tolist())
            return scheme_pass(backend, starts, ends, now, **kw)

        kernel.scheme_pass = recorded
        SchemesEngine(kernel, [scheme]).apply(monitor, now=1)
        views = ra.views()
        expected = sorted(
            views,
            key=lambda r: priority(
                r.nr_accesses, r.age, fast_attrs.max_nr_accesses, prefer_cold=prefer_cold
            ),
            reverse=True,
        )
        assert order == [r.start for r in expected]
        assert len(set(order)) == ra.n > 3  # ties were actually exercised

    def test_array_priority_matches_scalar_calls(self):
        nr = np.array([0, 3, 7, 20, 25])
        age = np.array([0, 50, 99, 100, 400])
        for prefer_cold in (True, False):
            batch = priority(nr, age, 20, prefer_cold=prefer_cold, weight_age=0.7)
            scalar = [
                priority(n, a, 20, prefer_cold=prefer_cold, weight_age=0.7)
                for n, a in zip(nr.tolist(), age.tolist())
            ]
            assert batch.tolist() == scalar
