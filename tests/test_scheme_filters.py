"""Address-range scheme filters (upstream DAMOS-filter extension)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchemeError
from repro.monitor.attrs import MonitorAttrs
from repro.monitor.core import DataAccessMonitor
from repro.monitor.primitives import VirtualPrimitive
from repro.schemes.engine import SchemesEngine
from repro.schemes.filters import AddressFilter, apply_filters
from repro.schemes.parser import parse_scheme
from repro.units import MIB, MSEC

from tests.helpers import BASE, run_epochs

K = 4096


class TestApplyFilters:
    def test_no_filters_passes_everything(self):
        assert apply_filters(0, 100 * K, []) == [(0, 100 * K)]

    def test_allow_filter_intersects(self):
        f = AddressFilter(20 * K, 40 * K, allow=True)
        assert apply_filters(0, 100 * K, [f]) == [(20 * K, 40 * K)]

    def test_allow_outside_range_passes_nothing(self):
        f = AddressFilter(200 * K, 300 * K, allow=True)
        assert apply_filters(0, 100 * K, [f]) == []

    def test_multiple_allows_are_unioned(self):
        filters = [
            AddressFilter(10 * K, 20 * K),
            AddressFilter(15 * K, 30 * K),
            AddressFilter(50 * K, 60 * K),
        ]
        assert apply_filters(0, 100 * K, filters) == [
            (10 * K, 30 * K),
            (50 * K, 60 * K),
        ]

    def test_reject_filter_carves_hole(self):
        f = AddressFilter(20 * K, 40 * K, allow=False)
        assert apply_filters(0, 100 * K, [f]) == [(0, 20 * K), (40 * K, 100 * K)]

    def test_reject_covering_everything(self):
        f = AddressFilter(0, 100 * K, allow=False)
        assert apply_filters(0, 100 * K, [f]) == []

    def test_allow_then_reject(self):
        filters = [
            AddressFilter(0, 50 * K, allow=True),
            AddressFilter(10 * K, 20 * K, allow=False),
        ]
        assert apply_filters(0, 100 * K, filters) == [
            (0, 10 * K),
            (20 * K, 50 * K),
        ]

    def test_empty_filter_rejected(self):
        with pytest.raises(SchemeError):
            AddressFilter(10, 10)

    def test_empty_range_rejected(self):
        with pytest.raises(SchemeError):
            apply_filters(10, 10, [])

    @settings(max_examples=60, deadline=None)
    @given(
        ranges=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=90),
                st.integers(min_value=1, max_value=30),
                st.booleans(),
            ),
            max_size=6,
        )
    )
    def test_output_always_sorted_disjoint_and_inside(self, ranges):
        filters = [
            AddressFilter(lo * K, (lo + span) * K, allow=allow)
            for lo, span, allow in ranges
        ]
        out = apply_filters(0, 100 * K, filters)
        prev = 0
        for lo, hi in out:
            assert 0 <= lo < hi <= 100 * K
            assert lo >= prev
            prev = hi
        # Rejected ranges never appear in the output.
        for f in filters:
            if not f.allow:
                for lo, hi in out:
                    assert hi <= f.start or lo >= f.end


class TestEngineWithFilters:
    def test_protected_arena_never_reclaimed(self, kernel, fast_attrs, queue):
        """A reject filter pins an arena in memory even though its
        access pattern matches the reclamation scheme."""
        kernel.mmap(BASE, 64 * MIB)
        scheme = parse_scheme("4K max min min 200ms max pageout", fast_attrs)
        protected = (BASE + 16 * MIB, BASE + 32 * MIB)
        scheme.filters = [AddressFilter(*protected, allow=False)]
        monitor = DataAccessMonitor(VirtualPrimitive(kernel), fast_attrs, seed=3)
        engine = SchemesEngine(kernel, [scheme])
        monitor.attach_engine(engine)
        monitor.start(queue)
        # Everything cold after one initial touch.
        kernel.apply_access(BASE, BASE + 64 * MIB, now=0, epoch_us=100 * MSEC)
        run_epochs(kernel, queue, [], n_epochs=20)
        pt = kernel.space.flat
        lo = 16 * MIB // 4096
        hi = 32 * MIB // 4096
        assert pt.present[lo:hi].all()  # the arena survived
        assert kernel.rss_bytes() <= 20 * MIB  # the rest was reclaimed

    def test_allow_filter_limits_scope(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 64 * MIB)
        scheme = parse_scheme("4K max min min 200ms max pageout", fast_attrs)
        scheme.filters = [AddressFilter(BASE, BASE + 8 * MIB, allow=True)]
        monitor = DataAccessMonitor(VirtualPrimitive(kernel), fast_attrs, seed=3)
        engine = SchemesEngine(kernel, [scheme])
        monitor.attach_engine(engine)
        monitor.start(queue)
        kernel.apply_access(BASE, BASE + 64 * MIB, now=0, epoch_us=100 * MSEC)
        run_epochs(kernel, queue, [], n_epochs=20)
        pt = kernel.space.flat
        # Only the first 8 MiB may have been touched by the scheme.
        assert pt.present[8 * MIB // 4096 :].all()
        assert not pt.present[: 8 * MIB // 4096].all()

    def test_with_pattern_preserves_filters(self, fast_attrs):
        scheme = parse_scheme("4K max min min 1s max pageout", fast_attrs)
        scheme.filters = [AddressFilter(0, MIB, allow=False)]
        tuned = scheme.with_pattern(min_age_us=5_000_000)
        assert tuned.filters == scheme.filters
