"""Region table: construction, split, merge, aging math, layout
clipping, the tiling check."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, MonitorStateError
from repro.monitor.region import MIN_REGION_SIZE, RegionArray

K = MIN_REGION_SIZE


class TestRegion:
    def test_minimum_size_enforced(self):
        with pytest.raises(ConfigError, match="below minimum size"):
            RegionArray.from_bounds([0], [K - 1])
        with pytest.raises(ConfigError, match=r"\[0x1000, 0x1fff\)"):
            RegionArray.from_bounds([0, K], [K, 2 * K - 1])

    def test_fresh_counters(self):
        ra = RegionArray.from_bounds([0, 10 * K], [10 * K, 12 * K])
        assert ra.nr_accesses.tolist() == [0, 0]
        assert ra.age.tolist() == [0, 0]
        assert (ra.end - ra.start).tolist() == [10 * K, 2 * K]
        assert ra.sampling_addr.tolist() == [0, 10 * K]


def table(*rows):
    """A RegionArray from ``(start_page, end_page, counters)`` rows."""
    ra = RegionArray.from_bounds([row[0] * K for row in rows], [row[1] * K for row in rows])
    for i, (_, _, counters) in enumerate(rows):
        for name, value in counters.items():
            getattr(ra, name)[i] = value
    return ra


def bounds(ra):
    return list(zip(ra.start.tolist(), ra.end.tolist()))


class TestSplit:
    def test_children_tile_parent(self):
        ra = table((0, 10, {}))
        assert ra.split(np.random.default_rng(0), pieces=2) == 1
        (left_start, cut), (cut_again, right_end) = bounds(ra)
        assert (left_start, right_end) == (0, 10 * K)
        assert cut == cut_again and cut % K == 0 and 0 < cut < 10 * K

    def test_children_inherit_counters(self):
        ra = table((0, 10, dict(nr_accesses=7, age=3, last_nr_accesses=5)))
        ra.split(np.random.default_rng(0), pieces=2)
        assert ra.nr_accesses.tolist() == [7, 7]
        assert ra.age.tolist() == [3, 3]
        assert ra.last_nr_accesses.tolist() == [5, 5]

    def test_one_page_region_is_not_split(self):
        """No cut leaves a child below the minimum size: a one-page row
        stays whole while its neighbour splits."""
        ra = table((0, 1, {}), (1, 11, {}))
        assert ra.split(np.random.default_rng(0), pieces=3) >= 1
        assert bounds(ra)[0] == (0, K)
        assert (ra.end - ra.start >= MIN_REGION_SIZE).all()
        assert ra.total_bytes() == 11 * K


class TestMerge:
    def test_merge_requires_adjacency(self):
        ra = table((0, 1, {}), (2, 3, {}))
        assert ra.age_and_merge(threshold=20, sz_limit=100 * K) == 0
        assert bounds(ra) == [(0, K), (2 * K, 3 * K)]

    def test_size_weighted_access_count(self):
        ra = table((0, 3, dict(nr_accesses=4)), (3, 4, dict(nr_accesses=8)))
        assert ra.age_and_merge(threshold=4, sz_limit=100 * K) == 1
        assert ra.nr_accesses.tolist() == [5]  # (4*3 + 8*1) / 4

    def test_size_weighted_age(self):
        ra = table((0, 1, dict(age=0)), (1, 4, dict(age=8)))
        ra.age_and_merge(threshold=0, sz_limit=100 * K)
        # Both rows were stable, so they age to 1 and 9 before the fold.
        assert ra.age.tolist() == [7]  # (1*1 + 9*3) / 4

    def test_merge_spans_union(self):
        ra = table((0, 2, {}), (2, 5, {}))
        ra.age_and_merge(threshold=0, sz_limit=100 * K)
        assert bounds(ra) == [(0, 5 * K)]

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        nr=st.integers(min_value=0, max_value=20),
        age=st.integers(min_value=0, max_value=100),
    )
    def test_split_then_merge_is_identity(self, seed, nr, age):
        ra = table((0, 10, dict(nr_accesses=nr, last_nr_accesses=nr, age=age)))
        assert ra.split(np.random.default_rng(seed), pieces=2) == 1
        assert ra.age_and_merge(threshold=0, sz_limit=10 * K) == 1
        assert bounds(ra) == [(0, 10 * K)]
        assert ra.nr_accesses.tolist() == [nr]
        assert ra.age.tolist() == [age + 1]  # the merge pass ages first


class TestIntersecting:
    def test_surviving_regions_keep_counters(self):
        ra = table((0, 10, dict(nr_accesses=9, age=4)))
        out = ra.clipped_to([(0, 10 * K)])
        assert out.n == 1
        assert out.nr_accesses.tolist() == [9]
        assert out.age.tolist() == [4]

    def test_clipped_to_new_range(self):
        out = table((0, 10, {})).clipped_to([(2 * K, 6 * K)])
        assert bounds(out) == [(2 * K, 6 * K)]

    def test_uncovered_ranges_get_fresh_regions(self):
        out = table((0, 4, {})).clipped_to([(0, 10 * K)])
        assert bounds(out) == [(0, 4 * K), (4 * K, 10 * K)]
        assert out.nr_accesses[1] == 0

    def test_disjoint_region_dropped(self):
        out = table((100, 110, {})).clipped_to([(0, 10 * K)])
        assert bounds(out) == [(0, 10 * K)]

    def test_multiple_ranges(self):
        ra = table((0, 10, {}), (20, 30, {}))
        out = ra.clipped_to([(0, 10 * K), (20 * K, 30 * K)])
        assert out.n == 2

    def test_regions_tile_ranges_without_overlap(self):
        out = table((1, 3, {}), (5, 8, {})).clipped_to([(0, 10 * K)])
        prev = 0
        for start, end in bounds(out):
            assert start >= prev
            prev = end


class TestTilingCheck:
    """``check_invariants(ranges)``: the regions tile the ranges byte
    for byte, so equal byte totals are not enough."""

    def test_tiling_table_passes(self):
        table((0, 4, {}), (4, 10, {}), (20, 28, {})).check_invariants(
            [(0, 10 * K), (20 * K, 28 * K)]
        )

    def test_region_straddling_a_range_end_fails(self):
        ra = RegionArray.from_bounds([5 * K], [15 * K])
        with pytest.raises(MonitorStateError, match="no single target range"):
            ra.check_invariants([(0, 10 * K)])

    def test_gap_balanced_by_a_stray_region_fails(self):
        ra = RegionArray.from_bounds([0, 20 * K], [2 * K, 28 * K])
        with pytest.raises(MonitorStateError, match=r"\[0x14000, 0x1c000\)"):
            ra.check_invariants([(0, 10 * K)])

    def test_byte_total_mismatch_fails(self):
        with pytest.raises(MonitorStateError, match="cover 4096 bytes"):
            table((0, 1, {})).check_invariants([(0, 2 * K)])


class TestSamplingAddrs:
    def test_addrs_inside_regions(self):
        rng = np.random.default_rng(0)
        ra = table(*((i * 100, (i + 1) * 100, {}) for i in range(20)))
        addrs = ra.pick_sampling_addrs(rng)
        assert ((ra.start <= addrs) & (addrs < ra.end)).all()
        assert (addrs % K == 0).all()

    def test_empty_region_list(self):
        rng = np.random.default_rng(0)
        assert RegionArray().pick_sampling_addrs(rng).size == 0

    def test_single_page_region_always_its_page(self):
        rng = np.random.default_rng(0)
        ra = table((5, 6, {}))
        for _ in range(5):
            assert ra.pick_sampling_addrs(rng)[0] == 5 * K

    def test_randomised_across_calls(self):
        rng = np.random.default_rng(0)
        ra = table((0, 1000, {}))
        seen = {int(ra.pick_sampling_addrs(rng)[0]) for _ in range(20)}
        assert len(seen) > 5
