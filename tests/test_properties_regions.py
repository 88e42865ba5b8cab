"""Property-based invariants of the DAMON split/merge/aging loop.

The monitoring core is only trustworthy under load if its structural
invariants hold for *any* region layout, not just the ones unit tests
happen to construct.  These properties machine-check the paper's
central mechanism (§3.1):

* merging never violates the ``min_nr_regions`` floor (given region
  sizes at or below the merge size limit, the steady-state condition);
* splitting never exceeds the ``max_nr_regions`` ceiling;
* both passes preserve total covered bytes and keep the region list
  sorted and non-overlapping;
* aging resets exactly when the access count moved by more than the
  merge threshold, and increments otherwise.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.monitor.attrs import MonitorAttrs
from repro.monitor.core import DataAccessMonitor
from repro.monitor.region import MIN_REGION_SIZE, Region, RegionArray
from repro.units import MSEC

K = MIN_REGION_SIZE

#: Small, fast attrs; min/max region bounds are what we probe.
ATTRS = MonitorAttrs(
    sampling_interval_us=1 * MSEC,
    aggregation_interval_us=20 * MSEC,
    regions_update_interval_us=200 * MSEC,
    min_nr_regions=5,
    max_nr_regions=60,
)


def _monitor(regions) -> DataAccessMonitor:
    """A monitor whose primitive is never touched by merge/split."""
    monitor = DataAccessMonitor(primitive=None, attrs=ATTRS, seed=11)
    monitor.regions = regions
    return monitor


@st.composite
def region_lists(draw, min_n=1, max_n=30, max_pages=16, gaps="maybe"):
    """A sorted, non-overlapping region list with random counters.

    ``gaps`` — "maybe": random gaps; "never": fully adjacent;
    "always": at least one page between consecutive regions.
    """
    n = draw(st.integers(min_n, max_n))
    lo = {"maybe": 0, "never": 0, "always": 1}[gaps]
    hi = {"maybe": 3, "never": 0, "always": 3}[gaps]
    regions = []
    cursor = 0
    for _ in range(n):
        cursor += draw(st.integers(lo, hi)) * K
        size = draw(st.integers(1, max_pages)) * K
        region = Region(cursor, cursor + size)
        region.nr_accesses = draw(st.integers(0, 20))
        region.last_nr_accesses = draw(st.integers(0, 20))
        region.age = draw(st.integers(0, 60))
        cursor += size
        regions.append(region)
    return regions


def _covered_bytes(regions) -> int:
    return sum(r.size for r in regions)


def _assert_sorted_nonoverlapping(regions) -> None:
    for left, right in zip(regions, regions[1:]):
        assert left.end <= right.start, f"{left!r} overlaps {right!r}"
    for region in regions:
        assert region.size >= MIN_REGION_SIZE


# ----------------------------------------------------------------------
# Merge pass
# ----------------------------------------------------------------------
@given(regions=region_lists(), threshold=st.integers(0, 10))
@settings(max_examples=200)
def test_merge_preserves_bytes_and_structure(regions, threshold):
    before_bytes = _covered_bytes(regions)
    before_n = len(regions)
    monitor = _monitor(regions)
    monitor._merge_regions(threshold)
    after = monitor.regions
    assert _covered_bytes(after) == before_bytes
    assert len(after) <= before_n
    _assert_sorted_nonoverlapping(after)


@given(regions=region_lists(min_n=5, max_n=30, max_pages=8), threshold=st.integers(0, 30))
@settings(max_examples=200)
def test_merge_respects_min_nr_regions_floor(regions, threshold):
    """With every region at or below the merge size limit (the
    steady-state the loop maintains), merging leaves at least
    ``min_nr_regions`` regions — the accuracy floor."""
    total = _covered_bytes(regions)
    sz_limit = total // ATTRS.min_nr_regions
    assume(sz_limit >= MIN_REGION_SIZE)
    assume(all(r.size <= sz_limit for r in regions))
    monitor = _monitor(regions)
    monitor._merge_regions(threshold)
    assert len(monitor.regions) >= ATTRS.min_nr_regions


# ----------------------------------------------------------------------
# Split pass
# ----------------------------------------------------------------------
@given(regions=region_lists(max_n=55))
@settings(max_examples=200)
def test_split_respects_max_nr_regions_ceiling(regions):
    assume(len(regions) <= ATTRS.max_nr_regions)
    before_bytes = _covered_bytes(regions)
    monitor = _monitor(regions)
    monitor._split_regions()
    after = monitor.regions
    assert len(after) <= ATTRS.max_nr_regions
    assert _covered_bytes(after) == before_bytes
    _assert_sorted_nonoverlapping(after)


@given(regions=region_lists())
@settings(max_examples=100)
def test_split_children_inherit_counters(regions):
    parents = [
        (r.start, r.end, r.nr_accesses, r.last_nr_accesses, r.age) for r in regions
    ]
    monitor = _monitor(regions)
    monitor._split_regions()
    for child in monitor.regions:
        parent = next(
            p for p in parents if p[0] <= child.start and child.end <= p[1]
        )
        assert child.nr_accesses == parent[2]
        assert child.last_nr_accesses == parent[3]
        assert child.age == parent[4]


# ----------------------------------------------------------------------
# Full merge→split cycles stay within the configured band
# ----------------------------------------------------------------------
@given(
    regions=region_lists(min_n=5, max_n=40, max_pages=6),
    thresholds=st.lists(st.integers(0, 8), min_size=1, max_size=6),
)
@settings(max_examples=100)
def test_cycles_stay_bounded(regions, thresholds):
    total = _covered_bytes(regions)
    sz_limit = total // ATTRS.min_nr_regions
    assume(sz_limit >= MIN_REGION_SIZE)
    assume(all(r.size <= sz_limit for r in regions))
    monitor = _monitor(regions)
    for threshold in thresholds:
        monitor._merge_regions(threshold)
        monitor._split_regions()
        assert ATTRS.min_nr_regions <= len(monitor.regions) <= ATTRS.max_nr_regions
        assert _covered_bytes(monitor.regions) == total
        monitor.check_invariants()


# ----------------------------------------------------------------------
# Aging
# ----------------------------------------------------------------------
@given(regions=region_lists(gaps="always"), threshold=st.integers(0, 10))
@settings(max_examples=200)
def test_aging_resets_exactly_on_changed_count(regions, threshold):
    """With gaps everywhere (no merge can fire), the aging rule is
    exactly observable: age resets iff the access count moved by more
    than the merge threshold, and increments otherwise."""
    before = [(r.nr_accesses, r.last_nr_accesses, r.age) for r in regions]
    monitor = _monitor(regions)
    monitor._merge_regions(threshold)
    assert len(monitor.regions) == len(before)
    for region, (nr, last, age) in zip(monitor.regions, before):
        if abs(nr - last) > threshold:
            assert region.age == 0, "changed count must reset the age"
        else:
            assert region.age == age + 1, "stable count must increment the age"


# ----------------------------------------------------------------------
# The merge arithmetic on one pair
# ----------------------------------------------------------------------
@given(
    left_pages=st.integers(1, 32),
    right_pages=st.integers(1, 32),
    left_nr=st.integers(0, 20),
    right_nr=st.integers(0, 20),
    left_age=st.integers(0, 60),
    right_age=st.integers(0, 60),
)
def test_merge_two_weighted_averages_stay_in_range(
    left_pages, right_pages, left_nr, right_nr, left_age, right_age
):
    left = Region(0, left_pages * K)
    right = Region(left_pages * K, (left_pages + right_pages) * K)
    left.nr_accesses = left.last_nr_accesses = left_nr
    right.nr_accesses = right.last_nr_accesses = right_nr
    left.age, right.age = left_age, right_age
    left.sampling_addr = left.end - K
    ra = RegionArray.from_regions([left, right])
    # Any two counts in [0, 20] are within the threshold, so the pair
    # folds; both rows were stable, so each aged by one first.
    assert ra.age_and_merge(threshold=20, sz_limit=left.size + right.size) == 1
    (merged,) = ra.views()
    assert merged.size == left.size + right.size
    assert min(left_nr, right_nr) <= merged.nr_accesses <= max(left_nr, right_nr)
    assert min(left_age, right_age) + 1 <= merged.age <= max(left_age, right_age) + 1
    assert merged.sampling_addr == left.sampling_addr
