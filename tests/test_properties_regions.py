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
from repro.monitor.region import MIN_REGION_SIZE, RegionArray
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


def _monitor(regions: RegionArray) -> DataAccessMonitor:
    """A monitor whose primitive is never touched by merge/split."""
    monitor = DataAccessMonitor(primitive=None, attrs=ATTRS, seed=11)
    monitor.regions = regions
    return monitor


@st.composite
def region_lists(draw, min_n=1, max_n=30, max_pages=16, gaps="maybe"):
    """A sorted, non-overlapping region table with random counters.

    ``gaps`` — "maybe": random gaps; "never": fully adjacent;
    "always": at least one page between consecutive regions.
    """
    n = draw(st.integers(min_n, max_n))
    lo = {"maybe": 0, "never": 0, "always": 1}[gaps]
    hi = {"maybe": 3, "never": 0, "always": 3}[gaps]
    starts, ends = [], []
    cursor = 0
    for _ in range(n):
        cursor += draw(st.integers(lo, hi)) * K
        starts.append(cursor)
        cursor += draw(st.integers(1, max_pages)) * K
        ends.append(cursor)
    ra = RegionArray.from_bounds(starts, ends)
    ra.nr_accesses[:] = [draw(st.integers(0, 20)) for _ in range(n)]
    ra.last_nr_accesses[:] = [draw(st.integers(0, 20)) for _ in range(n)]
    ra.age[:] = [draw(st.integers(0, 60)) for _ in range(n)]
    return ra


def _sizes(ra: RegionArray) -> list:
    return (ra.end - ra.start).tolist()


def _covered_bytes(ra: RegionArray) -> int:
    return sum(_sizes(ra))


def _assert_sorted_nonoverlapping(ra: RegionArray) -> None:
    rows = list(zip(ra.start.tolist(), ra.end.tolist()))
    for left, right in zip(rows, rows[1:]):
        assert left[1] <= right[0], f"{left} overlaps {right}"
    for size in _sizes(ra):
        assert size >= MIN_REGION_SIZE


# ----------------------------------------------------------------------
# Merge pass
# ----------------------------------------------------------------------
@given(regions=region_lists(), threshold=st.integers(0, 10))
@settings(max_examples=200)
def test_merge_preserves_bytes_and_structure(regions, threshold):
    before_bytes = _covered_bytes(regions)
    before_n = regions.n
    monitor = _monitor(regions)
    monitor._merge_regions(threshold)
    after = monitor.regions
    assert _covered_bytes(after) == before_bytes
    assert after.n <= before_n
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
    assume(all(size <= sz_limit for size in _sizes(regions)))
    monitor = _monitor(regions)
    monitor._merge_regions(threshold)
    assert monitor.regions.n >= ATTRS.min_nr_regions


# ----------------------------------------------------------------------
# Split pass
# ----------------------------------------------------------------------
@given(regions=region_lists(max_n=55))
@settings(max_examples=200)
def test_split_respects_max_nr_regions_ceiling(regions):
    assume(regions.n <= ATTRS.max_nr_regions)
    before_bytes = _covered_bytes(regions)
    monitor = _monitor(regions)
    monitor._split_regions()
    after = monitor.regions
    assert after.n <= ATTRS.max_nr_regions
    assert _covered_bytes(after) == before_bytes
    _assert_sorted_nonoverlapping(after)


@given(regions=region_lists())
@settings(max_examples=100)
def test_split_children_inherit_counters(regions):
    parents = _rows(regions)
    monitor = _monitor(regions)
    monitor._split_regions()
    for start, end, nr, last, age in _rows(monitor.regions):
        parent = next(p for p in parents if p[0] <= start and end <= p[1])
        assert nr == parent[2]
        assert last == parent[3]
        assert age == parent[4]


def _rows(ra: RegionArray) -> list:
    """``(start, end, nr_accesses, last_nr_accesses, age)`` per row."""
    columns = (ra.start, ra.end, ra.nr_accesses, ra.last_nr_accesses, ra.age)
    return list(zip(*(column.tolist() for column in columns)))


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
    assume(all(size <= sz_limit for size in _sizes(regions)))
    monitor = _monitor(regions)
    for threshold in thresholds:
        monitor._merge_regions(threshold)
        monitor._split_regions()
        assert ATTRS.min_nr_regions <= monitor.regions.n <= ATTRS.max_nr_regions
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
    before = [row[2:] for row in _rows(regions)]
    monitor = _monitor(regions)
    monitor._merge_regions(threshold)
    assert monitor.regions.n == len(before)
    for new_age, (nr, last, age) in zip(monitor.regions.age.tolist(), before):
        if abs(nr - last) > threshold:
            assert new_age == 0, "changed count must reset the age"
        else:
            assert new_age == age + 1, "stable count must increment the age"


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
    cut = left_pages * K
    size = (left_pages + right_pages) * K
    ra = RegionArray.from_bounds([0, cut], [cut, size])
    ra.nr_accesses[:] = ra.last_nr_accesses[:] = [left_nr, right_nr]
    ra.age[:] = [left_age, right_age]
    ra.sampling_addr[0] = cut - K
    # Any two counts in [0, 20] are within the threshold, so the pair
    # folds; both rows were stable, so each aged by one first.
    assert ra.age_and_merge(threshold=20, sz_limit=size) == 1
    assert ra.n == 1
    assert int(ra.end[0] - ra.start[0]) == size
    assert min(left_nr, right_nr) <= ra.nr_accesses[0] <= max(left_nr, right_nr)
    assert min(left_age, right_age) + 1 <= ra.age[0] <= max(left_age, right_age) + 1
    assert ra.sampling_addr[0] == cut - K
