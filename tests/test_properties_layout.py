"""Layout churn under property testing: mmap/munmap storms.

Drives ``regions_update_tick`` through seeded storms of address-space
changes and checks, after every update:

* the **tiling invariant** — the region list covers the target ranges
  byte for byte (``check_invariants`` now asserts it; before the
  sliver fix, churn could permanently drop mapped bytes from
  monitoring);
* **counter-history preservation** — a region whose span survived the
  layout change keeps its counters through the update;
* **determinism** — two monitors with the same seed driven through the
  same storm end with identical region tables (the struct-of-arrays
  engine consumes randomness as a pure function of the region state).

The column clipping pass itself (``RegionArray.clipped_to``) is held to
the row-based clipping it replaced, copied below as the reference: on
random tables and range sets, every column must come out equal.

Byte-identity of pool vs serial sweeps with the array engine is covered
end-to-end by ``tests/test_sweep_determinism.py`` (fingerprint
comparison), which runs against the same monitor code path.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.monitor.attrs import MonitorAttrs
from repro.monitor.core import DataAccessMonitor
from repro.monitor.primitives import VirtualPrimitive
from repro.monitor.region import _COLUMNS, MIN_REGION_SIZE, RegionArray
from repro.sim.kernel import SimKernel
from repro.sim.machine import GuestSpec, get_instance
from repro.sim.swap import ZramDevice
from repro.units import MIB, MSEC

BASE = 0x7F00_0000_0000

ATTRS = MonitorAttrs(
    sampling_interval_us=1 * MSEC,
    aggregation_interval_us=20 * MSEC,
    regions_update_interval_us=100 * MSEC,
    min_nr_regions=5,
    max_nr_regions=80,
)

#: Extra-VMA slots the storm may map and unmap, away from the base VMA.
SLOTS = [BASE + (i + 2) * 256 * MIB for i in range(4)]


def _fresh_monitor(seed: int):
    guest = GuestSpec(host=get_instance("i3.metal"), vcpus=4, dram_bytes=256 * MIB)
    kernel = SimKernel(guest, swap=ZramDevice(128 * MIB), seed=7)
    kernel.mmap(BASE, 32 * MIB)
    monitor = DataAccessMonitor(VirtualPrimitive(kernel), ATTRS, seed=seed)
    monitor.init_regions()
    return kernel, monitor


def _apply_op(kernel, vmas, op) -> None:
    slot, size_mib = op
    if slot in vmas:
        kernel.munmap(vmas.pop(slot))
    else:
        vmas[slot] = kernel.mmap(SLOTS[slot], size_mib * MIB)


#: One storm step: toggle a slot between mapped (at some size) and not.
ops = st.lists(
    st.tuples(st.integers(0, len(SLOTS) - 1), st.sampled_from([4, 8, 16])),
    min_size=1,
    max_size=12,
)


@given(storm=ops)
@settings(max_examples=40, deadline=None)
def test_tiling_and_history_survive_churn(storm):
    kernel, monitor = _fresh_monitor(seed=11)
    vmas = {}
    now = 0
    for op in storm:
        # Stamp distinctive counters so preservation is observable.
        ra = monitor.regions
        i = np.arange(ra.n)
        ra.nr_accesses[:] = (i % 19) + 1
        ra.last_nr_accesses[:] = i % 7
        ra.age[:] = i % 13
        spans = _rows(ra)
        _apply_op(kernel, vmas, op)
        now += ATTRS.regions_update_interval_us
        monitor.regions_update_tick(now)
        # Tiling: regions cover the target ranges byte for byte.
        monitor.check_invariants()
        ra = monitor.regions
        total = int((ra.end - ra.start).sum())
        expected = sum(e - s for s, e in monitor.primitive.target_ranges())
        assert total == expected
        # History: any region inside a surviving old span keeps the
        # counters that span carried (layouts here are page-aligned, so
        # no sliver absorption can rewrite boundaries).
        for start, end, nr, last, age in _rows(ra):
            owners = [s for s in spans if s[0] <= start and end <= s[1]]
            if owners:
                assert (nr, last, age) == owners[0][2:]


def _rows(ra):
    """``(start, end, nr_accesses, last_nr_accesses, age)`` per row."""
    columns = (ra.start, ra.end, ra.nr_accesses, ra.last_nr_accesses, ra.age)
    return list(zip(*(column.tolist() for column in columns)))


@given(storm=ops)
@settings(max_examples=20, deadline=None)
def test_same_seed_storms_are_identical(storm):
    def run():
        kernel, monitor = _fresh_monitor(seed=23)
        vmas = {}
        now = 0
        for op in storm:
            _apply_op(kernel, vmas, op)
            now += ATTRS.regions_update_interval_us
            monitor.regions_update_tick(now)
            monitor.sample_tick(now)
            monitor.aggregate_tick(now + ATTRS.aggregation_interval_us)
        return _rows(monitor.regions)

    assert run() == run()


# ----------------------------------------------------------------------
# The column clipping pass against the row-based clipping it replaced
# ----------------------------------------------------------------------
class _ReferenceRegion:
    """The free-standing region row the reference clips."""

    def __init__(self, start: int, end: int):
        assert end - start >= MIN_REGION_SIZE
        self.start, self.end = start, end
        self.nr_accesses = self.last_nr_accesses = self.nr_writes = self.age = 0
        self.write_ewma = 0.0
        self.sampling_addr = start

    def overlaps(self, start: int, end: int) -> bool:
        return self.start < end and start < self.end


def _reference_intersecting(regions: List, ranges: List[tuple]) -> List:
    """Row-based layout clipping, as the monitor did it before the
    column pass (``regions_intersecting``)."""
    out: List = []
    for range_start, range_end in ranges:
        pieces: List[tuple] = []
        covered = range_start
        for region in regions:
            if not region.overlaps(range_start, range_end):
                continue
            lo = max(region.start, range_start)
            hi = min(region.end, range_end)
            if lo > covered:
                pieces.append((covered, lo, None))
            pieces.append((lo, hi, region))
            covered = hi
        if range_end > covered:
            pieces.append((covered, range_end, None))
        merged: List[tuple] = []
        carry: Optional[int] = None
        for start, end, source in pieces:
            if carry is not None:
                start = carry
                carry = None
            if end - start < MIN_REGION_SIZE:
                carry = start
                continue
            merged.append((start, end, source))
        if carry is not None:
            if merged:
                last_start, _, last_source = merged[-1]
                merged[-1] = (last_start, range_end, last_source)
        for start, end, source in merged:
            region = _ReferenceRegion(start, end)
            if source is not None:
                region.nr_accesses = source.nr_accesses
                region.last_nr_accesses = source.last_nr_accesses
                region.nr_writes = source.nr_writes
                region.write_ewma = source.write_ewma
                region.age = source.age
            out.append(region)
    return out


K = MIN_REGION_SIZE
#: Byte lengths mixing whole pages with sub-page remainders, so clipped
#: rows and gaps land on and off page boundaries.
_lengths = st.builds(
    lambda pages, tail: pages * K + tail,
    st.integers(0, 6),
    st.one_of(st.just(0), st.integers(1, K - 1)),
)


#: The columns a case draws per row, in ``_layout_cases`` order.
_DRAWN = ("nr_accesses", "last_nr_accesses", "nr_writes", "write_ewma", "age", "sampling_addr")


@st.composite
def _layout_cases(draw):
    """A sorted, non-overlapping table with random counters and a
    sorted, non-overlapping range set over the same span."""
    rows = []
    cursor = draw(st.integers(0, 3 * K))
    for _ in range(draw(st.integers(0, 12))):
        cursor += draw(_lengths)  # gap before the row, maybe none
        size = K + draw(_lengths)
        rows.append((cursor, cursor + size))
        cursor += size
    ranges = []
    cursor = draw(st.integers(0, 3 * K))
    for _ in range(draw(st.integers(0, 5))):
        cursor += draw(_lengths)
        size = draw(st.one_of(st.integers(1, K), _lengths.filter(bool), st.integers(K, 40 * K)))
        ranges.append((cursor, cursor + size))
        cursor += size
    counters = st.integers(0, 1_000)
    history = [
        (
            draw(counters),
            draw(counters),
            draw(counters),
            draw(st.floats(0.0, 100.0, allow_nan=False)),
            draw(counters),
            draw(st.integers(0, (end - start) // K - 1)) * K + start,
        )
        for start, end in rows
    ]
    return rows, history, ranges


@given(case=_layout_cases())
@settings(max_examples=300, deadline=None)
def test_column_clipping_equals_row_clipping(case):
    rows, history, ranges = case
    ra = RegionArray.from_bounds([s for s, _ in rows], [e for _, e in rows])
    reference = []
    for i, ((start, end), values) in enumerate(zip(rows, history)):
        region = _ReferenceRegion(start, end)
        for name, value in zip(_DRAWN, values):
            getattr(ra, name)[i] = value
            setattr(region, name, value)
        reference.append(region)
    out = ra.clipped_to(ranges)
    expected = _reference_intersecting(reference, ranges)
    assert out.n == len(expected)
    for name in _COLUMNS:
        assert getattr(out, name).tolist() == [getattr(r, name) for r in expected], name
    assert out.start.dtype == out.sampling_addr.dtype == np.int64
    assert out.write_ewma.dtype == np.float64
    # What survives tiles every range a region fits in.
    out.check_invariants([(s, e) for s, e in ranges if e - s >= MIN_REGION_SIZE])
