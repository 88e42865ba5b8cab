"""Kernel invariants under property testing: touch/map/reclaim storms.

The vectorized kernel keeps several pieces of redundant state in sync —
per-VMA page-table columns bound into the flat concatenated table,
incremental present/swapped counters, the frame table's owner arrays and
free stack, and the swap device's usage counter.  These tests drive a
seeded :class:`~repro.sim.kernel.SimKernel` through random storms of
touches (read and write), mmap/munmap churn, explicit pageouts, epoch
boundaries and khugepaged scans, checking after every step:

* **frame conservation** — allocated + free == total frames, and the
  allocated set is exactly the present-and-framed pages of the space;
* **present/swapped exclusivity** — no page is in DRAM and on swap at
  once, and the swap device's usage equals the swapped page count;
* **counter coherence** — the O(1) resident/swapped counters equal a
  fresh count of the underlying columns;
* **LRU ordering** — victim selection with the random tie-break off
  never evicts a page from a younger (lru_gen, scan-bucket) class while
  an older one survives;
* **THP eligibility** — khugepaged only collapses chunks that met the
  policy's present-page threshold, and huge chunks stay fully resident.

A final determinism check replays the same storm twice and requires
identical page-table state and metrics.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sim.kernel import SimKernel
from repro.sim.lru import LRU_SCAN_INTERVAL_US
from repro.sim.machine import GuestSpec, get_instance
from repro.sim.pagetable import PAGES_PER_HUGE
from repro.sim.swap import ZramDevice
from repro.sim.thp import ThpPolicy
from repro.units import MIB, MSEC

BASE = 0x7F00_0000_0000
EPOCH = 100 * MSEC

#: Extra-VMA slots the storm may map and unmap, away from the base VMA
#: (same shape as the layout-churn property tests).
SLOTS = [BASE + (i + 2) * 256 * MIB for i in range(4)]


def _fresh_kernel() -> SimKernel:
    guest = GuestSpec(host=get_instance("i3.metal"), vcpus=4, dram_bytes=64 * MIB)
    kernel = SimKernel(
        guest,
        swap=ZramDevice(32 * MIB),
        thp=ThpPolicy(mode="always"),
        seed=7,
        oom_policy="shed",
    )
    kernel.mmap(BASE, 32 * MIB)
    return kernel


# --- storm vocabulary -------------------------------------------------------
_touch = st.tuples(
    st.just("touch"),
    st.integers(-1, len(SLOTS) - 1),  # -1 = the base VMA
    st.floats(0.0, 0.9),              # start, as a fraction of the VMA
    st.sampled_from([1, 2, 4, 8]),    # span in MiB
    st.booleans(),                    # dirty the pages?
)
_map_toggle = st.tuples(
    st.just("map"), st.integers(0, len(SLOTS) - 1), st.sampled_from([4, 8, 16])
)
_pageout = st.tuples(
    st.just("pageout"), st.integers(-1, len(SLOTS) - 1), st.floats(0.0, 0.9)
)
_epoch = st.tuples(st.just("epoch"))
_scan = st.tuples(st.just("scan"))

ops = st.lists(
    st.one_of(_touch, _map_toggle, _pageout, _epoch, _scan),
    min_size=1,
    max_size=15,
)


def _vma_for(kernel, vmas, slot):
    if slot == -1:
        return kernel.space.vmas[0] if kernel.space.vmas else None
    return vmas.get(slot)


def _drive(kernel, storm, check=None):
    """Apply one storm, calling ``check(kernel, now)`` after every op."""
    vmas = {}
    now = 0
    for op in storm:
        kind = op[0]
        if kind == "touch":
            _, slot, frac, size_mib, write = op
            vma = _vma_for(kernel, vmas, slot)
            if vma is not None:
                start = vma.start + int(frac * vma.size) // 4096 * 4096
                end = min(vma.end, start + size_mib * MIB)
                kernel.apply_access(
                    start, end, now, EPOCH,
                    write_fraction=0.5 if write else 0.0,
                )
        elif kind == "map":
            _, slot, size_mib = op
            if slot in vmas:
                kernel.munmap(vmas.pop(slot))
            else:
                vmas[slot] = kernel.mmap(SLOTS[slot], size_mib * MIB)
        elif kind == "pageout":
            _, slot, frac = op
            vma = _vma_for(kernel, vmas, slot)
            if vma is not None:
                start = vma.start + int(frac * vma.size) // 4096 * 4096
                kernel.pageout(start, vma.end, now)
        elif kind == "epoch":
            kernel.end_epoch(now + EPOCH, compute_us=70_000)
            kernel.begin_epoch()
        elif kind == "scan":
            kernel.khugepaged_scan(now)
        now += EPOCH
        if check is not None:
            check(kernel, now)
    return now


# --- invariants -------------------------------------------------------------
def _check_conservation(kernel, now):
    frames = kernel.frames
    assert frames.allocated + frames.free_frames() == frames.n_frames
    live = frames.allocated_frames()
    assert live.size == frames.allocated
    assert (frames.owner_vma[live] >= 0).all()

    flat = kernel.space.flat
    framed = flat.present & (flat.frame >= 0)
    assert int(np.count_nonzero(framed)) == frames.allocated
    # Every owned frame points back at a present page that owns it.
    seg = kernel._ordinal_segments()[frames.owner_vma[live]]
    assert (seg >= 0).all(), "frame owned by an unmapped VMA"
    back = flat.page_offset[seg] + frames.owner_page[live]
    assert np.array_equal(np.sort(flat.frame[back]), np.sort(live))


def _check_exclusivity(kernel, now):
    flat = kernel.space.flat
    assert not (flat.present & flat.swapped).any()
    swapped = int(np.count_nonzero(flat.swapped))
    assert swapped == kernel.swap.used_pages


def _check_counters(kernel, now):
    for vma in kernel.space.vmas:
        pt = vma.pages
        assert pt.resident_pages() == int(np.count_nonzero(pt.present))
        assert pt.swapped_pages() == int(np.count_nonzero(pt.swapped))


def _check_huge_residency(kernel, now):
    flat = kernel.space.flat
    if flat.n_chunks and flat.chunk_huge.any():
        counts = flat.chunk_present_counts()
        assert (counts[flat.chunk_huge] == PAGES_PER_HUGE).all()


def _check_all(kernel, now):
    _check_conservation(kernel, now)
    _check_exclusivity(kernel, now)
    _check_counters(kernel, now)
    _check_huge_residency(kernel, now)


@given(storm=ops)
@settings(max_examples=40, deadline=None)
def test_invariants_survive_churn(storm):
    kernel = _fresh_kernel()
    _drive(kernel, storm, check=_check_all)


@given(storm=ops, n_pages=st.integers(1, 4096))
@settings(max_examples=40, deadline=None)
def test_lru_ordering_respects_generations(storm, n_pages):
    """With the tie-break RNG off, no chosen victim may belong to a
    strictly younger (lru_gen, scan-bucket) class than a survivor."""
    kernel = _fresh_kernel()
    _drive(kernel, storm)
    flat = kernel.space.flat
    victims = kernel.lru.select_victims(n_pages, rng=None)
    if not victims:
        return
    chosen_stamps = []
    for vma, sel in victims:
        pt = vma.pages
        bucket = np.floor(pt.last_touch[sel].astype(np.float64) / LRU_SCAN_INTERVAL_US)
        chosen_stamps.append(bucket + pt.lru_gen[sel].astype(np.float64) * 1e12)
    chosen_stamps = np.concatenate(chosen_stamps)
    # Rebuild the evictable set the same way the reclaimer does.
    evictable = flat.present & (flat.frame >= 0)
    if flat.chunk_huge.any():
        evictable &= ~flat.huge_page_mask()
    stamps = np.floor(flat.last_touch.astype(np.float64) / LRU_SCAN_INTERVAL_US)
    stamps += flat.lru_gen.astype(np.float64) * 1e12
    chosen_count = sum(sel.size for _, sel in victims)
    assert chosen_count == min(n_pages, int(np.count_nonzero(evictable)))
    survivors = int(np.count_nonzero(evictable)) - chosen_count
    if survivors:
        survivor_stamps = np.sort(stamps[evictable])[chosen_count:]
        assert chosen_stamps.max() <= survivor_stamps.min() + 1e-9


@given(storm=ops)
@settings(max_examples=30, deadline=None)
def test_khugepaged_respects_threshold(storm):
    kernel = _fresh_kernel()
    now = _drive(kernel, storm)
    flat = kernel.space.flat
    if flat.n_chunks == 0:
        return
    before_counts = flat.chunk_present_counts().copy()
    before_huge = flat.chunk_huge.copy()
    kernel.khugepaged_scan(now)
    flat = kernel.space.flat
    newly_huge = flat.chunk_huge & ~before_huge
    threshold = kernel.thp_policy.min_present_pages
    assert (before_counts[newly_huge] >= threshold).all()
    _check_huge_residency(kernel, now)


@given(storm=ops)
@settings(max_examples=20, deadline=None)
def test_same_seed_storms_are_identical(storm):
    def run():
        kernel = _fresh_kernel()
        _drive(kernel, storm)
        flat = kernel.space.flat
        return (
            flat.present.tobytes(),
            flat.swapped.tobytes(),
            flat.dirty.tobytes(),
            flat.frame.tobytes(),
            flat.last_touch.tobytes(),
            flat.chunk_huge.tobytes(),
            kernel.metrics.minor_faults,
            kernel.metrics.major_faults,
            kernel.metrics.reclaim_evictions,
            kernel.swap.used_pages,
        )

    assert run() == run()


# --- the scheme pass's candidate test -----------------------------------------
@given(storm=ops, data=st.data())
@settings(max_examples=60, deadline=None)
def test_candidate_test_matches_the_per_range_loop(storm, data):
    """``scheme_pass`` drops a row only when the back-end's own walk
    (``ranges_in`` for a virtual range, the frame table for a physical
    one) finds nothing to act on.  Rows come in any order, start and
    end near mapping edges (often off a page boundary) and may cover
    gaps, as filter pieces and quota-ranked regions do."""
    kernel = _fresh_kernel()
    _drive(kernel, storm)
    edges = [a for vma in kernel.space.vmas for a in (vma.start, vma.end)]
    n_frames = kernel.frames.n_frames
    near = st.integers(-8 * 4096, 8 * 4096)
    rows = data.draw(
        st.lists(
            st.tuples(st.sampled_from(edges), near, st.integers(1, 64 * 4096)),
            min_size=1,
            max_size=12,
        )
    )
    starts = np.array([max(0, edge + off) for edge, off, _ in rows], dtype=np.int64)
    ends = starts + np.array([size for _, _, size in rows], dtype=np.int64)

    def walk(column, start, end):
        return any(
            getattr(vma.pages, column)[lo:hi].any()
            for vma, lo, hi in kernel.space.ranges_in(start, end)
        )

    for kind in ("present", "swapped"):
        got = kernel._has_candidates(kind, starts, ends)
        want = [walk(kind, s, e) for s, e in zip(starts.tolist(), ends.tolist())]
        assert got.tolist() == want, kind

    # Physical rows: the same shapes folded onto the frame table's end.
    phys_starts = (n_frames - 64) * 4096 + starts % (128 * 4096)
    phys_ends = phys_starts + (ends - starts)
    got = kernel._has_candidates("owned", phys_starts, phys_ends)
    want = [
        bool((kernel.frames.owner_vma[s // 4096 : -(-e // 4096)] >= 0).any())
        for s, e in zip(phys_starts.tolist(), phys_ends.tolist())
    ]
    assert got.tolist() == want

    # Migration needs a managed slow tier: a flat kernel drops every row.
    assert not kernel._has_candidates("demote", starts, ends).any()
