"""LRU victim selection: whole older classes, one uniform draw from the
boundary class, on both candidate routes.

``LruReclaimer.select_victims`` keys each candidate by its integer class
``lru_gen * 10**12 + last_touch // LRU_SCAN_INTERVAL_US``.  Every page
of a class older than the boundary class (the one holding the
``take``-th oldest key) is a victim; the rest of the request is a
uniform draw without replacement from the boundary class, one
``rng.choice`` per call.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sim.lru import LRU_SCAN_INTERVAL_US, LruReclaimer
from repro.sim.pagetable import PAGE_SIZE, PAGES_PER_HUGE
from repro.sim.physmem import FrameTable
from repro.sim.vma import AddressSpace
from repro.units import SEC

BASE = 0x7F00_0000_0000
#: The stamp ``SimKernel.madvise_cold`` writes: below every touch.
COLD = np.iinfo(np.int64).min // 2 + 1
CHUNK = PAGES_PER_HUGE * PAGE_SIZE


class CountingRng:
    """A generator that records the name of every method called on it."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)

        return counted


def _classes(flat):
    """Every page's integer class key, the reference formula."""
    return flat.lru_gen.astype(np.int64) * 10**12 + flat.last_touch // LRU_SCAN_INTERVAL_US


def _space(chunks):
    """One VMA per entry of ``chunks`` (its size in huge chunks), with a
    gap between them, and no page resident."""
    space = AddressSpace()
    start = BASE
    for n in chunks:
        space.mmap(start, n * CHUNK)
        start += (n + 1) * CHUNK
    return space


@st.composite
def tables(draw):
    """A page table with resident pages in a few scan buckets, plus the
    route that selects from it: ``"rmap"`` (a frame table, residency
    sparse enough for the frame-table route) or ``"mask"`` (none)."""
    space = _space(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    flat = space.flat
    route = draw(st.sampled_from(["rmap", "mask"]))
    cap = flat.n_pages // 8 - 1 if route == "rmap" else min(flat.n_pages, 600)
    n_resident = draw(st.integers(1, cap))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    resident = gen.choice(flat.n_pages, n_resident, replace=False)
    flat.present[resident] = True
    buckets = gen.integers(0, 50, draw(st.integers(1, 4)))
    offsets = gen.integers(0, LRU_SCAN_INTERVAL_US, n_resident)
    flat.last_touch[resident] = gen.choice(buckets, n_resident) * LRU_SCAN_INTERVAL_US + offsets
    if draw(st.booleans()):
        flat.last_touch[resident[gen.random(n_resident) < 0.2]] = COLD
    if draw(st.booleans()):
        flat.lru_gen[resident] = gen.integers(-1, 2, n_resident)
    if draw(st.booleans()):
        flat.chunk_huge[gen.integers(0, flat.n_chunks)] = True
    # Some present pages are mid-fault: no frame yet.  The rest get
    # frames in shuffled order, so frame order is not page order.
    framed = resident[gen.random(n_resident) < 0.9]
    frames = FrameTable(flat.n_pages * PAGE_SIZE)
    flat.frame[framed] = frames.allocate(framed.size, framed)
    if route == "rmap":
        assert frames.peak_allocated * 8 < flat.n_pages
        return LruReclaimer(space, frames=frames)
    return LruReclaimer(space)


@given(
    lru=tables(),
    n_pages=st.integers(1, 700),
    edge=st.one_of(st.none(), st.tuples(st.integers(0, 7), st.integers(-1, 1))),
    seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
@settings(max_examples=150, deadline=None)
def test_older_classes_whole_then_the_boundary_class(lru, n_pages, edge, seed):
    """``edge = (c, d)``, when set, asks for the pages of the oldest
    ``c + 1`` classes (wrapping) plus ``d``: a boundary class that fits
    whole, or misses it by one page."""
    flat = lru.space.flat
    candidate = flat.present & (flat.frame >= 0) & ~flat.huge_page_mask()
    keys = _classes(flat)
    if edge is not None and candidate.any():
        ends = np.cumsum(np.unique(keys[candidate], return_counts=True)[1])
        n_pages = max(1, int(ends[edge[0] % ends.size]) + edge[1])
    rng = None if seed is None else CountingRng(seed)
    victims = lru.select_victims(n_pages, rng=rng)
    chosen = np.concatenate(victims) if victims else np.empty(0, dtype=np.int64)
    take = min(n_pages, int(candidate.sum()))
    assert chosen.size == take == np.unique(chosen).size
    # Never a huge-mapped or frame-less page.
    assert candidate[chosen].all()
    # Segments ascending, each group inside its own segment.
    seg = [np.searchsorted(flat.page_offset, idx, side="right") - 1 for idx in victims]
    assert all(s.min() == s.max() for s in seg)
    assert [int(s[0]) for s in seg] == sorted({int(s[0]) for s in seg})
    if take == 0:
        return
    boundary = np.sort(keys[candidate])[take - 1]
    older = np.flatnonzero(candidate & (keys < boundary))
    assert np.isin(older, chosen).all()
    assert np.count_nonzero(keys[chosen] == boundary) == take - older.size
    assert (keys[chosen] <= boundary).all()
    if rng is not None:
        split = np.count_nonzero(candidate & (keys == boundary)) > take - older.size
        assert rng.calls == (["choice"] if split else [])
    assert lru.total_evicted == take


def _one_bucket(n):
    """``n`` resident pages, all in one scan bucket of one class."""
    space = _space([1])
    flat = space.flat
    flat.present[:n] = True
    flat.frame[:n] = np.arange(n)
    flat.last_touch[:n] = 3 * LRU_SCAN_INTERVAL_US + np.arange(n) * (LRU_SCAN_INTERVAL_US // n)
    return LruReclaimer(space)


def test_boundary_draw_is_uniform():
    """64 pages in one bucket, 16 taken, over 2 000 fixed seeds: the
    per-page pick counts pass a chi-square bound at p = 1e-6.  Each
    call picks 16 distinct pages, so a page's count is binomial with
    p = 1/4; the statistic divides by that variance and scales by
    (n-1)/n, which makes it chi-square with 63 degrees of freedom."""
    n, k, seeds = 64, 16, 2000
    lru = _one_bucket(n)
    counts = np.zeros(n, dtype=np.int64)
    for seed in range(seeds):
        (idx,) = lru.select_victims(k, rng=np.random.default_rng(seed))
        counts[idx] += 1
    p = k / n
    stat = ((counts - seeds * p) ** 2).sum() / (seeds * p * (1 - p)) * (n - 1) / n
    # The upper 1e-6 quantile of chi-square with 63 degrees of freedom.
    assert stat < 131.37, stat
    assert counts.sum() == seeds * k


def test_one_draw_only_when_the_boundary_class_is_split():
    lru = _one_bucket(64)
    rng = CountingRng(0)
    lru.select_victims(16, rng=rng)
    assert rng.calls == ["choice"]
    # Taking the whole class, or every candidate, draws nothing.
    flat = lru.space.flat
    flat.last_touch[32:64] = 100 * SEC
    rng = CountingRng(0)
    (idx,) = lru.select_victims(32, rng=rng)
    assert rng.calls == [] and sorted(idx) == list(range(32))
    (idx,) = lru.select_victims(100, rng=rng)
    assert rng.calls == [] and idx.size == 64


def test_rng_none_takes_the_boundary_class_in_candidate_order():
    lru = _one_bucket(64)
    lru.space.flat.lru_gen[40:44] = -1  # deprioritised: an older class
    (idx,) = lru.select_victims(10)
    assert list(idx) == [40, 41, 42, 43, 0, 1, 2, 3, 4, 5]


def test_cold_advised_stamps_cross_lru_classes():
    """A COLD stamp's bucket lies about 1.15 classes down, so a COLD
    page of class g goes before every touched page of class g - 1:
    deprioritised COLD, COLD, deprioritised, prioritised COLD, normal,
    prioritised."""
    lru = _one_bucket(24)
    flat = lru.space.flat
    # Four pages each, listed from the last evicted to the first.
    flat.lru_gen[0:4] = 1
    flat.lru_gen[8:12] = 1
    flat.lru_gen[12:16] = -1
    flat.lru_gen[20:24] = -1
    flat.last_touch[8:12] = COLD
    flat.last_touch[16:24] = COLD
    for n in range(1, 7):
        (idx,) = lru.select_victims(4 * n)
        assert sorted(idx) == list(range(24 - 4 * n, 24))
