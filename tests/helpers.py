"""Shared non-fixture helpers for tests."""

from __future__ import annotations

import io
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import List, Tuple

import numpy as np

from repro.runner.experiment import run_experiment
from repro.sim.pagetable import PAGE_SIZE
from repro.trace import JsonlTraceSink, TraceBus
from repro.units import MSEC

#: Base address used by most unit tests (2 MiB aligned).
BASE = 0x7F00_0000_0000


def mapped_bytes(space):
    """Total bytes covered by ``space``'s VMAs."""
    return sum(v.size for v in space.vmas)


def swapped_bytes(space):
    """Bytes of ``space`` held on the swap device."""
    return space.flat.n_swapped * PAGE_SIZE


def page_out(flat, lo, hi):
    """Move the present pages of ``[lo, hi)`` of the page table ``flat``
    outside huge chunks to swap through ``FlatPageTable.unmap``, the
    pages a PAGEOUT with swap room takes; returns ``(idx, n_dirty)``."""
    idx = np.flatnonzero(flat.present[lo:hi]) + lo
    idx = idx[~flat.huge_page_mask(idx)]
    _, n_dirty = flat.unmap(idx, to_swap=True)
    return idx, n_dirty


def set_rate(flat, lo, hi, rate_per_sec):
    """Overwrite the touch rate of pages ``[lo, hi)`` of the page table
    ``flat`` for the current epoch: a zeroed range plus ``add_rate``,
    which records the range for the epoch's clear."""
    flat.rate[lo:hi] = 0.0
    flat.add_rate(lo, hi, rate_per_sec)


def result_fields(result):
    """Field-name → value mapping of a ``RunResult`` (for field-by-field
    comparisons)."""
    return {f.name: getattr(result, f.name) for f in fields(result)}


def cache_files(cache):
    """Every file under a :class:`~repro.sweep.cache.ResultCache`'s
    root, sorted: its entries and any temporary file a write left."""
    return sorted(path for path in cache.root.rglob("*") if path.is_file())


def write_frequency(region, max_nr_accesses):
    """A :class:`~repro.monitor.snapshot.RegionSnapshot`'s write
    frequency as a fraction of the sampling checks."""
    if max_nr_accesses <= 0:
        return 0.0
    return min(1.0, region.nr_writes / max_nr_accesses)


def hottest_bucket(heatmap):
    """``(time_bin, addr_bin)`` of a heatmap's maximum intensity."""
    flat = int(np.argmax(heatmap.grid))
    return flat // heatmap.addr_bins, flat % heatmap.addr_bins


def lru_list_sizes(lru, now, window_us):
    """(active, inactive) page counts of ``lru`` at virtual time ``now``:
    present pages touched within the last ``window_us``, and the rest."""
    flat = lru.space.flat
    recent = flat.last_touch >= now - window_us
    active = int(np.count_nonzero(flat.present & recent))
    return active, int(np.count_nonzero(flat.present)) - active


def run_epochs(kernel, queue, bursts, n_epochs, epoch_us=100 * MSEC, compute_us=None):
    """Drive ``n_epochs`` epochs; ``bursts`` is a list of dicts passed to
    ``kernel.apply_access`` (each gets start/end/etc.)."""
    compute_us = compute_us if compute_us is not None else epoch_us * 0.7

    def one_epoch(now):
        kernel.begin_epoch()
        for burst in bursts:
            kernel.apply_access(now=now, epoch_us=epoch_us, **burst)
        kernel.end_epoch(now + epoch_us, compute_us)

    one_epoch(queue.clock.now)
    queue.schedule_periodic(epoch_us, one_epoch)
    queue.run_until(queue.clock.now + n_epochs * epoch_us)


def schedule_once(queue, when, fn):
    """Run ``fn(now)`` once at virtual time ``when``: a periodic pinned
    to ``when`` that cancels itself as it fires.  Its name has no
    same-instant rank, so it ties with other events in scheduling
    order."""

    def once(now):
        event.cancel()
        fn(now)

    event = queue.schedule_periodic(1, once, name="once", first_at=when)
    return event


@dataclass
class WssEstimator:
    """Working-set-size time series collected from a STAT scheme.

    Record one (time, matched bytes) point per engine interval, then read
    percentiles — the upstream tooling reports exactly this distribution.
    """

    points: List[Tuple[int, int]] = field(default_factory=list)

    def record(self, time_us: int, matched_bytes: int) -> None:
        self.points.append((time_us, matched_bytes))

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0–100) of matched bytes over time."""
        if not self.points:
            return 0.0
        values = sorted(v for _, v in self.points)
        if len(values) == 1:
            return float(values[0])
        rank = (q / 100.0) * (len(values) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(values) - 1)
        frac = rank - lo
        return values[lo] * (1.0 - frac) + values[hi] * frac

    def average(self) -> float:
        if not self.points:
            return 0.0
        return sum(v for _, v in self.points) / len(self.points)


def traced_run(**kw):
    """One experiment with a full JSONL capture; returns (result, text)."""
    bus = TraceBus(ring_capacity=0)
    buffer = io.StringIO()
    bus.subscribe_all(JsonlTraceSink(buffer))
    result = run_experiment(trace=bus, **kw)
    return result, buffer.getvalue()


# ----------------------------------------------------------------------
# Sweep point functions for the worker-pool tests, reached through the
# "module:attribute" path so a spawn worker can resolve them.
# ----------------------------------------------------------------------
def pid_point(params):
    """The executing process's pid (which worker ran the point)."""
    return {"pid": os.getpid()}


def sleepy_point(params):
    """Drop a ``<pid>-<x>`` marker in ``params["dir"]``, sleep, return 3x."""
    Path(params["dir"], f"{os.getpid()}-{params['x']}").touch()
    time.sleep(params["sleep_s"])
    return {"value": float(params["x"]) * 3.0}
