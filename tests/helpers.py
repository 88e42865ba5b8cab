"""Shared non-fixture helpers for tests."""

from __future__ import annotations

import io
import os
import time
from dataclasses import fields
from pathlib import Path

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
    queue.run_for(n_epochs * epoch_us)


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
