"""Shared non-fixture helpers for tests."""

from __future__ import annotations

import io
import os
import time
from pathlib import Path

from repro.runner.experiment import run_experiment
from repro.trace import JsonlTraceSink, TraceBus
from repro.units import MSEC

#: Base address used by most unit tests (2 MiB aligned).
BASE = 0x7F00_0000_0000


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
