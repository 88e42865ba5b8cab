"""Shared non-fixture helpers for tests."""

from __future__ import annotations

import importlib.util
from pathlib import Path
from unittest import mock

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


def load_oracle_kernel() -> type:
    """The frozen reference kernel of ``benchmarks/_legacy_kernel.py``,
    adapted to what production asks of a kernel today.

    The oracle predates the probe-generation counters and keeps none, so
    the adapter answers "unknown": the monitor then asks it about one
    sampling tick at a time, which is the behaviour it was frozen with.
    It also predates the sanitizer, the slow tier and shared watermarks,
    so the adapter accepts and drops those constructor keywords.
    """
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "_legacy_kernel.py"
    spec = importlib.util.spec_from_file_location("_legacy_kernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    class OracleKernel(module.LegacySimKernel):
        def __init__(
            self, guest, *, sanitizer=None, tier_policy="managed", watermarks=None, **kw
        ):
            super().__init__(guest, **kw)

        def probe_generation(self):
            return None

        def frame_probe_generation(self):
            return None

    return OracleKernel


def oracle_kernel_runs():
    """A context manager: within the block the experiment driver builds
    the frozen oracle kernel instead of
    :class:`~repro.sim.kernel.SimKernel`, so the differential tests run
    their reference through the real driver."""
    return mock.patch("repro.runner.experiment.SimKernel", load_oracle_kernel())
