"""Shared fixtures: small, fast simulation objects for unit tests.

Hypothesis profiles: ``ci`` (selected via ``HYPOTHESIS_PROFILE=ci``, as
the GitHub Actions workflow does) is derandomised so CI failures always
reproduce; the default ``dev`` profile keeps random exploration locally.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

from repro.monitor.attrs import MonitorAttrs
from repro.sanitize import set_default_enabled

# The conftest is an environment boundary like the CLI (DT204):
# DAOS_SANITIZE=1 runs the whole suite under the SimSanitizer runtime
# checks.  The tier-1 suite must pass byte-identically either way —
# the CI sanitizer job enforces exactly that.
if os.environ.get("DAOS_SANITIZE") == "1":
    set_default_enabled(True)

from repro.clock import EventQueue
from repro.sim.costs import CostModel
from repro.sim.kernel import SimKernel
from repro.sim.machine import GuestSpec, get_instance
from repro.sim.swap import ZramDevice
from repro.units import MIB, MSEC, SEC

from tests.helpers import BASE, run_epochs  # noqa: F401  (re-exported)


@pytest.fixture
def small_guest():
    """A guest with 256 MiB of DRAM — big enough for unit scenarios,
    small enough that frame tables build instantly."""
    return GuestSpec(host=get_instance("i3.metal"), vcpus=4, dram_bytes=256 * MIB)


@pytest.fixture
def kernel(small_guest):
    return SimKernel(small_guest, swap=ZramDevice(64 * MIB), seed=7)


@pytest.fixture
def queue():
    return EventQueue()


@pytest.fixture
def fast_attrs():
    """Monitor attrs scaled 5x faster than the paper's for quick tests."""
    return MonitorAttrs(
        sampling_interval_us=1 * MSEC,
        aggregation_interval_us=20 * MSEC,
        regions_update_interval_us=200 * MSEC,
        min_nr_regions=10,
        max_nr_regions=200,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(42)
