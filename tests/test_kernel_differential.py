"""Differential proof: the vectorized kernel equals the frozen legacy one.

The kernel epoch loop was rewritten from per-VMA gather loops to
whole-table masked passes over the flat concatenated page table
(``AddressSpace.flat``), with the LRU reclaimer optionally sourcing its
candidates from the frame table when residency is sparse.  The refactor
claims *bit identity*: same seed, same workload, same machine → the same
``RunResult`` (modulo wall clock) and the same canonical trace stream.

These tests run every scenario through both kernels — the live
:class:`~repro.sim.kernel.SimKernel` and the pre-rewrite implementation
frozen in ``benchmarks/_legacy_kernel.py`` — via the real experiment
driver (``tests.helpers.oracle_kernel_runs`` swaps the class it
builds), and compare:

* the full ``RunResult`` field for field (``wall_clock_us`` excluded);
* the JSONL trace, byte for byte (event order, payloads, counts).

Scenario coverage spans the Figure 3 pattern components through the
registry workloads, plus custom pressure scenarios that force sustained
reclaim through both ``select_victims`` candidate routes: the sparse
frame-table route (table ≫ DRAM) and the dense whole-table mask route
(table ≈ DRAM).
"""

from __future__ import annotations

import dataclasses
import io

import pytest

from repro.runner.experiment import run_experiment
from repro.sim.machine import scaled_instance
from repro.trace import JsonlTraceSink, TraceBus
from repro.units import GIB, MIB, SEC
from repro.workloads.base import WorkloadSpec
from repro.workloads.patterns import CyclicSweep, Hotspot

from tests.helpers import oracle_kernel_runs


def traced_run(**kw):
    """One experiment with a full JSONL capture; returns (result, text)."""
    bus = TraceBus(ring_capacity=0)
    buffer = io.StringIO()
    bus.subscribe_all(JsonlTraceSink(buffer))
    result = run_experiment(trace=bus, **kw)
    return result, buffer.getvalue()


def assert_identical(**kw):
    """Both kernels, same inputs: identical results and traces."""
    new_result, new_text = traced_run(**kw)
    with oracle_kernel_runs():
        # The oracle predates the sanitizer and has none of the state its
        # run-end pass reads; under DAOS_SANITIZE=1 its run stays plain.
        old_result, old_text = traced_run(sanitize=False, **kw)
    new_dict = dataclasses.asdict(new_result)
    old_dict = dataclasses.asdict(old_result)
    new_dict.pop("wall_clock_us")
    old_dict.pop("wall_clock_us")
    diverged = [k for k in new_dict if new_dict[k] != old_dict[k]]
    assert not diverged, (
        f"RunResult diverged in {diverged}: "
        + "; ".join(f"{k}: new={new_dict[k]!r} legacy={old_dict[k]!r}" for k in diverged)
    )
    assert new_text == old_text, "trace streams diverged"
    return new_result


#: (workload, config) pairs spanning the Fig 3 pattern components and
#: every monitoring configuration family: plain LRU, DAMON_RECLAIM,
#: khugepaged under thp=always, and the prcl scheme (PAGEOUT actions).
REGISTRY_CASES = [
    ("parsec3/freqmine", "baseline"),
    ("splash2x/ocean_ncp", "rec"),
    ("parsec3/canneal", "thp"),
    ("parsec3/dedup", "prcl"),
]


@pytest.mark.parametrize("workload,config", REGISTRY_CASES)
def test_registry_workloads_identical(workload, config):
    assert_identical(workload=workload, config=config, seed=3, time_scale=0.02)


def _pressure_spec(footprint: int, period_us: int, duration_us: int) -> WorkloadSpec:
    """A sweep that outgrows the guest's DRAM: sustained reclaim, every
    epoch, for the whole run."""
    return WorkloadSpec(
        name="pressure",
        suite="diff",
        footprint=footprint,
        duration_us=duration_us,
        components=(
            CyclicSweep(0, footprint - 16 * MIB, period_us=period_us, touches_per_sec=400),
            Hotspot(footprint - 4 * MIB, 4 * MIB),
        ),
    )


def test_sparse_pressure_identical():
    """Table ≫ DRAM: the reclaimer's frame-table candidate route."""
    result = assert_identical(
        workload=_pressure_spec(512 * MIB, 2 * SEC, 6 * SEC),
        config="baseline",
        machine=scaled_instance("i3.metal", dram_scale=1 / 1024),
        seed=11,
    )
    assert result.breakdown["reclaim_evictions"] > 0, "scenario never reclaimed"


def test_sparse_pressure_with_monitor_identical():
    """Same pressure under DAMON_RECLAIM: scheme pageouts interleave
    with watermark reclaim."""
    assert_identical(
        workload=_pressure_spec(512 * MIB, 2 * SEC, 6 * SEC),
        config="rec",
        machine=scaled_instance("i3.metal", dram_scale=1 / 1024),
        seed=11,
    )


def test_dense_pressure_identical():
    """Table ≈ DRAM: residency too dense for the frame route, so the
    whole-table mask route selects victims."""
    result = assert_identical(
        workload=_pressure_spec(48 * MIB, 2 * SEC, 6 * SEC),
        config="baseline",
        machine=scaled_instance("i3.metal", dram_scale=1 / 8192),
        seed=11,
    )
    assert result.breakdown["reclaim_evictions"] > 0, "scenario never reclaimed"


def test_thp_pressure_identical():
    """khugepaged bloat pushing against small DRAM: promotions, huge
    skips in reclaim, and shed-mode OOM handling all match."""
    fp = 192 * MIB
    spec = WorkloadSpec(
        name="thp-pressure",
        suite="diff",
        footprint=fp,
        duration_us=6 * SEC,
        components=(
            CyclicSweep(0, fp - 16 * MIB, period_us=4 * SEC, touches_per_sec=400),
            Hotspot(fp - 4 * MIB, 4 * MIB),
        ),
    )
    assert_identical(
        workload=spec,
        config="thp",
        machine=scaled_instance("i3.metal", dram_scale=1 / 2048),
        seed=7,
        oom_policy="shed",
    )


def test_file_swap_identical():
    """The big-table bench scenario shape (file swap, deep sweep), small."""
    assert_identical(
        workload=_pressure_spec(1 * GIB, 8 * SEC, 4 * SEC),
        config="baseline",
        machine=scaled_instance("i3.metal", dram_scale=1 / 2048),
        seed=5,
        swap="file",
    )
