"""The golden matrix's reclaim cases, defined once.

Each case is a run whose result depends on how LRU reclaim picks its
victims.  ``tests/test_goldens.py`` pins every case at its golden seed,
and ``benchmarks/check_distribution.py`` runs the same shapes at seeds
0-9 on two source trees, so a shape changed here changes both.
"""

from __future__ import annotations

from repro.runner.configs import ExperimentConfig
from repro.sim.machine import scaled_instance
from repro.units import GIB, MIB, SEC
from repro.workloads.base import WorkloadSpec
from repro.workloads.patterns import CyclicSweep, Hotspot

__all__ = ["RECLAIM_CASES", "TIERED", "TIERING", "pressure_spec"]


def pressure_spec(
    footprint: int, period_us: int, duration_us: int, name: str = "pressure"
) -> WorkloadSpec:
    """A sweep that outgrows the guest's DRAM: sustained reclaim, every
    epoch, for the whole run."""
    return WorkloadSpec(
        name=name,
        suite="diff",
        footprint=footprint,
        duration_us=duration_us,
        components=(
            CyclicSweep(0, footprint - 16 * MIB, period_us=period_us, touches_per_sec=400),
            Hotspot(footprint - 4 * MIB, 4 * MIB),
        ),
    )


def _dram(scale: float):
    return scaled_instance("i3.metal", dram_scale=scale)


#: A small flat DRAM over a cxl-dram slow tier, at a fiftieth of the time.
TIERED = dict(machine=_dram(1 / 256), tier="cxl-dram", time_scale=0.02)
#: Promote what is hot, demote what idles for half a second.
TIERING = ExperimentConfig(
    name="tiering",
    monitor="vaddr",
    schemes_text="4K max 1 max min max migrate_hot\n4K max min min 500ms max migrate_cold\n",
)
#: Page out what idles for a second, prefetch it back when it heats
#: up again, deactivate what cools: the sweep revisits every band, and
#: DRAM is small enough that prefetches trigger reclaim.
WILLNEED_COLD = ExperimentConfig(
    name="willneed-cold",
    monitor="vaddr",
    schemes_text=(
        "4K max min min 1s max pageout\n"
        "4K max 10% max min max willneed\n"
        "4K max min 5% 300ms max cold\n"
    ),
)

_SPARSE = dict(workload=pressure_spec(512 * MIB, 2 * SEC, 6 * SEC), machine=_dram(1 / 1024))

#: case name -> ``run_experiment`` keyword arguments, golden seed included.
RECLAIM_CASES = {
    # Table ≫ DRAM: the reclaimer's frame-table candidate route.
    "sparse-pressure": dict(_SPARSE, config="baseline", seed=11),
    # The same pressure under DAMON_RECLAIM: scheme pageouts interleave
    # with watermark reclaim.
    "sparse-pressure-rec": dict(_SPARSE, config="rec", seed=11),
    # Table ≈ DRAM: residency too dense for the frame route, so the
    # whole-table mask route selects victims.
    "dense-pressure": dict(
        workload=pressure_spec(48 * MIB, 2 * SEC, 6 * SEC),
        config="baseline",
        machine=_dram(1 / 8192),
        seed=11,
    ),
    # khugepaged bloat pushing against small DRAM: promotions, huge
    # skips in reclaim, and shed-mode OOM handling.
    "thp-pressure": dict(
        workload=pressure_spec(192 * MIB, 4 * SEC, 6 * SEC, name="thp-pressure"),
        config="thp",
        machine=_dram(1 / 2048),
        seed=7,
        oom_policy="shed",
    ),
    # The big-table bench scenario shape (file swap, deep sweep), small.
    "file-swap": dict(
        workload=pressure_spec(1 * GIB, 8 * SEC, 4 * SEC),
        config="baseline",
        machine=_dram(1 / 2048),
        seed=5,
        swap="file",
    ),
    # Migrations both ways; the slow tier never fills.
    "tiered-managed": dict(
        TIERED,
        workload="parsec3/blackscholes",
        config=TIERING,
        tier_scale=0.01,
        tier_policy="managed",
        seed=5,
    ),
    # A 16 MiB slow tier under the pressure sweep: promotions reopen
    # demote room, and reclaim passes that outgrow it demote part of
    # their victims and swap the rest.
    "tiered-overflow": dict(
        workload=pressure_spec(96 * MIB, 3 * SEC, 6 * SEC),
        config=TIERING,
        machine=_dram(1 / 4096),
        tier="cxl-dram",
        tier_scale=1 / 16384,
        tier_policy="managed",
        seed=5,
    ),
    "schemes-willneed-cold": dict(
        workload=pressure_spec(160 * MIB, 3 * SEC, 8 * SEC),
        config=WILLNEED_COLD,
        machine=_dram(1 / 4096),
        seed=9,
        oom_policy="shed",
    ),
}
