"""Extension — the packaged modules the system grew upstream.

The paper's Table 1 ends with "we plan to support more actions in the
future"; two of them shipped as self-contained modules.  This benchmark
exercises both on pressure scenarios and verifies their value:

* DAMON_RECLAIM: under memory pressure, monitor-guided proactive
  reclamation beats the baseline LRU's coarse recency — fewer major
  faults on the hot set for the same memory freed;
* DAMON_LRU_SORT: with hot/cold sorting, pressure eviction hits the
  hot set far less than the baseline's scan-bucket-blind choice.
"""

import numpy as np

from repro.analysis.ascii_plot import ascii_table
from repro.modules.lru_sort import LruSortModule, LruSortParams
from repro.modules.reclaim import ReclaimModule, ReclaimParams
from repro.monitor.attrs import MonitorAttrs
from repro.clock import EventQueue
from repro.sim.kernel import SimKernel
from repro.sim.machine import GuestSpec, get_instance
from repro.sim.swap import ZramDevice
from repro.units import MIB, MSEC, SEC

BASE = 0x7F00_0000_0000
DRAM = 128
HOT = 16 * MIB
FOOTPRINT = 160 * MIB  # > DRAM: guaranteed pressure

ATTRS = MonitorAttrs(
    sampling_interval_us=1 * MSEC,
    aggregation_interval_us=20 * MSEC,
    regions_update_interval_us=200 * MSEC,
    min_nr_regions=10,
    max_nr_regions=200,
)


def pressure_run(module_cls, params, *, seed=3, duration_us=12 * SEC):
    """Hot head + cyclically re-touched tail bigger than DRAM; returns
    (major faults on the hot set, total major faults, rss)."""
    guest = GuestSpec(host=get_instance("i3.metal"), vcpus=4, dram_bytes=DRAM * MIB)
    kernel = SimKernel(guest, swap=ZramDevice(256 * MIB), seed=seed)
    kernel.mmap(BASE, FOOTPRINT)
    queue = EventQueue()
    module = None
    if module_cls is not None:
        module = module_cls(kernel, params, ATTRS, seed=seed)
        module.start(queue)
    hot_pages = HOT // 4096
    flat = kernel.space.flat  # one VMA: its pages start at index 0
    hot_faults = {"n": 0}

    def epoch(now):
        kernel.begin_epoch()
        before = int(np.count_nonzero(flat.swapped[:hot_pages]))
        kernel.apply_access(
            BASE, BASE + HOT, now, 100 * MSEC, touches_per_page=2000, stall_weight=0.0
        )
        hot_faults["n"] += before
        # Touch a rotating third of the cold tail each epoch so the
        # footprint keeps exceeding DRAM.
        phase = (now // (100 * MSEC)) % 3
        tail = FOOTPRINT - HOT
        lo = BASE + HOT + phase * tail // 3
        hi = BASE + HOT + (phase + 1) * tail // 3
        kernel.apply_access(lo, hi, now, 100 * MSEC, touches_per_page=20, stall_weight=0.0)
        kernel.end_epoch(now + 100 * MSEC, 70000)

    epoch(0)
    queue.schedule_periodic(100 * MSEC, epoch)
    queue.run_until(duration_us)
    stats = module.stats() if module else {}
    return {
        "hot_faults": hot_faults["n"],
        "major_faults": kernel.metrics.major_faults,
        "rss_mib": kernel.rss_bytes() / MIB,
        "module": stats,
    }


def test_ext_lru_sort_protects_hot_set(benchmark, report):
    results = {}

    def run_all():
        results["baseline"] = pressure_run(None, None)
        results["lru_sort"] = pressure_run(
            LruSortModule, LruSortParams(cold_min_age_us=200 * MSEC)
        )
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    report.add("DAMON_LRU_SORT under memory pressure")
    report.add(f"(hot set {HOT // MIB} MiB; footprint {FOOTPRINT // MIB} MiB "
               f"> DRAM {DRAM} MiB)")
    report.add(
        ascii_table(
            ["setup", "hot-set refaults", "total major faults", "final RSS MiB"],
            [
                (name, r["hot_faults"], r["major_faults"], round(r["rss_mib"], 1))
                for name, r in results.items()
            ],
        )
    )
    report.add("")
    report.add(f"lru_sort stats: {results['lru_sort']['module']}")

    # LRU sorting protects the hot set from the scan-bucket-blind LRU
    # and reduces total fault traffic.
    assert results["lru_sort"]["hot_faults"] < 0.2 * max(1, results["baseline"]["hot_faults"])
    assert results["lru_sort"]["major_faults"] < results["baseline"]["major_faults"]


def burst_run(with_module, *, seed=4):
    """Cold start-up data fills most of DRAM; later a hot allocation
    burst arrives.  Without proactive reclamation the burst stalls on a
    direct-reclaim storm; with DAMON_RECLAIM the cold memory went out
    beforehand."""
    guest = GuestSpec(host=get_instance("i3.metal"), vcpus=4, dram_bytes=DRAM * MIB)
    kernel = SimKernel(guest, swap=ZramDevice(256 * MIB), seed=seed)
    kernel.mmap(BASE, 256 * MIB)
    queue = EventQueue()
    module = None
    if with_module:
        module = ReclaimModule(
            kernel,
            ReclaimParams(
                min_age_us=500 * MSEC, wmarks_high=0.9, wmarks_mid=0.5, wmarks_low=0.02
            ),
            ATTRS,
            seed=seed,
        )
        module.start(queue)

    cold = 100 * MIB
    burst = 60 * MIB

    def epoch(now):
        kernel.begin_epoch()
        if now == 0:
            kernel.apply_access(BASE, BASE + cold, now, 100 * MSEC, stall_weight=0.0)
        if now >= 6 * SEC:
            kernel.apply_access(
                BASE + cold,
                BASE + cold + burst,
                now,
                100 * MSEC,
                touches_per_page=2000,
                stall_weight=0.0,
            )
        kernel.end_epoch(now + 100 * MSEC, 70000)

    epoch(0)
    queue.schedule_periodic(100 * MSEC, epoch)
    queue.run_until(12 * SEC)
    return {
        "direct_reclaim_evictions": kernel.metrics.reclaim_evictions,
        "proactively_reclaimed": module.stats()["reclaimed_bytes"] if module else 0,
        "major_faults": kernel.metrics.major_faults,
    }


def test_ext_reclaim_absorbs_allocation_burst(benchmark, report):
    results = {}

    def run_all():
        results["baseline"] = burst_run(False)
        results["reclaim"] = burst_run(True)
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    report.add("DAMON_RECLAIM before an allocation burst")
    report.add(f"(100 MiB cold start-up data, 60 MiB hot burst at t=6s, "
               f"DRAM {DRAM} MiB)")
    report.add(
        ascii_table(
            ["setup", "direct-reclaim evictions", "proactively reclaimed MiB",
             "major faults"],
            [
                (
                    name,
                    r["direct_reclaim_evictions"],
                    round(r["proactively_reclaimed"] / MIB, 1),
                    r["major_faults"],
                )
                for name, r in results.items()
            ],
        )
    )
    # The module reclaimed the cold memory before the burst, so the
    # burst needed (nearly) no emergency direct reclaim.
    assert results["reclaim"]["proactively_reclaimed"] > 16 * MIB
    assert (
        results["reclaim"]["direct_reclaim_evictions"]
        < 0.5 * max(1, results["baseline"]["direct_reclaim_evictions"])
    )
