"""Ablation — adaptive regions adjustment vs a static grid (§2.2/§3.1).

Space-based sampling with a *static* grid "can result in poor monitoring
accuracy if the access pattern is dynamic or skewed"; the adaptive
split/merge mechanism is DAOS's fix.  This ablation monitors a skewed
pattern (a small hot spot inside a large cold mapping) with (a) the
adaptive monitor and (b) a static-grid monitor using the same region
budget, and compares hot-set estimation error against ground truth.
"""

import numpy as np

from repro.analysis.ascii_plot import ascii_table
from repro.monitor.attrs import MonitorAttrs
from repro.monitor.core import DataAccessMonitor
from repro.monitor.primitives import VirtualPrimitive
from repro.clock import EventQueue
from repro.sim.kernel import SimKernel
from repro.sim.machine import GuestSpec, get_instance
from repro.sim.swap import ZramDevice
from repro.units import GIB, MIB, MSEC, SEC

BASE = 0x7F00_0000_0000
FOOTPRINT = 512 * MIB
#: The hot set: 3 MiB starting mid-bucket, so a static 8 MiB grid can
#: neither align to it nor resolve frequency inside a bucket.
HOT_OFFSET = 6 * MIB
HOT = 3 * MIB
DURATION = 20 * SEC
#: Both monitors get the same region budget (static spends it all as a
#: uniform grid; adaptive keeps the same number as its maximum).
REGION_BUDGET = 64


class StaticGridMonitor(DataAccessMonitor):
    """Same sampling, no adaptive adjustment: the §2.2 'space-based
    sampling' strawman with a fixed uniform grid."""

    def aggregate_tick(self, now: int) -> None:
        self.regions.nr_accesses[:] = self._acc
        for raw in self.raw_callbacks:
            raw(self, now)
        self.regions.reset_counters()
        self._reset_sampling_state()
        self.total_aggregations += 1


def run_with(monitor_cls, seed=5):
    guest = GuestSpec(host=get_instance("i3.metal"), vcpus=8, dram_bytes=2 * GIB)
    kernel = SimKernel(guest, swap=ZramDevice(256 * MIB), seed=seed)
    kernel.mmap(BASE, FOOTPRINT)
    queue = EventQueue()
    attrs = MonitorAttrs(min_nr_regions=10, max_nr_regions=REGION_BUDGET)
    if monitor_cls is StaticGridMonitor:
        # A static grid spends the whole budget up front, evenly.
        attrs = MonitorAttrs(
            min_nr_regions=REGION_BUDGET, max_nr_regions=REGION_BUDGET
        )
    monitor = monitor_cls(VirtualPrimitive(kernel), attrs, seed=seed)
    errors = []

    def measure(mon, now):
        ra = mon.regions
        hot = ra.nr_accesses >= 0.5 * mon.attrs.max_nr_accesses
        est = int((ra.end - ra.start)[hot].sum())
        errors.append(abs(est - HOT) / HOT)

    monitor.register_raw_callback(measure)
    monitor.start(queue)

    def epoch(now):
        kernel.begin_epoch()
        kernel.apply_access(
            BASE + HOT_OFFSET,
            BASE + HOT_OFFSET + HOT,
            now,
            100 * MSEC,
            touches_per_page=2000,
            stall_weight=0.0,
        )
        kernel.end_epoch(now + 100 * MSEC, 70000)

    epoch(0)
    queue.schedule_periodic(100 * MSEC, epoch)
    queue.run_until(DURATION)
    # Skip the first quarter (convergence) when scoring.
    tail = errors[len(errors) // 4 :]
    return float(np.mean(tail)), monitor.total_checks


def test_ablation_adaptive_vs_static(benchmark, report):
    results = {}

    def run_both():
        results["adaptive"] = run_with(DataAccessMonitor)
        results["static"] = run_with(StaticGridMonitor)
        return results

    benchmark.pedantic(run_both, rounds=1, iterations=1)

    report.add("Ablation: adaptive regions vs static grid on a skewed pattern")
    report.add(
        f"(hot set: {HOT // MIB} MiB of {FOOTPRINT // MIB} MiB, mid-bucket; "
        f"both monitors budgeted {REGION_BUDGET} regions)"
    )
    report.add(
        ascii_table(
            ["monitor", "mean |error| (rel.)", "total checks"],
            [
                ("adaptive", round(results["adaptive"][0], 3), results["adaptive"][1]),
                ("static grid", round(results["static"][0], 3), results["static"][1]),
            ],
        )
    )
    adaptive_err, adaptive_checks = results["adaptive"]
    static_err, static_checks = results["static"]
    report.add("")
    ratio = static_err / adaptive_err if adaptive_err > 1e-6 else float("inf")
    report.add(
        f"adaptive is {ratio:.1f}x more accurate "
        f"using {adaptive_checks / static_checks:.2f}x the checks"
    )
    # The static grid's 2 MiB buckets cannot resolve frequency within a
    # bucket; adaptive splitting must do clearly better.
    assert adaptive_err < static_err
    assert adaptive_err < 0.5
