"""Ablation — the monitoring-overhead upper bound (§3.1, Downside-2).

The design's central claim: overhead is bounded by ``max_nr_regions``
checks per sampling interval *regardless of the monitored memory size*.
This ablation (a) sweeps the footprint at fixed attrs and shows the
check rate stays flat, unlike a page-granular scanner whose cost grows
linearly; and (b) sweeps ``max_nr_regions`` to show the knob actually
prices accuracy against overhead.
"""

from repro.analysis.ascii_plot import ascii_table
from repro.monitor.attrs import MonitorAttrs
from repro.monitor.core import DataAccessMonitor
from repro.monitor.overhead import theoretical_bound_cpu_share
from repro.monitor.primitives import VirtualPrimitive
from repro.clock import EventQueue
from repro.sim.kernel import SimKernel
from repro.sim.machine import GuestSpec, get_instance
from repro.sim.pagetable import PAGE_SIZE
from repro.sim.swap import ZramDevice
from repro.units import GIB, MIB, MSEC, SEC

BASE = 0x7F00_0000_0000
DURATION = 20 * SEC


def run_monitored(footprint_mib, attrs, seed=3):
    guest = GuestSpec(host=get_instance("i3.metal"), vcpus=8, dram_bytes=8 * GIB)
    kernel = SimKernel(guest, swap=ZramDevice(256 * MIB), seed=seed)
    kernel.mmap(BASE, footprint_mib * MIB)
    queue = EventQueue()
    monitor = DataAccessMonitor(VirtualPrimitive(kernel), attrs, seed=seed)
    monitor.start(queue)
    hot = footprint_mib * MIB // 8

    def epoch(now):
        kernel.begin_epoch()
        kernel.apply_access(
            BASE, BASE + hot, now, 100 * MSEC, touches_per_page=1500, stall_weight=0.0
        )
        kernel.end_epoch(now + 100 * MSEC, 70000)

    epoch(0)
    queue.schedule_periodic(100 * MSEC, epoch)
    queue.run_until(DURATION)
    return kernel, monitor


def test_ablation_overhead_bound(benchmark, report):
    attrs = MonitorAttrs()
    footprints = [128, 512, 2048]
    rows = []

    def sweep():
        rows.clear()
        for footprint in footprints:
            kernel, monitor = run_monitored(footprint, attrs)
            checks_per_sec = monitor.total_checks / (DURATION / 1e6)
            cpu_share = kernel.metrics.monitor_cpu_us / DURATION
            # What a page-granular scanner would pay at the same rate.
            page_scanner_checks = (footprint * MIB / PAGE_SIZE) / (
                attrs.sampling_interval_us / 1e6
            )
            rows.append((footprint, checks_per_sec, cpu_share, page_scanner_checks))
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    report.add("Ablation: monitoring overhead vs monitored-memory size")
    report.add(
        ascii_table(
            ["footprint MiB", "checks/s (DAOS)", "CPU share", "checks/s (page scanner)"],
            [
                (f, round(c, 0), round(share, 5), round(p, 0))
                for f, c, share, p in rows
            ],
        )
    )
    checks = [c for _, c, _, _ in rows]
    shares = [s for _, _, s, _ in rows]
    scanner = [p for _, _, _, p in rows]
    report.add("")
    report.add(
        f"DAOS check rate grows {checks[-1] / checks[0]:.2f}x over a "
        f"{footprints[-1] // footprints[0]}x footprint; a page scanner's grows "
        f"{scanner[-1] / scanner[0]:.0f}x"
    )
    # Flat (bounded) vs linear: 16x footprint, at most ~2x checks.
    assert checks[-1] < 2.5 * checks[0]
    assert scanner[-1] == scanner[0] * (footprints[-1] / footprints[0])
    # The a-priori bound holds everywhere.
    from repro.sim.costs import CostModel as _CM

    bound_share = theoretical_bound_cpu_share(attrs, _CM())
    assert all(share <= bound_share for share in shares)


def run_striped(attrs, seed=3, n_stripes=256):
    """A pattern with many alternating hot/cold stripes: resolving it
    takes ~2x n_stripes regions, so the cap binds."""
    guest = GuestSpec(host=get_instance("i3.metal"), vcpus=8, dram_bytes=8 * GIB)
    kernel = SimKernel(guest, swap=ZramDevice(256 * MIB), seed=seed)
    footprint = 1024 * MIB
    kernel.mmap(BASE, footprint)
    queue = EventQueue()
    monitor = DataAccessMonitor(VirtualPrimitive(kernel), attrs, seed=seed)
    monitor.start(queue)
    stripe = footprint // n_stripes

    def epoch(now):
        kernel.begin_epoch()
        for i in range(0, n_stripes, 2):
            kernel.apply_access(
                BASE + i * stripe,
                BASE + i * stripe + stripe,
                now,
                100 * MSEC,
                touches_per_page=1500,
                stall_weight=0.0,
            )
        kernel.end_epoch(now + 100 * MSEC, 70000)

    epoch(0)
    queue.schedule_periodic(100 * MSEC, epoch)
    queue.run_until(DURATION)
    return kernel, monitor


def test_ablation_region_cap_prices_overhead(benchmark, report):
    caps = [100, 400, 1000]
    rows = []

    def sweep():
        rows.clear()
        for cap in caps:
            attrs = MonitorAttrs(max_nr_regions=cap)
            kernel, monitor = run_striped(attrs)
            rows.append(
                (
                    cap,
                    monitor.total_checks / (DURATION / 1e6),
                    kernel.metrics.monitor_cpu_us / DURATION,
                    monitor.nr_regions(),
                )
            )
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    report.add("Ablation: max_nr_regions prices overhead")
    report.add(
        ascii_table(
            ["max_nr_regions", "checks/s", "CPU share", "final regions"],
            [(c, round(r, 0), round(s, 5), n) for c, r, s, n in rows],
        )
    )
    # More allowed regions -> more checks (monotone, within noise).
    assert rows[0][1] < rows[-1][1]
