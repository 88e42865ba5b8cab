"""Extension — write-aware reclamation (the paper's stated future work).

"At the moment, DAOS does not treat memory reads and writes differently.
This might have important implications for devices in which the two
operations' performance is not symmetric, e.g., NVM." (§1.)

This benchmark implements that future version and quantifies the gap on
a write-asymmetric swap device: a reclamation scheme restricted to
*clean* cold memory (``max_wfreq = 0`` with dirty-bit tracking) frees
almost the same memory as the write-blind scheme while avoiding nearly
all writeback traffic.
"""

from repro.analysis.ascii_plot import ascii_table
from repro.monitor.attrs import MonitorAttrs
from repro.monitor.core import DataAccessMonitor
from repro.monitor.primitives import VirtualPrimitive
from repro.schemes.actions import Action
from repro.schemes.engine import SchemesEngine
from repro.schemes.scheme import AccessPattern, Scheme
from repro.clock import EventQueue
from repro.sim.kernel import SimKernel
from repro.sim.machine import GuestSpec, get_instance
from repro.sim.swap import FileSwapDevice
from repro.units import GIB, MIB, MSEC, SEC

BASE = 0x7F00_0000_0000

WATTRS = MonitorAttrs(track_writes=True)
ATTRS = MonitorAttrs()


#: The two warm regions are touched once every REVISIT period and sit
#: idle in between — exactly the window a min_age=1s reclaimer fires in.
REVISIT_US = 2 * SEC


def run_scheme(pattern, attrs, *, seed=3, duration_us=30 * SEC):
    """96 MiB read-warm + 96 MiB write-warm (rewritten every revisit) +
    32 MiB hot, on an NVM-like swap where writes cost 4x reads.

    A write-blind reclaimer cycles *both* warm regions through swap and
    pays a full writeback of the rewritten region every cycle; the
    write-aware one leaves the write-warm region alone."""
    guest = GuestSpec(host=get_instance("i3.metal"), vcpus=8, dram_bytes=1 * GIB)
    swap = FileSwapDevice(1 * GIB, read_us_per_page=25.0, write_us_per_page=100.0)
    kernel = SimKernel(guest, swap=swap, seed=seed)
    kernel.mmap(BASE, 224 * MIB)
    queue = EventQueue()
    monitor = DataAccessMonitor(VirtualPrimitive(kernel), attrs, seed=seed)
    engine = SchemesEngine(
        kernel, [Scheme(pattern=pattern, action=Action.PAGEOUT)]
    )
    monitor.attach_engine(engine)
    monitor.start(queue)

    def epoch(now):
        kernel.begin_epoch()
        if now % REVISIT_US == 0:
            # Read-warm: scanned, never written.
            kernel.apply_access(BASE, BASE + 96 * MIB, now, 100 * MSEC, stall_weight=0.0)
            # Write-warm: rewritten each revisit (buffers, counters).
            kernel.apply_access(
                BASE + 96 * MIB,
                BASE + 192 * MIB,
                now,
                100 * MSEC,
                write_fraction=1.0,
                stall_weight=0.0,
            )
        kernel.apply_access(
            BASE + 192 * MIB,
            BASE + 224 * MIB,
            now,
            100 * MSEC,
            touches_per_page=2000,
            write_fraction=0.3,
            stall_weight=0.0,
        )
        kernel.end_epoch(now + 100 * MSEC, 70000)

    epoch(0)
    queue.schedule_periodic(100 * MSEC, epoch)
    queue.run_until(duration_us)
    return {
        "reclaimed_mib": kernel.metrics.pages_swapped_out * 4096 / MIB,
        "writeback_mib": kernel.metrics.pages_written_back * 4096 / MIB,
        "writeback_us": kernel.metrics.runtime.swapout_us,
        "major_fault_us": kernel.metrics.runtime.major_fault_us,
        "rss_mib": kernel.rss_bytes() / MIB,
    }


def test_ext_write_aware_reclamation(benchmark, report):
    results = {}

    def run_all():
        # Write-blind (the paper's system): reclaim all idle memory.
        results["write-blind"] = run_scheme(
            AccessPattern(max_freq=0.0, min_age_us=1 * SEC), ATTRS
        )
        # Write-aware: leave write-warm memory alone.
        results["clean-only"] = run_scheme(
            AccessPattern(max_freq=0.0, max_wfreq=0.0, min_age_us=1 * SEC), WATTRS
        )
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    report.add("Extension: write-aware reclamation on an NVM-like device")
    report.add("(96 MiB read-warm + 96 MiB rewritten-every-2s + 32 MiB hot; "
               "swap writes cost 4x reads; min_age 1s)")
    report.add(
        ascii_table(
            ["scheme", "reclaimed MiB", "writeback MiB", "writeback time ms",
             "final RSS MiB"],
            [
                (
                    name,
                    round(r["reclaimed_mib"], 1),
                    round(r["writeback_mib"], 1),
                    round(r["writeback_us"] / 1000, 1),
                    round(r["rss_mib"], 1),
                )
                for name, r in results.items()
            ],
        )
    )
    blind = results["write-blind"]
    clean = results["clean-only"]
    report.add("")
    report.add(
        f"clean-only frees {clean['reclaimed_mib'] / blind['reclaimed_mib']:.0%} "
        f"of the write-blind scheme's memory at "
        f"{clean['writeback_mib'] / max(1e-9, blind['writeback_mib']):.0%} "
        f"of its writeback volume"
    )
    # Write-aware keeps a solid share of the reclaim volume (the
    # read-warm half cycles through swap cheaply)...
    assert clean["reclaimed_mib"] > 0.35 * blind["reclaimed_mib"]
    # ...while avoiding nearly all writeback to the asymmetric device.
    assert clean["writeback_mib"] < 0.25 * blind["writeback_mib"]
    assert clean["writeback_us"] < 0.35 * blind["writeback_us"]