#!/usr/bin/env python
"""Write-aware reclamation — the paper's future work, in action.

The paper's §1 limitation: "DAOS does not treat memory reads and writes
differently.  This might have important implications for devices in
which the two operations' performance is not symmetric, e.g., NVM."

This example turns on the write channel (`track_writes=True`), builds a
clean-only reclamation scheme (`max_wfreq=0`), and compares it with the
paper's write-blind scheme on an NVM-like swap device where writes cost
4x reads.

Run:  python examples/write_aware_policy.py
"""

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


def run(pattern, attrs, label):
    guest = GuestSpec(host=get_instance("i3.metal"), vcpus=8, dram_bytes=1 * GIB)
    # NVM-like asymmetry: writes 4x more expensive than reads.
    swap = FileSwapDevice(1 * GIB, read_us_per_page=25.0, write_us_per_page=100.0)
    kernel = SimKernel(guest, swap=swap, seed=3)
    kernel.mmap(BASE, 224 * MIB)
    queue = EventQueue()
    monitor = DataAccessMonitor(VirtualPrimitive(kernel), attrs, seed=3)
    engine = SchemesEngine(kernel, [Scheme(pattern=pattern, action=Action.PAGEOUT)])
    monitor.attach_engine(engine)
    monitor.start(queue)

    def epoch(now):
        kernel.begin_epoch()
        if now % (2 * SEC) == 0:
            # 96 MiB scanned read-only every 2 s...
            kernel.apply_access(BASE, BASE + 96 * MIB, now, 100 * MSEC, stall_weight=0.0)
            # ...and 96 MiB rewritten every 2 s (buffers, counters).
            kernel.apply_access(
                BASE + 96 * MIB, BASE + 192 * MIB, now, 100 * MSEC,
                write_fraction=1.0, stall_weight=0.0,
            )
        kernel.apply_access(
            BASE + 192 * MIB, BASE + 224 * MIB, now, 100 * MSEC,
            touches_per_page=2000, write_fraction=0.3, stall_weight=0.0,
        )
        kernel.end_epoch(now + 100 * MSEC, 70000)

    epoch(0)
    queue.schedule_periodic(100 * MSEC, epoch)
    queue.run_until(20 * SEC)
    print(
        f"{label:12s} reclaimed {kernel.metrics.pages_swapped_out * 4096 / MIB:7.0f} MiB, "
        f"writeback {kernel.metrics.pages_written_back * 4096 / MIB:7.0f} MiB "
        f"({kernel.metrics.runtime.swapout_us / 1000:6.0f} ms of device writes)"
    )


def main() -> None:
    print("reclaiming 1s-idle memory on an NVM-like device "
          "(writes cost 4x reads):\n")
    # The paper's write-blind scheme: reclaim anything idle for 1 s.
    run(
        AccessPattern(max_freq=0.0, min_age_us=1 * SEC),
        MonitorAttrs(),
        "write-blind",
    )
    # The future-work version: only reclaim memory that is not being
    # rewritten (its dirty bits stay clear).
    run(
        AccessPattern(max_freq=0.0, max_wfreq=0.0, min_age_us=1 * SEC),
        MonitorAttrs(track_writes=True),
        "clean-only",
    )
    print(
        "\nthe clean-only scheme skips the rewritten region entirely: less\n"
        "memory freed, but zero writeback churn on the write-asymmetric device"
    )


if __name__ == "__main__":
    main()
