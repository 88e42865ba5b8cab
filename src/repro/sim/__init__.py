"""Simulated machine substrate.

The paper's artifact is a Linux-kernel patch set: the monitor reads and
clears page-table accessed bits, the schemes engine calls into the mm
subsystem (reclaim, THP promotion/demotion, madvise hints), and the
evaluation runs on AWS EC2 bare-metal hosts with QEMU/KVM guests.  This
package provides the synthetic equivalent of that whole substrate:

* :mod:`repro.clock` — discrete-event virtual time (a base module the
  trace bus needs too; re-exported here),
* :mod:`repro.sim.machine` — the Table 2 instance catalog and guest VMs,
* :mod:`repro.sim.vma` — VMAs and address spaces,
* :mod:`repro.sim.pagetable` — the one page table per address space:
  page-granular state with accessed-bit semantics, one flat index, one
  segment per VMA,
* :mod:`repro.sim.physmem` — frame allocation and the reverse map
  (frame → flat page index),
* :mod:`repro.sim.swap` — ZRAM and file-backed swap devices,
* :mod:`repro.sim.thp` — the transparent-huge-page policy knob,
* :mod:`repro.sim.lru` — the two-list LRU reclaim baseline,
* :mod:`repro.sim.costs` — the latency/cost model,
* :mod:`repro.sim.kernel` — the façade tying the above together.
"""

from ..clock import EventQueue, PeriodicEvent, VirtualClock
from .costs import CostModel
from .kernel import SimKernel
from .lru import LruReclaimer
from .machine import (
    GuestSpec,
    MachineSpec,
    get_instance,
    guest_of,
    instance_catalog,
    scaled_instance,
)
from .metrics import KernelMetrics, MemoryTimeline, RuntimeBreakdown
from .pagetable import HUGE_PAGE_SIZE, PAGE_SIZE, PAGES_PER_HUGE, FlatPageTable
from .physmem import FrameTable
from .swap import FileSwapDevice, NoSwapDevice, SwapDevice, ZramDevice
from .thp import ThpPolicy
from .vma import VMA, AddressSpace

__all__ = [
    "AddressSpace",
    "CostModel",
    "EventQueue",
    "FileSwapDevice",
    "FlatPageTable",
    "FrameTable",
    "GuestSpec",
    "HUGE_PAGE_SIZE",
    "KernelMetrics",
    "LruReclaimer",
    "MachineSpec",
    "MemoryTimeline",
    "NoSwapDevice",
    "PAGES_PER_HUGE",
    "PAGE_SIZE",
    "PeriodicEvent",
    "RuntimeBreakdown",
    "SimKernel",
    "SwapDevice",
    "ThpPolicy",
    "VMA",
    "VirtualClock",
    "ZramDevice",
    "get_instance",
    "guest_of",
    "instance_catalog",
    "scaled_instance",
]
