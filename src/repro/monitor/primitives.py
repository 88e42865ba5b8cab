"""Monitoring primitives: how access checks reach the target (§3.1).

The monitor's region logic is target-agnostic; what differs between
virtual-address and physical-address monitoring is (a) how the target
ranges are derived and kept up to date, and (b) how a sample address's
accessed bit is checked.  Upstream DAMON ships reference primitives for
both; so do we.  Users can implement their own by subclassing
:class:`MonitoringPrimitive` (the paper names Intel CMT and PML as
candidate hardware back-ends).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..sim.kernel import SimKernel
from ..sim.pagetable import PAGE_SIZE

__all__ = ["MonitoringPrimitive", "VirtualPrimitive", "PhysicalPrimitive"]


class MonitoringPrimitive:
    """Interface between the region logic and a monitoring target."""

    #: Human-readable name used in reports.
    name = "abstract"
    #: Whether regions are frame addresses, so that scheme actions must
    #: take the rmap-resolved physical back-ends.
    phys = False

    def target_ranges(self) -> List[Tuple[int, int]]:
        """Current monitorable address ranges of the target."""
        raise NotImplementedError

    def layout_generation(self) -> int:
        """Opaque counter that changes whenever :meth:`target_ranges`
        would return something new; lets the regions-update tick skip
        re-deriving ranges when nothing changed."""
        raise NotImplementedError

    def access_probabilities(self, addrs: np.ndarray, window_us: float) -> np.ndarray:
        """P(accessed bit set) per sample address over the check window.

        The simulation exposes probabilities rather than raw bits (see
        :mod:`repro.sim.pagetable`); the monitor draws the Bernoulli
        outcome itself, keeping all randomness under its seeded RNG.

        The answer must be a pure function of the target's state and the
        arguments, elementwise in ``addrs``: the monitor asks about the
        addresses of several sampling ticks in one call (nothing runs
        between them), so asking never changes what a later ask returns.
        """
        raise NotImplementedError

    def write_probabilities(self, addrs: np.ndarray, window_us: float) -> np.ndarray:
        """P(dirty bit set) per sample address — the write channel used
        when ``attrs.track_writes`` is on."""
        raise NotImplementedError

    def charge_checks(self, n_checks: int, wakeups: int = 1) -> None:
        """Account monitoring CPU cost for ``wakeups`` sampling wakeups,
        each doing ``n_checks`` access checks."""
        raise NotImplementedError


class VirtualPrimitive(MonitoringPrimitive):
    """Virtual-address-space monitoring: VMAs + PTE accessed bits.

    Target ranges come from the "three regions" heuristic over the
    workload's VMA list (heap | mmap area | stack), refreshed whenever
    the layout generation changes.
    """

    name = "vaddr"

    def __init__(self, kernel: SimKernel):
        self.kernel = kernel

    def target_ranges(self) -> List[Tuple[int, int]]:
        return self.kernel.space.three_regions()

    def layout_generation(self) -> int:
        return self.kernel.space.generation

    def access_probabilities(self, addrs: np.ndarray, window_us: float) -> np.ndarray:
        return self.kernel.access_probabilities(addrs, window_us)

    def write_probabilities(self, addrs: np.ndarray, window_us: float) -> np.ndarray:
        return self.kernel.write_probabilities(addrs, window_us)

    def charge_checks(self, n_checks: int, wakeups: int = 1) -> None:
        self.kernel.charge_monitor_checks(n_checks, wakeups)


class PhysicalPrimitive(MonitoringPrimitive):
    """Physical-address-space monitoring: rmap + PTE accessed bits.

    The target is the guest's whole physical address space; sample
    addresses are frame addresses resolved to mapping page-table entries
    through the reverse map.  Unallocated frames read as never accessed.
    """

    name = "paddr"
    phys = True

    def __init__(self, kernel: SimKernel):
        self.kernel = kernel

    def target_ranges(self) -> List[Tuple[int, int]]:
        return [(0, self.kernel.frames.span_bytes())]

    def layout_generation(self) -> int:
        # Physical memory never changes shape (no hotplug in the guest).
        return 0

    def access_probabilities(self, addrs: np.ndarray, window_us: float) -> np.ndarray:
        frames = np.asarray(addrs, dtype=np.int64) // PAGE_SIZE
        return self.kernel.frame_access_probabilities(frames, window_us)

    def write_probabilities(self, addrs: np.ndarray, window_us: float) -> np.ndarray:
        frames = np.asarray(addrs, dtype=np.int64) // PAGE_SIZE
        return self.kernel.frame_write_probabilities(frames, window_us)

    def charge_checks(self, n_checks: int, wakeups: int = 1) -> None:
        self.kernel.charge_monitor_checks(n_checks, wakeups)
