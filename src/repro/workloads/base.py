"""Workload model: specs, components and the epoch driver.

A workload is a set of *pattern components* laid out in one main data
VMA (plus a small heap and stack, so the virtual primitive's
three-regions heuristic has realistic gaps to find).  Every epoch, each
component emits :class:`Burst` records — "touch this sub-range at this
density and rate" — which the driver feeds to the simulated kernel.

Two spec-level knobs set the performance model's proportions:

* ``compute_share`` — fraction of an unstalled epoch spent executing
  instructions (scaled by the machine's clock);
* ``mem_share`` — target fraction of baseline runtime spent stalled on
  memory.  The driver solves for the stall weight that realises it given
  the components' expected touched pages per epoch, so "memory-bound"
  calibration survives any change to the pattern components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..sim.kernel import SimKernel
from ..sim.pagetable import PAGE_SIZE
from ..units import KIB, MIB, MSEC

__all__ = ["Burst", "PatternComponent", "WorkloadSpec", "Workload"]

#: Base address of the main data mapping (2 MiB aligned, mmap-area-like).
DATA_BASE = 0x7F00_0000_0000
#: Heap sits far below, stack far above — the two big gaps the
#: three-regions heuristic keys on.
HEAP_BASE = 0x5600_0000_0000
STACK_TOP = 0x7FFF_FFFF_E000


@dataclass(frozen=True)
class Burst:
    """One access burst, relative to the owning component's offset."""

    start: int
    end: int
    fraction: float = 1.0
    stride: int = 1
    touches_per_page: float = 1.0
    #: Relative memory-stall weight of this burst's page touches (a
    #: sweeping numeric kernel does many DRAM accesses per page per
    #: pass; a single pointer dereference does one).
    weight: float = 1.0
    #: Fraction of touched pages that are written (dirtied).
    write_fraction: float = 0.0

    def __post_init__(self):
        if self.end <= self.start:
            raise ConfigError(f"empty burst [{self.start}, {self.end})")
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigError(f"burst fraction must be in (0, 1]: {self.fraction}")
        if self.weight < 0:
            raise ConfigError(f"burst weight cannot be negative: {self.weight}")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigError(
                f"write_fraction must be in [0, 1]: {self.write_fraction}"
            )


class PatternComponent:
    """One structural element of a workload's access pattern."""

    #: Byte offset of the component within the main data VMA.
    offset: int = 0
    #: Byte size of the component's range.
    size: int = 0

    def bursts(self, t_us: int, epoch_us: int, rng: np.random.Generator) -> List[Burst]:
        """Bursts to apply for the epoch starting at ``t_us``."""
        raise NotImplementedError

    def pages_per_epoch(self, epoch_us: int) -> float:
        """Expected touched pages per epoch (for stall-weight calibration)."""
        raise NotImplementedError

    def _check(self):
        if self.size <= 0:
            raise ConfigError(f"{type(self).__name__} needs a positive size")
        if self.offset < 0:
            raise ConfigError(f"{type(self).__name__} offset cannot be negative")


@dataclass(frozen=True)
class WorkloadSpec:
    """Static description of one workload."""

    name: str
    suite: str
    #: Size of the main data mapping in bytes.
    footprint: int
    #: Nominal run duration (virtual time).
    duration_us: int
    components: Tuple[PatternComponent, ...]
    #: Fraction of an unstalled epoch spent computing (vs idle/IO).
    compute_share: float = 0.7
    #: Target memory-stall share of baseline runtime (drives stall weight).
    mem_share: float = 0.2
    #: TLB sensitivity: scales the huge-page stall discount.  Patterns
    #: with poor TLB locality (strided grids, pointer chasing over big
    #: ranges) sit above 1; cache-friendly streaming below.
    tlb_benefit: float = 0.5
    epoch_us: int = 100 * MSEC
    heap_bytes: int = 8 * MIB
    stack_bytes: int = 256 * KIB

    def __post_init__(self):
        if self.footprint < PAGE_SIZE:
            raise ConfigError(f"{self.name}: footprint below one page")
        if self.duration_us < self.epoch_us:
            raise ConfigError(f"{self.name}: duration shorter than one epoch")
        if not 0.0 < self.compute_share <= 1.0:
            raise ConfigError(f"{self.name}: compute_share must be in (0, 1]")
        if not 0.0 <= self.mem_share < 0.95:
            raise ConfigError(f"{self.name}: mem_share must be in [0, 0.95)")
        if self.tlb_benefit < 0:
            raise ConfigError(f"{self.name}: tlb_benefit cannot be negative")
        for comp in self.components:
            if comp.offset + comp.size > self.footprint:
                raise ConfigError(
                    f"{self.name}: component {type(comp).__name__} at "
                    f"{comp.offset:#x}+{comp.size:#x} exceeds the footprint"
                )

    @property
    def full_name(self) -> str:
        return f"{self.suite}/{self.name}"

    def scaled(self, time_scale: float = 1.0) -> "WorkloadSpec":
        """A copy with the run duration scaled (for fast CI benches)."""
        if not 0 < time_scale < math.inf:
            raise ConfigError(f"time_scale must be finite and positive: {time_scale}")
        duration = max(self.epoch_us, int(self.duration_us * time_scale))
        return replace(self, duration_us=duration)


class Workload:
    """Runtime instance of a spec bound to one kernel."""

    def __init__(self, spec: WorkloadSpec, kernel: SimKernel, *, seed: int = 0):
        self.spec = spec
        self.kernel = kernel
        self.rng = np.random.default_rng(seed)
        self.data_vma = None
        self.heap_vma = None
        self.stack_vma = None
        self._stall_weight: Optional[float] = None
        self.epochs_run = 0

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Create the address-space layout (heap | data | stack)."""
        spec = self.spec
        self.heap_vma = self.kernel.mmap(HEAP_BASE, spec.heap_bytes, "heap")
        self.data_vma = self.kernel.mmap(DATA_BASE, spec.footprint, "data")
        stack_base = STACK_TOP - spec.stack_bytes
        self.stack_vma = self.kernel.mmap(stack_base, spec.stack_bytes, "stack")
        self._stall_weight = self._calibrate_stall_weight()

    def _calibrate_stall_weight(self) -> float:
        """Solve for the stall weight that makes memory stalls the spec's
        ``mem_share`` of baseline epoch time on a 3 GHz reference core."""
        spec = self.spec
        expected_pages = sum(c.pages_per_epoch(spec.epoch_us) for c in spec.components)
        # Heap and stack contribute a trickle of touches; negligible cost.
        if expected_pages <= 0 or spec.mem_share == 0:
            return 0.0
        compute_us = spec.epoch_us * spec.compute_share
        target_stall_us = compute_us * spec.mem_share / (1.0 - spec.mem_share)
        raw_cost = expected_pages * self.kernel.costs.dram_cost_us
        return target_stall_us / raw_cost

    # ------------------------------------------------------------------
    def compute_us_per_epoch(self, cpu_scale: float) -> float:
        """Nominal compute time per epoch on a machine of ``cpu_scale``."""
        return self.spec.epoch_us * self.spec.compute_share / cpu_scale

    def run_epoch(self, now: int) -> None:
        """Emit and apply all bursts for the epoch starting at ``now``."""
        if self.data_vma is None:
            raise ConfigError("setup() must be called before run_epoch()")
        spec = self.spec
        kernel = self.kernel
        kernel.begin_epoch()
        base = self.data_vma.start
        for comp in spec.components:
            for burst in comp.bursts(now, spec.epoch_us, self.rng):
                start = base + comp.offset + burst.start
                end = base + comp.offset + burst.end
                kernel.apply_access(
                    start,
                    end,
                    now,
                    spec.epoch_us,
                    fraction=burst.fraction,
                    touches_per_page=burst.touches_per_page,
                    stride=burst.stride,
                    stall_weight=self._stall_weight * burst.weight,
                    tlb_scale=spec.tlb_benefit,
                    write_fraction=burst.write_fraction,
                )
        # Heap and stack stay warm: a small constant touch keeps the
        # monitor's picture realistic (they appear as small hot spans).
        kernel.apply_access(
            self.heap_vma.start,
            self.heap_vma.start + min(self.heap_vma.size, 1 * MIB),
            now,
            spec.epoch_us,
            touches_per_page=50.0,
            stall_weight=0.0,
        )
        kernel.apply_access(
            self.stack_vma.start,
            self.stack_vma.end,
            now,
            spec.epoch_us,
            touches_per_page=200.0,
            stall_weight=0.0,
        )
        self.epochs_run += 1
