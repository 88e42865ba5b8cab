"""Machine models: the Table 2 EC2 instance catalog and guest VMs.

The paper evaluates on three AWS EC2 bare-metal instance types and runs
each experiment inside a QEMU/KVM guest that "utilizes half the CPUs and
a quarter of the memory" (§4).  The auto-tuner's machine sensitivity in
Figure 4 — the same workload shows different score patterns on different
instances — stems from the ratio between CPU speed and memory capacity /
storage latency, which these specs capture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from ..errors import ConfigError
from ..units import GIB
from .pagetable import PAGE_SIZE

__all__ = [
    "MachineSpec",
    "GuestSpec",
    "TierSpec",
    "instance_catalog",
    "get_instance",
    "guest_of",
    "scaled_instance",
    "tier_catalog",
    "get_tier",
    "scaled_tier",
]


def _page_floor(n_bytes: int) -> int:
    """Round ``n_bytes`` down to a whole number of 4 KiB pages (at least one).

    Every downstream consumer — :class:`~repro.sim.physmem.FrameTable`,
    watermark math, the sweep's footprint arithmetic — divides by
    ``PAGE_SIZE`` and silently drops the remainder; flooring here keeps a
    spec's ``dram_bytes`` equal to what the machine can actually back.
    """
    return max(PAGE_SIZE, (int(n_bytes) // PAGE_SIZE) * PAGE_SIZE)


@dataclass(frozen=True)
class MachineSpec:
    """A bare-metal host, paper Table 2 plus the cost-model inputs.

    The paper's table lists CPU clock, vCPU count and DRAM size.  The
    remaining fields parameterise the latency model: they are not in the
    table but follow the instance families' public characteristics
    (i3 = NVMe storage-optimised, m5d = balanced, z1d = high-frequency
    compute) and published device latencies [Izraelevitz et al. '19,
    Paik '17].
    """

    name: str
    cpu_ghz: float
    vcpus: int
    dram_bytes: int
    #: DRAM load-to-use latency in nanoseconds.
    dram_latency_ns: float = 90.0
    #: Latency of a 4 KiB read from local NVMe (file swap backend), usec.
    nvme_read_us: float = 90.0
    #: Latency of a 4 KiB write to local NVMe, usec.
    nvme_write_us: float = 25.0

    def __post_init__(self):
        if self.cpu_ghz <= 0:
            raise ConfigError(f"cpu_ghz must be positive: {self.cpu_ghz}")
        if self.vcpus <= 0:
            raise ConfigError(f"vcpus must be positive: {self.vcpus}")
        if self.dram_bytes <= 0:
            raise ConfigError(f"dram_bytes must be positive: {self.dram_bytes}")

    @property
    def cpu_scale(self) -> float:
        """Relative single-thread speed (1.0 == a 3.0 GHz core)."""
        return self.cpu_ghz / 3.0


@dataclass(frozen=True)
class TierSpec:
    """A slow memory tier behind the guest's DRAM (NVM or CXL-attached).

    Capacity plus the two latency views the simulator needs: load-to-use
    latency for in-place access from the slow tier, and per-4 KiB-page
    read/write latencies for migration traffic (the same convention as
    :class:`MachineSpec`'s ``nvme_read_us`` / ``nvme_write_us``).
    Catalog entries carry published device numbers, noted inline.
    """

    name: str
    capacity_bytes: int
    #: Load-to-use latency of the slow tier in nanoseconds.
    access_latency_ns: float
    #: Latency of reading one 4 KiB page off the tier (promotion), usec.
    read_us: float
    #: Latency of writing one 4 KiB page to the tier (demotion), usec.
    write_us: float

    def __post_init__(self):
        if self.capacity_bytes < PAGE_SIZE:
            raise ConfigError(
                f"tier capacity below one page: {self.capacity_bytes}"
            )
        if self.access_latency_ns <= 0:
            raise ConfigError(
                f"access_latency_ns must be positive: {self.access_latency_ns}"
            )
        if self.read_us <= 0:
            raise ConfigError(f"read_us must be positive: {self.read_us}")
        if self.write_us <= 0:
            raise ConfigError(f"write_us must be positive: {self.write_us}")

    @property
    def n_frames(self) -> int:
        return self.capacity_bytes // PAGE_SIZE


@dataclass(frozen=True)
class GuestSpec:
    """The QEMU/KVM guest used for every experiment (§4).

    Carries the host spec plus the guest's share of resources: half the
    vCPUs and a quarter of the DRAM, exactly as in the paper.  A tiered
    guest additionally carries a :class:`TierSpec` describing the slow
    memory behind its DRAM; ``slow_tier=None`` (the default) is the
    paper's flat-DRAM machine.
    """

    host: MachineSpec
    vcpus: int
    dram_bytes: int
    slow_tier: Optional[TierSpec] = None

    def __post_init__(self):
        if self.vcpus < 1:
            raise ConfigError(f"guest vcpus must be >= 1: {self.vcpus}")
        if self.dram_bytes <= 0:
            raise ConfigError(
                f"guest dram_bytes must be positive: {self.dram_bytes}"
            )

    @property
    def name(self) -> str:
        return f"{self.host.name}.guest"

    @property
    def cpu_scale(self) -> float:
        return self.host.cpu_scale


#: Paper Table 2, verbatim.
_CATALOG = {
    "i3.metal": MachineSpec(
        name="i3.metal",
        cpu_ghz=3.0,
        vcpus=36,
        dram_bytes=128 * GIB,
        # Storage-optimised family: fast local NVMe.
        nvme_read_us=70.0,
        nvme_write_us=20.0,
    ),
    "m5d.metal": MachineSpec(
        name="m5d.metal",
        cpu_ghz=3.1,
        vcpus=48,
        dram_bytes=96 * GIB,
        nvme_read_us=95.0,
        nvme_write_us=30.0,
    ),
    "z1d.metal": MachineSpec(
        name="z1d.metal",
        cpu_ghz=4.0,
        vcpus=24,
        dram_bytes=96 * GIB,
        nvme_read_us=90.0,
        nvme_write_us=28.0,
    ),
}


def instance_catalog() -> dict:
    """Return the Table 2 instance catalog as a fresh name → spec dict."""
    return dict(_CATALOG)


def get_instance(name: str) -> MachineSpec:
    """Look up an instance type by its Table 2 name."""
    try:
        return _CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(_CATALOG))
        raise ConfigError(f"unknown instance type {name!r}; known: {known}") from None


#: Slow-tier catalog.  Numbers are published device characteristics:
#: Optane DC PMM read latency ~305 ns and ~3x write asymmetry at page
#: granularity [Izraelevitz et al. '19]; CXL-attached DRAM adds one
#: switch/controller hop over local DRAM, landing near 200-250 ns
#: load-to-use with near-symmetric bandwidth [Sun et al. '23].
_TIER_CATALOG = {
    "optane-pmm": TierSpec(
        name="optane-pmm",
        capacity_bytes=512 * GIB,
        access_latency_ns=305.0,
        read_us=0.6,
        write_us=1.8,
    ),
    "cxl-dram": TierSpec(
        name="cxl-dram",
        capacity_bytes=256 * GIB,
        access_latency_ns=210.0,
        read_us=0.3,
        write_us=0.35,
    ),
}


def tier_catalog() -> dict:
    """Return the slow-tier catalog as a fresh name → spec dict."""
    return dict(_TIER_CATALOG)


def get_tier(name: str) -> TierSpec:
    """Look up a slow-tier model by catalog name."""
    try:
        return _TIER_CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(_TIER_CATALOG))
        raise ConfigError(f"unknown memory tier {name!r}; known: {known}") from None


def guest_of(host: MachineSpec, *, slow_tier: Optional[TierSpec] = None) -> GuestSpec:
    """Derive the experiment guest: half the vCPUs, a quarter of the DRAM.

    ``dram_bytes // 4`` on an odd-sized host is not page-aligned; the
    guest's share is floored to whole pages.
    """
    return GuestSpec(
        host=host,
        vcpus=host.vcpus // 2,
        dram_bytes=_page_floor(host.dram_bytes // 4),
        slow_tier=slow_tier,
    )


def scaled_instance(name: str, *, dram_scale: float = 1.0) -> MachineSpec:
    """A catalog instance with DRAM scaled, for reduced-footprint test runs.

    The scaled size is floored to whole 4 KiB pages (and to at least one
    page) so downstream page math never sees a fractional page.
    """
    spec = get_instance(name)
    if not 0 < dram_scale < math.inf:
        raise ConfigError(f"dram_scale must be finite and positive: {dram_scale}")
    return replace(spec, dram_bytes=_page_floor(int(spec.dram_bytes * dram_scale)))


def scaled_tier(name: str, *, capacity_scale: float = 1.0) -> TierSpec:
    """A catalog tier with capacity scaled, page-floored like
    :func:`scaled_instance`."""
    spec = get_tier(name)
    if not 0 < capacity_scale < math.inf:
        raise ConfigError(f"capacity_scale must be finite and positive: {capacity_scale}")
    return replace(
        spec, capacity_bytes=_page_floor(int(spec.capacity_bytes * capacity_scale))
    )
