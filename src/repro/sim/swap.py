"""Swap devices: ZRAM (compressed, in-DRAM) and file-backed (NVMe).

The paper's ``baseline`` configuration uses a 4 GiB ZRAM device, and the
production experiment (Figure 9) compares ZRAM against file-based swap.
The two devices differ in exactly the two ways the experiments exercise:

* **latency** — ZRAM pays a (de)compression cost of a few microseconds,
  file swap pays an NVMe I/O of tens to hundreds of microseconds;
* **memory cost** — ZRAM stores compressed page content *in DRAM*, so a
  page swapped to ZRAM still holds a third of its size in DRAM (a 3:1
  compression ratio), whereas file swap frees the whole page.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigError, SwapFullError
from .pagetable import PAGE_SIZE
from ..units import GIB

__all__ = [
    "SWAP_KINDS",
    "SwapDevice",
    "ZramDevice",
    "FileSwapDevice",
    "NoSwapDevice",
    "build_swap",
]

#: The swap backends a machine can be built with.
SWAP_KINDS = ("zram", "file", "none")


class SwapDevice:
    """Base swap device: slot accounting plus a latency/memory model."""

    name = "swap"

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < PAGE_SIZE:
            raise ConfigError(f"swap capacity below one page: {capacity_bytes}")
        self.capacity_pages = capacity_bytes // PAGE_SIZE
        self.used_pages = 0
        self.total_outs = 0
        self.total_ins = 0

    # -- accounting ----------------------------------------------------
    def free_pages(self) -> int:
        """Unused swap slots."""
        return self.capacity_pages - self.used_pages

    def store(self, n_pages: int, n_dirty: Optional[int] = None) -> int:
        """Swap ``n_pages`` out.  Returns the write latency in usec.

        ``n_dirty`` prices the writeback: clean pages whose content is
        already in swap need no write (read/write asymmetry — the write
        half of the paper's stated future work).  Defaults to all pages.
        """
        if n_pages < 0:
            raise ConfigError(f"negative page count: {n_pages}")
        if n_dirty is None:
            n_dirty = n_pages
        if not 0 <= n_dirty <= n_pages:
            raise ConfigError(f"n_dirty must be in [0, {n_pages}]: {n_dirty}")
        if n_pages > self.free_pages():
            raise SwapFullError(
                f"{self.name}: need {n_pages} slots, {self.free_pages()} free"
            )
        self.used_pages += n_pages
        self.total_outs += n_pages
        return int(round(n_dirty * self.page_write_us()))

    def load(self, n_pages: int) -> int:
        """Swap ``n_pages`` back in.  Returns the read latency in usec."""
        if n_pages < 0:
            raise ConfigError(f"negative page count: {n_pages}")
        if n_pages > self.used_pages:
            raise SwapFullError(
                f"{self.name}: loading {n_pages} pages but only {self.used_pages} stored"
            )
        self.used_pages -= n_pages
        self.total_ins += n_pages
        return int(round(n_pages * self.page_read_us()))

    def discard(self, n_pages: int) -> None:
        """Drop stored pages without reading them (munmap of swapped pages)."""
        if n_pages < 0 or n_pages > self.used_pages:
            raise SwapFullError(
                f"{self.name}: cannot discard {n_pages} of {self.used_pages} stored pages"
            )
        self.used_pages -= n_pages

    # -- models (overridden per device) ---------------------------------
    def page_write_us(self) -> float:
        """Device time to store one page (compression or I/O), usec."""
        return 0.0

    def page_read_us(self) -> float:
        """Device time to load one page back, usec."""
        return 0.0

    def dram_overhead_bytes(self) -> int:
        """DRAM consumed by the device's stored content (ZRAM only)."""
        return 0


class ZramDevice(SwapDevice):
    """Compressed RAM block device (Linux zram).

    Published measurements put lzo/lz4 page (de)compression at a few
    microseconds per 4 KiB page with compression ratios around 3:1 for
    typical application memory; the costs are configurable, the ratio
    is 3.
    """

    name = "zram"

    def __init__(
        self,
        capacity_bytes: int = 4 * GIB,
        *,
        compress_us_per_page: float = 4.0,
        decompress_us_per_page: float = 2.0,
    ):
        super().__init__(capacity_bytes)
        self.compress_us = float(compress_us_per_page)
        self.decompress_us = float(decompress_us_per_page)
        self.ratio = 3.0

    def page_write_us(self) -> float:
        return self.compress_us

    def page_read_us(self) -> float:
        return self.decompress_us

    def dram_overhead_bytes(self) -> int:
        return int(self.used_pages * PAGE_SIZE / self.ratio)


class FileSwapDevice(SwapDevice):
    """Swap file on local NVMe.

    Reads are synchronous page faults and pay the full device read
    latency; writes are batched by the kernel's writeback, modelled as a
    smaller per-page cost.
    """

    name = "file"

    def __init__(
        self,
        capacity_bytes: int = 32 * GIB,
        *,
        read_us_per_page: float = 90.0,
        write_us_per_page: float = 10.0,
    ):
        super().__init__(capacity_bytes)
        self.read_us = float(read_us_per_page)
        self.write_us = float(write_us_per_page)

    def page_write_us(self) -> float:
        return self.write_us

    def page_read_us(self) -> float:
        return self.read_us


class NoSwapDevice(SwapDevice):
    """A zero-capacity device for the Figure 9 ``No Swap`` configuration.

    ``store`` always raises :class:`SwapFullError`; the kernel façade
    treats that as "reclaim cannot make progress".
    """

    name = "none"

    def __init__(self):
        # One page of nominal capacity to satisfy the base-class check;
        # free_pages() is pinned to zero instead of faking a used slot,
        # so used_pages stays an honest count of stored pages (the
        # sanitizer cross-checks it against the page tables).
        super().__init__(PAGE_SIZE)

    def free_pages(self) -> int:
        return 0


def build_swap(kind: str, machine, capacity: Optional[int] = None) -> SwapDevice:
    """The swap device of kind ``kind`` (one of :data:`SWAP_KINDS`) on
    host ``machine``: ZRAM speed scales with the host clock, file swap
    latency comes from the instance's NVMe characteristics.
    ``capacity`` replaces the single-run size (4 GiB ZRAM, 32 GiB file):
    the fleet sizes its shared device by its footprint.

    The per-page ZRAM cost bundles fault-handler entry, (de)compression
    and TLB maintenance, and is calibrated ~10x above the raw lzo cost
    because workload footprints are modelled ~10x below the paper's
    (fault *volume* scales with footprint; keeping the volume × cost
    product preserves the paper's slowdown magnitudes — see DESIGN.md).
    """
    if kind == "zram":
        # (De)compression is part compute (scales with the clock), part
        # memory-bound (does not), hence the square root.
        scale = machine.cpu_scale ** 0.5
        return ZramDevice(
            capacity if capacity is not None else 4 * GIB,
            compress_us_per_page=10.0 / scale,
            decompress_us_per_page=25.0 / scale,
        )
    if kind == "file":
        return FileSwapDevice(
            capacity if capacity is not None else 32 * GIB,
            read_us_per_page=machine.nvme_read_us,
            write_us_per_page=machine.nvme_write_us / 2.0,
        )
    if kind == "none":
        return NoSwapDevice()
    raise ConfigError(f"unknown swap kind {kind!r} ({' | '.join(SWAP_KINDS)})")
