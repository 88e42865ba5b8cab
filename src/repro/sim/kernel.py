"""The simulated kernel: the façade every other layer talks to.

:class:`SimKernel` owns one guest's address space, physical frames, swap
device and THP machinery, and exposes:

* the **access path** used by workloads (:meth:`apply_access`,
  :meth:`begin_epoch` / :meth:`end_epoch`) — faults, frame allocation,
  LRU pressure reclaim, cost accounting;
* the **management operations** used by scheme actions: one batched
  entry per scheme pass (:meth:`scheme_pass`) over the Table 1 action
  back-ends (:meth:`pageout`, :meth:`madvise_hugepage`,
  :meth:`madvise_nohugepage`, :meth:`madvise_cold`,
  :meth:`madvise_willneed`, ...);
* the **monitoring hooks** used by the Data Access Monitor
  (:meth:`access_probabilities`, :meth:`charge_monitor_checks`).

All latency charging flows through :class:`repro.sim.costs.CostModel`
and lands in :class:`repro.sim.metrics.KernelMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigError, SwapFullError
from ..trace.bus import TraceBus
from ..trace.events import (
    DegradedModeEntered,
    DegradedModeExited,
    EpochEnd,
    PageoutBatch,
    ReclaimPass,
    ThpPromotion,
    TierMigration,
)
from .costs import CostModel
from .lru import LruReclaimer
from .machine import GuestSpec, MachineSpec, guest_of
from .metrics import KernelMetrics
from .pagetable import PAGE_SIZE, PAGES_PER_HUGE
from .physmem import FrameTable
from .swap import SwapDevice, ZramDevice
from .thp import ThpPolicy
from .vma import VMA, AddressSpace

__all__ = ["SimKernel", "Watermarks", "check_tier_policy"]

#: Reclaim starts above this fraction of physical frames...
_HIGH_WATERMARK = 0.96
#: ...and stops once usage falls below this fraction.
_LOW_WATERMARK = 0.92


@dataclass(frozen=True)
class Watermarks:
    """Reclaim thresholds as fractions of a frame pool.

    One shared instance can drive many consumers: each
    :class:`SimKernel` evaluates it against its own frame table, and the
    fleet scheduler evaluates the *same* values against the shared
    physical pool — that is how per-process and fleet-wide reclaim stay
    on one policy.  Both use the classic kswapd-style pair.
    """

    high: float = _HIGH_WATERMARK
    low: float = _LOW_WATERMARK

    def __post_init__(self) -> None:
        if not 0.0 < self.low < self.high <= 1.0:
            raise ConfigError(
                f"watermarks need 0 < low < high <= 1: low={self.low}, high={self.high}"
            )

    def high_frames(self, n_frames: int) -> int:
        """Frame count above which a reclaim pass starts."""
        return int(n_frames * self.high)

    def low_frames(self, n_frames: int) -> int:
        """Frame count reclaim drives usage back down to."""
        return int(n_frames * self.low)

#: Fraction of swap-write latency charged to the workload: page-out I/O
#: is mostly asynchronous writeback, but dirties shared queues.
_ASYNC_WRITE_SHARE = 0.3


def check_tier_policy(policy: str) -> str:
    """``policy`` if it names a tier placement policy a kernel
    implements; :class:`ConfigError` otherwise."""
    if policy not in ("managed", "unmanaged"):
        raise ConfigError(f"unknown tier_policy {policy!r} (managed | unmanaged)")
    return policy


#: What each scheme back-end acts on, as the per-page column
#: :meth:`SimKernel.scheme_pass` tests before calling it: a row whose
#: pages hold none of it is one the back-end would leave untouched,
#: storing and emitting nothing.  ``"owned"`` is a frame the rmap maps
#: (the physical back-ends); ``"promote"``/``"demote"`` are the pages a
#: migration could move.  The THP pair is not listed: it runs on every row.
_CANDIDATES = {
    "pageout": "present",
    "madvise_cold": "present",
    "lru_prioritize": "present",
    "lru_deprioritize": "present",
    "madvise_willneed": "swapped",
    "migrate_hot": "promote",
    "migrate_cold": "demote",
    "pageout_phys": "owned",
    "lru_prioritize_phys": "owned",
    "lru_deprioritize_phys": "owned",
}


def _any_in(column: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per interval ``[lo[i], hi[i])`` of the boolean ``column``: does
    any entry hold?

    One ``reduceat`` over the interleaved bounds: each even output
    reduces exactly its own interval; the odd outputs, the stretches
    between intervals, are dropped (intervals are taken in ascending
    order, so those add at most one pass over ``column``).  ``reduceat``
    wants every bound below ``column.size``: bounds are clamped to the
    last entry, which the intervals running to the end then OR in.
    Empty intervals, for which ``reduceat`` returns the entry at the
    bound, are masked."""
    last = column.size - 1
    order = None
    if lo.size > 1 and (lo[1:] < lo[:-1]).any():
        order = np.argsort(lo, kind="stable")
        lo, hi = lo[order], hi[order]
    bounds = np.empty(2 * lo.size, dtype=np.int64)
    bounds[0::2] = lo
    bounds[1::2] = hi
    np.minimum(bounds, last, out=bounds)
    hit = np.logical_or.reduceat(column, bounds)[0::2]
    if column[last]:
        hit |= hi > last
    hit &= hi > lo
    if order is not None:
        hit[order] = hit.copy()
    return hit


class SimKernel:
    """One guest VM's memory subsystem."""

    def __init__(
        self,
        guest,
        *,
        swap: Optional[SwapDevice] = None,
        costs: Optional[CostModel] = None,
        thp: Optional[ThpPolicy] = None,
        seed: int = 0,
        trace: Optional[TraceBus] = None,
        faults=None,
        oom_policy: str = "raise",
        sanitizer=None,
        tier_policy: str = "managed",
    ):
        if oom_policy not in ("raise", "shed"):
            raise ConfigError(
                f"oom_policy must be 'raise' or 'shed': {oom_policy!r}"
            )
        if isinstance(guest, MachineSpec):
            guest = guest_of(guest)
        if not isinstance(guest, GuestSpec):
            raise ConfigError(f"expected GuestSpec or MachineSpec, got {guest!r}")
        self.guest = guest
        #: Slow memory tier (:class:`~repro.sim.machine.TierSpec`) or
        #: None on a flat machine; part of the guest spec.
        self.tier = guest.slow_tier
        self.space = AddressSpace(name="workload")
        self.frames = FrameTable(
            guest.dram_bytes,
            self.tier.capacity_bytes if self.tier is not None else 0,
        )
        self.swap = swap if swap is not None else ZramDevice()
        self.costs = costs if costs is not None else CostModel()
        self.thp_policy = thp if thp is not None else ThpPolicy(mode="never")
        self.lru = LruReclaimer(self.space, frames=self.frames)
        self.rng = np.random.default_rng(seed)
        self.metrics = KernelMetrics()
        #: Optional trace bus; every management path emits through it.
        self.trace = trace
        #: Optional :class:`repro.faults.FaultInjector` shared with the run.
        self.faults = faults
        #: Optional :class:`repro.sanitize.SimSanitizer`; ``end_epoch``
        #: calls its kernel checkpoint.
        self.sanitizer = sanitizer
        #: Reclaim thresholds: the classic kswapd-style pair.
        self.watermarks = Watermarks()
        #: Tier placement policy: ``"managed"`` routes reclaim to
        #: demotion and serves MIGRATE_HOT / MIGRATE_COLD; ``"unmanaged"``
        #: treats DRAM + slow tier as one big pool — faults spill to the
        #: slow tier when DRAM fills and nothing ever migrates (the
        #: Memos-style baseline the placement bench compares against).
        self.tier_policy = check_tier_policy(tier_policy)
        # Slow-tier load-to-use latency relative to DRAM; feeds the
        # per-touch stall surcharge for slow-resident pages.
        self._tier_latency_ratio = (
            self.tier.access_latency_ns / guest.host.dram_latency_ns
            if self.tier is not None
            else 1.0
        )
        #: ``"raise"`` aborts with :class:`SwapFullError` when an
        #: allocation cannot be backed; ``"shed"`` grants what fits,
        #: reverts the rest of the batch, and enters degraded mode.
        self.oom_policy = oom_policy
        self._oom_reclaim_failed = False
        self._degraded_reason = ""
        self._degraded_since_us = 0

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def mmap(self, start: int, size: int, name: str = "") -> VMA:
        """Map ``[start, start + size)``.  A mapping below others shifts
        their pages up the page table; the rmap follows."""
        vma = self.space.mmap(start, size, name)
        seg = self.space.segment(vma)
        if seg.stop < self.space.flat.n_pages:
            self.frames.shift_owners(seg.start, seg.stop - seg.start)
        return vma

    def munmap(self, vma: VMA) -> None:
        """Tear a mapping down: frames freed, swap slots discarded, and
        the pages above it compacted down the page table (the rmap
        follows)."""
        seg = self.space.segment(vma)
        flat = self.space.flat
        frames = flat.frame[seg][flat.present[seg]]
        frames = frames[frames >= 0]
        if frames.size:
            self.frames.release(frames)
        swapped = int(np.count_nonzero(flat.swapped[seg]))
        if swapped:
            self.swap.discard(swapped)
        self.space.munmap(vma)
        self.frames.shift_owners(seg.stop, seg.start - seg.stop)

    def _groups(self, start: int, end: int, phys: bool):
        """Resolve an action's range to page selections, one per VMA
        segment: a *slice* per overlapping VMA in address order for a
        virtual range (never an ``arange``, so column reads stay views),
        an index array per owning segment for a physical range of frame
        addresses (segments ascending, pages by frame number)."""
        if not phys:
            for lo, hi in self.space.spans(start, end):
                yield slice(lo, hi)
            return
        frames = self.frames.prefix_frames(start // PAGE_SIZE, -(-end // PAGE_SIZE))
        if frames.size == 0:
            return
        pages = self.frames.owners(frames)
        yield from self.space.flat.split_segments(pages[pages >= 0])

    # ------------------------------------------------------------------
    # Epoch lifecycle (driven by the workload runner)
    # ------------------------------------------------------------------
    def begin_epoch(self) -> None:
        """Reset per-epoch touch rates before the workload declares new ones."""
        self.space.flat.clear_rates()

    def apply_access(
        self,
        start: int,
        end: int,
        now: int,
        epoch_us: int,
        *,
        fraction: float = 1.0,
        touches_per_page: float = 1.0,
        stride: int = 1,
        stall_weight: float = 1.0,
        tlb_scale: float = 1.0,
        write_fraction: float = 0.0,
    ) -> None:
        """Apply one access burst: ``fraction`` of pages in
        ``[start, end)`` touched ``touches_per_page`` times over the
        epoch.  Handles faults, frame allocation, rate declaration and
        latency accounting.

        ``touches_per_page`` feeds the accessed-bit rate model (what the
        monitor can see); the memory-stall *cost* is charged once per
        touched page per epoch, scaled by ``stall_weight`` — the
        workload's memory-boundedness knob.
        """
        if epoch_us <= 0:
            raise ConfigError(f"epoch must be positive: {epoch_us}")
        # Per-page rate for the accessed-bit model: strided bursts touch
        # their stride set at full rate (the rate applies to those pages
        # only), fractional bursts dilute the rate across the range.
        if stride > 1:
            rate = touches_per_page / (epoch_us / 1e6)
        else:
            rate = fraction * touches_per_page / (epoch_us / 1e6)
        pt = self.space.flat
        for lo, hi in self.space.spans(start, end):
            result = pt.touch_range(
                lo,
                hi,
                now,
                fraction=fraction,
                touches=touches_per_page,
                stride=stride,
                write_fraction=write_fraction,
                rng=self.rng,
            )
            touched = result["touched"]
            if touched.size == 0:
                pt.add_rate(lo, hi, rate, stride)
                if write_fraction > 0.0:
                    pt.add_write_rate(lo, hi, rate * write_fraction, stride)
                continue

            major = result["major"]
            minor = result["minor"]
            need_frames = major.size + minor.size
            shed_pages = 0
            if need_frames:
                if self.oom_policy == "shed":
                    granted = min(
                        need_frames, self._free_after_reclaim(need_frames, now)
                    )
                else:
                    self._ensure_frames(need_frames, now)
                    granted = need_frames
                if granted < need_frames:
                    shed_pages = need_frames - granted
                    major, minor = self._shed_batch(major, minor, granted)
                    self.metrics.shed_pages += shed_pages
                    self._enter_degraded("oom", now)
                alloc_for = np.concatenate((major, minor)) if major.size and minor.size else (
                    major if major.size else minor
                )
                if alloc_for.size:
                    self._allocate_mapped(alloc_for)
            if major.size:
                latency = self.swap.load(major.size)
                latency += self.costs.major_fault_overhead_us(major.size)
                self.metrics.runtime.major_fault_us += latency
                self.metrics.major_faults += major.size
                self.metrics.pages_swapped_in += major.size
            if minor.size:
                self.metrics.runtime.minor_fault_us += self.costs.minor_fault_cost_us(
                    minor.size
                )
                self.metrics.minor_faults += minor.size

            # Memory-stall cost: touches hitting huge-mapped chunks are
            # cheaper (TLB walks skipped).  Shed pages were never really
            # touched, so they carry no stall cost.
            effective_touches = touched.size - shed_pages
            if effective_touches > 0:
                total_touches = effective_touches * stall_weight
                if pt.chunk_huge.any():
                    huge_hits = pt.huge_page_mask(touched)
                    huge_fraction = float(np.count_nonzero(huge_hits)) / touched.size
                else:
                    huge_fraction = 0.0
                self.metrics.runtime.memory_stall_us += self.costs.touch_cost_us(
                    total_touches, huge_fraction, tlb_scale
                )
                if self.tier is not None:
                    # Touches served by the slow tier pay the extra
                    # load-to-use latency on top of the DRAM share
                    # already charged above.  (Shed pages are tier 0, so
                    # they never land here.)
                    n_slow = int(np.count_nonzero(pt.tier[touched]))
                    if n_slow:
                        self.metrics.runtime.memory_stall_us += (
                            self.costs.tier_touch_cost_us(
                                n_slow * stall_weight, self._tier_latency_ratio
                            )
                        )
            pt.add_rate(lo, hi, rate, stride)
            if write_fraction > 0.0:
                pt.add_write_rate(lo, hi, rate * write_fraction, stride)

    def end_epoch(self, now: int, compute_us: float) -> None:
        """Close the epoch: charge nominal compute (already scaled by the
        caller for CPU speed), run pressure reclaim, sample memory."""
        self.metrics.runtime.compute_us += compute_us
        if self.faults is not None:
            # A stuck/late epoch charges extra stall time; the injector
            # traces the firing.
            self.metrics.runtime.compute_us += float(self.faults.epoch_delay_us(now))
        self._pressure_reclaim(now)
        self.sample_memory(now)
        tr = self.trace
        if tr is not None:
            if tr.wants(EpochEnd):
                # Costs are charged at the epoch's end while the event is
                # stamped at emission time, so ``now`` rides as payload.
                tr.emit(
                    EpochEnd(
                        time_us=tr.now,
                        epoch_end_us=now,
                        compute_us=compute_us,
                        rss_bytes=self.rss_bytes(),
                        free_frames=self.frames.free_frames(),
                        major_faults=self.metrics.major_faults,
                        minor_faults=self.metrics.minor_faults,
                    )
                )
            else:
                tr.count(EpochEnd)
        if self.sanitizer is not None:
            self.sanitizer.checkpoint_kernel(self, now)

    def sample_memory(self, now: int) -> None:
        """Record an RSS/system-memory sample on the metrics timeline."""
        self.metrics.memory.record(now, self.rss_bytes(), self.system_bytes())

    # ------------------------------------------------------------------
    # Pressure reclaim (the baseline's two-list LRU path)
    # ------------------------------------------------------------------
    def _swap_free_pages(self, now: int) -> int:
        """Swap slots available at ``now`` — zero while an injected
        ``swap_full`` window is active."""
        if self.faults is not None and self.faults.swap_is_full(now):
            return 0
        return self.swap.free_pages()

    @property
    def _tier_spill(self) -> bool:
        """Whether faults may land in the slow tier (unmanaged policy)."""
        return self.tier is not None and self.tier_policy == "unmanaged"

    def _allocatable(self) -> int:
        """Frames an allocation batch could be backed by right now:
        free DRAM, plus the slow tier's free frames when the unmanaged
        policy lets faults spill there."""
        free = self.frames.free_frames()
        if self._tier_spill:
            free += self.frames.free_slow_frames()
        return free

    def _allocate_mapped(self, idx: np.ndarray) -> None:
        """Back pages ``idx`` with frames: DRAM first, with the
        unmanaged-tier overflow spilling to slow frames.  Sets the page
        table's ``frame`` and ``tier`` columns.  The caller guarantees
        ``idx.size <= _allocatable()`` (via ``_ensure_frames`` or shed)."""
        pt = self.space.flat
        n = int(idx.size)
        n_fast = min(n, self.frames.free_frames()) if self._tier_spill else n
        if n_fast:
            part = idx[:n_fast]
            pt.frame[part] = self.frames.allocate(n_fast, part)
        if n_fast < n:
            part = idx[n_fast:]
            pt.frame[part] = self.frames.allocate_slow(n - n_fast, part)
            pt.tier[part] = 1

    def _free_after_reclaim(self, needed: int, now: int) -> int:
        """Allocatable frames after (at most) one alloc-triggered reclaim pass."""
        free = self._allocatable()
        if free >= needed:
            return free
        self._reclaim(needed - free, "alloc", now)
        return self._allocatable()

    def _ensure_frames(self, needed: int, now: int) -> None:
        if self._free_after_reclaim(needed, now) < needed:
            raise SwapFullError(
                "OOM: reclaim could not free enough frames "
                f"(need {needed}, free {self._allocatable()})"
            )

    def _shed_batch(self, major: np.ndarray, minor: np.ndarray, granted: int):
        """Trim an allocation batch to ``granted`` frames.

        Major faults keep priority (the workload is blocked on data that
        already exists in swap); the overflow is reverted to its
        pre-touch page state so the shed pages fault again next epoch.
        """
        keep_major = min(major.size, granted)
        keep_minor = granted - keep_major
        pt = self.space.flat
        pt.unmap(major[keep_major:], to_swap=True)
        pt.unmap(minor[keep_minor:], to_swap=False)
        return major[:keep_major], minor[:keep_minor]

    def _enter_degraded(self, reason: str, now: int) -> None:
        if self._degraded_reason:
            return
        self._degraded_reason = reason
        self._degraded_since_us = int(now)
        tr = self.trace
        if tr is not None:
            tr.emit(
                DegradedModeEntered(time_us=tr.now, subsystem="kernel", reason=reason)
            )

    def _maybe_recover(self, now: int) -> None:
        """Leave degraded mode once swap can accept evictions again
        (checked once per epoch, so event volume stays bounded)."""
        if not self._degraded_reason and not self._oom_reclaim_failed:
            return
        room = self._swap_free_pages(now)
        if self.tier is not None and self.tier_policy == "managed":
            room += self.frames.free_slow_frames()
        if room <= 0:
            return
        self._oom_reclaim_failed = False
        reason = self._degraded_reason
        if reason:
            self._degraded_reason = ""
            tr = self.trace
            if tr is not None:
                tr.emit(
                    DegradedModeExited(
                        time_us=tr.now,
                        subsystem="kernel",
                        reason=reason,
                        degraded_us=max(0, int(now) - self._degraded_since_us),
                    )
                )

    @property
    def degraded(self) -> bool:
        """Whether the kernel is currently shedding load."""
        return bool(self._degraded_reason)

    def _pressure_reclaim(self, now: int) -> None:
        if self.oom_policy == "shed":
            self._maybe_recover(now)
        frames = self.frames
        if self._tier_spill:
            # Unmanaged: one big pool; pressure only exists once *both*
            # tiers are nearly full (the kernel cannot tell them apart).
            allocated = frames.allocated
            pool = frames.n_frames
        else:
            # DRAM is the contended resource; slow-resident pages neither
            # count against the watermark nor relieve it.  On a flat
            # machine the fast pool IS the whole pool, so the arithmetic
            # is unchanged.
            allocated = frames.fast_allocated
            pool = frames.n_fast_frames
        if self.faults is not None:
            # A transient pressure spike counts phantom frames as
            # allocated, forcing reclaim passes the workload alone would
            # not have triggered.
            allocated += self.faults.pressure_spike_frames(now)
        high = self.watermarks.high_frames(pool)
        if allocated <= high or self._oom_reclaim_failed:
            return
        low = self.watermarks.low_frames(pool)
        self._reclaim(allocated - low, "pressure", now)

    def _swap_out(self, idx: np.ndarray) -> int:
        """Move one segment group's present pages ``idx`` to swap: unmap
        them, free their frames and charge the device; returns how many
        were dirty (written back).  Per group, never merged: the device
        rounds each ``store()`` internally, so merging groups would
        change the charged total (an identity-contract detail pinned by
        ``tests/test_goldens.py``)."""
        frames, n_dirty = self.space.flat.unmap(idx, to_swap=True)
        self.frames.release(frames)
        latency = self.swap.store(idx.size, n_dirty)
        self.metrics.runtime.swapout_us += latency * _ASYNC_WRITE_SHARE
        self.metrics.pages_swapped_out += idx.size
        self.metrics.pages_written_back += n_dirty
        return n_dirty

    def _move_tier(self, idx: np.ndarray, tier: int) -> None:
        """Re-back resident pages ``idx`` with frames of ``tier``
        (0 = DRAM, 1 = slow).  The caller has checked the room."""
        pt = self.space.flat
        self.frames.release(pt.frame[idx])
        allocate = self.frames.allocate_slow if tier else self.frames.allocate
        pt.frame[idx] = allocate(int(idx.size), idx)
        pt.tier[idx] = tier

    def _account_migration(self, direction: str, pages: int, trigger: str) -> None:
        """Book ``pages`` moved between tiers in one pass: the counter,
        the cost and the pass's one :class:`TierMigration`."""
        tier = self.tier
        if direction == "demote":
            self.metrics.pages_demoted += pages
            device_us = tier.write_us
        else:
            self.metrics.pages_promoted += pages
            device_us = tier.read_us
        # Migration copies are kswapd-style background work; only the
        # async share surfaces in the workload's runtime.
        self.metrics.runtime.tier_migration_us += (
            self.costs.tier_migration_cost_us(pages, device_us) * _ASYNC_WRITE_SHARE
        )
        tr = self.trace
        if tr is not None:
            if tr.wants(TierMigration):
                tr.emit(
                    TierMigration(
                        time_us=tr.now, direction=direction, pages=pages, trigger=trigger
                    )
                )
            else:
                tr.count(TierMigration)

    def _reclaim(self, n_pages: int, trigger: str, now: int) -> None:
        """Free up to ``n_pages`` LRU-cold DRAM pages.  With a managed
        slow tier, cold pages are *demoted* (migrated down, staying
        resident) while the tier has room; only the overflow is evicted
        to swap.  ``trigger`` records why the pass ran (``"alloc"`` or
        ``"pressure"``)."""
        demote = self.tier is not None and self.tier_policy == "managed"
        demote_room = self.frames.free_slow_frames() if demote else 0
        budget = min(n_pages, demote_room + self._swap_free_pages(now))
        if budget <= 0:
            self._oom_reclaim_failed = True
            if self.oom_policy == "shed":
                self._enter_degraded("swap-full", now)
            return
        # Managed tiering never victimises slow-resident pages: DRAM
        # pressure is relieved by moving DRAM pages down, and the slow
        # tier drains through swap only when it is itself the overflow
        # path (the demotion loop below fills it first).
        victims = self.lru.select_victims(budget, rng=self.rng, fast_only=demote)
        demoted = evicted = written_back = 0
        for idx in victims:
            if demote_room:
                take = min(demote_room, int(idx.size))
                self._move_tier(idx[:take], 1)
                demote_room -= take
                demoted += take
                idx = idx[take:]
            if idx.size == 0:
                continue
            written_back += self._swap_out(idx)
            self.metrics.reclaim_evictions += idx.size
            evicted += int(idx.size)
        if demoted:
            self._account_migration("demote", demoted, trigger)
        tr = self.trace
        if tr is not None:
            if tr.wants(ReclaimPass):
                tr.emit(
                    ReclaimPass(
                        time_us=tr.now,
                        requested_pages=int(n_pages),
                        evicted_pages=evicted,
                        written_back_pages=written_back,
                        trigger=trigger,
                    )
                )
            else:
                tr.count(ReclaimPass)

    # ------------------------------------------------------------------
    # Management operations (scheme-action back-ends; Table 1)
    # ------------------------------------------------------------------
    def scheme_pass(
        self,
        backend: Optional[str],
        starts,
        ends,
        now: int,
        *,
        unit: int = PAGE_SIZE,
        budget: Optional[int] = None,
        regions=None,
        on_charge=None,
    ) -> np.ndarray:
        """Apply the back-end named ``backend`` to the rows ``[starts[i],
        ends[i])`` in row order; returns the bytes applied per row (the
        back-end's count times ``unit``).  The one way a scheme pass
        enters the kernel.

        All rows are first resolved at once, against the VMA bounds (or
        the rmap, for a ``*_phys`` back-end), and tested on the
        back-end's candidate column (:data:`_CANDIDATES`).  Rows without
        a candidate page are dropped; the back-end runs once per
        remaining row, so the swap, migration and pageout-batch
        accounting stay per row and per VMA group.  Dropping is exact:
        within one pass candidates only disappear, except that a
        WILLNEED prefetch may reclaim a later row's pages into swap, so
        those rows are retested after any call that swapped pages out.
        ``backend=None`` (STAT) touches nothing and applies every row's
        whole size.

        ``budget`` caps the bytes applied, consumed region by region in
        row order: a region larger than what is left is clipped to end
        at its start plus what is left, rounded down to a page.
        ``regions`` is ``(index, region_starts, region_ends)`` when rows
        are pieces of larger regions (a scheme's address filters): row
        ``i`` lies in region ``index[i]``, and a region's rows are
        adjacent.  By default every row is its own region.
        ``on_charge(region, nbytes)`` is called after each region that
        applied bytes, before the next region's first call.
        """
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        applied = np.zeros(starts.size, dtype=np.int64)
        kind = _CANDIDATES.get(backend) if backend is not None else None
        if kind is None:
            todo = list(range(starts.size))
        else:
            todo = self._has_candidates(kind, starts, ends).nonzero()[0].tolist()
        if not todo:
            return applied
        call = getattr(self, backend) if backend is not None else None
        if regions is None:
            index, region_starts, region_ends = None, starts, ends
        else:
            index, region_starts, region_ends = regions
        starts_l, ends_l = starts.tolist(), ends.tolist()
        left = budget
        region = -1
        limit = got = 0
        swapped_out = self.metrics.pages_swapped_out
        pos = 0
        while pos < len(todo):
            i = todo[pos]
            pos += 1
            r = i if index is None else int(index[i])
            if r != region:
                if got:
                    if left is not None:
                        left -= got
                    if on_charge is not None:
                        on_charge(region, got)
                region, got = r, 0
                if left is not None:
                    lo, hi = int(region_starts[r]), int(region_ends[r])
                    limit = hi if hi - lo <= left else lo + (left & ~(PAGE_SIZE - 1))
            start, end = starts_l[i], ends_l[i]
            if left is not None:
                end = min(end, limit)
            if end <= start:
                continue
            nbytes = end - start if call is None else call(start, end, now) * unit
            applied[i] = nbytes
            got += nbytes
            if kind == "swapped" and self.metrics.pages_swapped_out != swapped_out:
                swapped_out = self.metrics.pages_swapped_out
                rest = self._has_candidates(kind, starts[i + 1 :], ends[i + 1 :])
                todo[pos:] = (rest.nonzero()[0] + (i + 1)).tolist()
        if got and on_charge is not None:
            on_charge(region, got)
        return applied

    def _has_candidates(self, kind: str, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """One boolean per row: does ``[starts[i], ends[i])`` hold a page
        of candidate ``kind`` (a :data:`_CANDIDATES` value)?  One pass
        over the candidate column, read in place where it is stored as
        booleans already."""
        if kind in ("promote", "demote") and self._migration_room(kind == "demote") <= 0:
            return np.zeros(starts.size, dtype=bool)
        if kind == "owned":
            # Frame addresses.  Only a frame inside a pool's live prefix
            # can have an owner, so the column covers those frames and
            # each row's bounds become positions in it.
            live = self.frames.prefix_frames(0, self.frames.n_frames)
            column = self.frames.owners(live) >= 0
            lo = np.searchsorted(live, starts // PAGE_SIZE)
            hi = np.searchsorted(live, -(-ends // PAGE_SIZE))
        else:
            flat = self.space.flat
            lo, hi = self.space.page_spans(starts, ends)
            if kind == "promote":
                column = flat.tier.view(bool)  # tiers are 0 and 1
            elif kind == "demote":
                # DRAM-resident: present on tier 0 (a page off tier 0 is
                # present).  _migrate's frame and huge-page checks only
                # narrow this further.
                column = flat.present.view(np.int8) > flat.tier
            else:
                column = getattr(flat, kind)
        if column.size == 0:
            return np.zeros(starts.size, dtype=bool)
        return _any_in(column, lo, hi)

    def pageout(self, start: int, end: int, now: int, *, phys: bool = False) -> int:
        """PAGEOUT: immediately reclaim the address range.  Returns pages
        paged out (0 if swap is full — reclaim silently stops, as
        madvise_pageout does).  With ``phys`` the range is frame
        addresses.  Per segment group: the present pages outside huge
        chunks (a huge mapping must be split before its subpages can
        go), in group order, clamped to the free swap slots.  The
        virtual form, as madvise_pageout walks the whole range, first
        resets every candidate's ``lru_gen``, the ones the clamp leaves
        resident too."""
        total = total_dirty = attempted = 0
        pt = self.space.flat
        for sel in self._groups(start, end, phys):
            idx = sel[pt.present[sel]] if phys else np.flatnonzero(pt.present[sel]) + sel.start
            if pt.chunk_huge.any():
                idx = idx[~pt.huge_page_mask(idx)]
            if idx.size == 0:
                continue
            if not phys:
                pt.lru_gen[idx] = 0
            attempted += int(idx.size)
            idx = idx[: self._swap_free_pages(now)]
            if idx.size == 0:
                continue
            total_dirty += self._swap_out(idx)
            total += int(idx.size)
        tr = self.trace
        # Emit whenever reclaimable candidates existed, even if a full
        # swap device (the Figure 9 "No Swap" path) clamped the batch to
        # zero pages — consumers see the attempt, not silence.
        if tr is not None and attempted:
            tr.emit(
                PageoutBatch(
                    time_us=tr.now,
                    paged_out_pages=total,
                    written_back_pages=total_dirty,
                    phys=phys,
                )
            )
        return total

    def pageout_phys(self, start: int, end: int, now: int) -> int:
        """PAGEOUT on a physical address range: the frames resolve
        through the rmap to the pages that map them."""
        return self.pageout(start, end, now, phys=True)

    def madvise_willneed(self, start: int, end: int, now: int) -> int:
        """WILLNEED: prefetch swapped pages back in (asynchronously, so
        only a small share of the read latency reaches the workload)."""
        total = 0
        pt = self.space.flat
        for lo, hi in self.space.spans(start, end):
            idx = pt.swap_in_range(lo, hi)
            if idx.size == 0:
                continue
            if self.oom_policy == "shed":
                granted = min(idx.size, self._free_after_reclaim(idx.size, now))
                if granted < idx.size:
                    # Prefetch is advisory: leave the overflow swapped.
                    pt.unmap(idx[granted:], to_swap=True)
                    self.metrics.shed_pages += idx.size - granted
                    self._enter_degraded("oom", now)
                    idx = idx[:granted]
                if idx.size == 0:
                    continue
            else:
                self._ensure_frames(idx.size, now)
            self._allocate_mapped(idx)
            latency = self.swap.load(idx.size)
            self.metrics.runtime.swapout_us += latency * _ASYNC_WRITE_SHARE
            self.metrics.pages_swapped_in += idx.size
            total += idx.size
        return total

    def _set_lru_class(self, start: int, end: int, gen: int, phys: bool) -> int:
        """Place the range's present pages in LRU class ``gen``; returns
        the pages placed.  The kernel's one ``lru_gen`` store besides
        the virtual PAGEOUT's reset."""
        total = 0
        pt = self.space.flat
        for sel in self._groups(start, end, phys):
            present = pt.present[sel]
            pt.lru_gen[sel] = np.where(present, gen, pt.lru_gen[sel])
            total += int(np.count_nonzero(present))
        return total

    def lru_prioritize(self, start: int, end: int, now: int) -> int:
        """LRU_PRIO: place the range's present pages in the protected
        LRU class (active head) — the plain LRU, blind within its scan
        buckets, would treat them like any other recent page."""
        return self._set_lru_class(start, end, 1, False)

    def lru_deprioritize(self, start: int, end: int, now: int) -> int:
        """LRU_DEPRIO: place the range in the evict-first LRU class
        (inactive tail)."""
        return self._set_lru_class(start, end, -1, False)

    def lru_prioritize_phys(self, start: int, end: int, now: int) -> int:
        """LRU_PRIO on a physical range (rmap-resolved)."""
        return self._set_lru_class(start, end, 1, True)

    def lru_deprioritize_phys(self, start: int, end: int, now: int) -> int:
        """LRU_DEPRIO on a physical range (rmap-resolved)."""
        return self._set_lru_class(start, end, -1, True)

    def madvise_cold(self, start: int, end: int, now: int) -> int:
        """COLD: deactivate the range — pages become first in line for
        pressure reclaim by aging their recency to the epoch floor."""
        total = 0
        pt = self.space.flat
        for lo, hi in self.space.spans(start, end):
            present = pt.present[lo:hi]
            pt.last_touch[lo:hi][present] = np.iinfo(np.int64).min // 2 + 1
            total += int(np.count_nonzero(present))
        return total

    # -- tier migration (MIGRATE_HOT / MIGRATE_COLD back-ends) -----------
    def _migration_room(self, demote: bool) -> int:
        """Pages a migration may move right now; 0 unless a slow tier is
        attached *and* managed (the unmanaged policy only spills
        faults).  Within one scheme pass it only shrinks: each move
        fills the target tier."""
        if self.tier is None or self.tier_policy != "managed":
            return 0
        frames = self.frames
        if demote:
            return frames.free_slow_frames()
        # Promotion stops at the high watermark so it never *creates*
        # the pressure that would demote its own pages right back (the
        # thrash guard).
        return self.watermarks.high_frames(frames.n_fast_frames) - frames.fast_allocated

    def _migrate(self, start: int, end: int, direction: str) -> int:
        """Move the range's pages one tier up (``"promote"``) or down
        (``"demote"``) while the target tier has room; returns pages
        moved.  A no-op unless a slow tier is attached *and* managed: the
        unmanaged policy only spills faults."""
        demote = direction == "demote"
        room = self._migration_room(demote)
        total = 0
        pt = self.space.flat
        for lo, hi in self.space.spans(start, end):
            if room <= 0:
                break
            if demote:
                movable = pt.present[lo:hi] & (pt.tier[lo:hi] == 0) & (pt.frame[lo:hi] >= 0)
            else:
                movable = pt.tier[lo:hi] != 0
            idx = np.nonzero(movable)[0].astype(np.int64) + lo
            if demote and pt.chunk_huge.any():
                # A huge mapping cannot span tiers.
                idx = idx[~pt.huge_page_mask(idx)]
            idx = idx[:room]
            if idx.size == 0:
                continue
            self._move_tier(idx, int(demote))
            room -= int(idx.size)
            total += int(idx.size)
        if total:
            self._account_migration(direction, total, "scheme")
        return total

    def migrate_cold(self, start: int, end: int, now: int) -> int:
        """MIGRATE_COLD: demote the range's DRAM-resident pages to the
        slow tier, making DRAM headroom before pressure forces it.
        Huge-mapped pages are skipped; a full slow tier is a no-op.
        Returns pages demoted."""
        return self._migrate(start, end, "demote")

    def migrate_hot(self, start: int, end: int, now: int) -> int:
        """MIGRATE_HOT: promote the range's slow-resident pages into
        DRAM, watermark-gated.  Returns pages promoted."""
        return self._migrate(start, end, "promote")

    def _promote(self, chunks: np.ndarray, now: int) -> int:
        """Promote the given chunks (of one VMA): allocate frames for the
        bloat pages, settle swap accounting, charge allocation latency."""
        pt = self.space.flat
        if chunks.size and self.tier is not None and self.tier_policy == "managed":
            # A huge mapping must not span tiers under managed placement:
            # chunks holding slow-resident pages stay 4 KiB-mapped until
            # MIGRATE_HOT pulls them up.  (Unmanaged mode interleaves
            # freely — there the hardware, not the kernel, owns placement.)
            pages = pt.chunk_pages(chunks)
            has_slow = (
                (pt.tier[pages] != 0).reshape(-1, PAGES_PER_HUGE).any(axis=1)
            )
            chunks = chunks[~has_slow]
            if chunks.size == 0:
                return 0
        if self.oom_policy == "shed" and chunks.size:
            # promote_chunks mutates page state irreversibly, so under
            # shed pre-check the worst case (every subpage materialised)
            # and trim the chunk list to what frames can back.
            worst = int(chunks.size) * PAGES_PER_HUGE
            granted = self._free_after_reclaim(worst, now)
            if granted < worst:
                chunks = chunks[: granted // PAGES_PER_HUGE]
                self._enter_degraded("oom", now)
            if chunks.size == 0:
                return 0
        promoted, new_idx, n_swapped = pt.promote_chunks(chunks, now)
        if promoted.size == 0:
            return 0
        if new_idx.size:
            self._ensure_frames(new_idx.size, now)
            self._allocate_mapped(new_idx)
        if n_swapped:
            latency = self.swap.load(n_swapped)
            self.metrics.runtime.swapout_us += latency * _ASYNC_WRITE_SHARE
            self.metrics.pages_swapped_in += n_swapped
        self.metrics.thp_bloat_pages += int(new_idx.size)
        self.metrics.thp_promotions += int(promoted.size)
        self.metrics.runtime.thp_alloc_us += self.costs.thp_alloc_cost_us(
            int(promoted.size)
        )
        tr = self.trace
        if tr is not None:
            tr.emit(
                ThpPromotion(
                    time_us=tr.now,
                    promoted_chunks=int(promoted.size),
                    bloat_pages=int(new_idx.size),
                    swapped_in_pages=int(n_swapped),
                )
            )
        return int(promoted.size)

    def madvise_hugepage(self, start: int, end: int, now: int) -> int:
        """HUGEPAGE: promote every 2 MiB chunk fully inside the range that
        has at least one present page.  Returns promotions performed."""
        promotions = 0
        pt = self.space.flat
        for lo, hi in self.space.spans(start, end):
            chunk_lo, chunk_hi = pt.chunk_span(lo, hi, inner=True)
            if chunk_hi <= chunk_lo:
                continue
            huge = pt.chunk_huge[chunk_lo:chunk_hi]
            if huge.all():
                continue  # fast path: the whole span is already huge
            candidates = np.arange(chunk_lo, chunk_hi, dtype=np.int64)[~huge]
            pages = pt.chunk_pages(candidates)
            has_present = (
                pt.present[pages].reshape(-1, PAGES_PER_HUGE).any(axis=1)
            )
            promotions += self._promote(candidates[has_present], now)
        return promotions

    def madvise_nohugepage(self, start: int, end: int, now: int) -> int:
        """NOHUGEPAGE: demote huge chunks in the range; subpages untouched
        since promotion are freed (bloat recovery)."""
        demotions = 0
        pt = self.space.flat
        for lo, hi in self.space.spans(start, end):
            chunk_lo, chunk_hi = pt.chunk_span(lo, hi, inner=False)
            if chunk_hi <= chunk_lo:
                continue
            if not pt.chunk_huge[chunk_lo:chunk_hi].any():
                continue  # fast path: nothing huge in the span
            demoted, freed_idx, frames = pt.demote_chunks(np.arange(chunk_lo, chunk_hi), now)
            if freed_idx.size:
                self.frames.release(frames)
                self.metrics.thp_freed_pages += int(freed_idx.size)
            self.metrics.thp_demotions += int(demoted.size)
            demotions += int(demoted.size)
        return demotions

    # ------------------------------------------------------------------
    # khugepaged (thp=always path)
    # ------------------------------------------------------------------
    def khugepaged_scan(self, now: int):
        """One khugepaged pass; charges huge-page allocation latency and
        allocates frames for the bloat pages."""
        if self.thp_policy.mode != "always":
            return {"promotions": 0, "bloat_pages": 0}
        result = {"promotions": 0, "bloat_pages": 0}
        threshold = self.thp_policy.min_present_pages
        flat = self.space.flat
        if flat.n_chunks == 0:
            return result
        # Eligibility is one whole-table pass; promotion stays per VMA
        # segment (its frame/swap settlement and reclaim are per call).
        eligible = (flat.chunk_present_counts() >= threshold) & ~flat.chunk_huge
        if not eligible.any():
            return result
        for _, c, nc in flat.segment_bounds():
            chunks = np.nonzero(eligible[c : c + nc])[0] + c
            if chunks.size == 0:
                continue
            bloat_before = self.metrics.thp_bloat_pages
            result["promotions"] += self._promote(chunks, now)
            result["bloat_pages"] += self.metrics.thp_bloat_pages - bloat_before
            # The promotion's reclaim may have moved pages of the later
            # segments: recount them.
            eligible = (flat.chunk_present_counts() >= threshold) & ~flat.chunk_huge
        return result

    # ------------------------------------------------------------------
    # Monitoring hooks
    # ------------------------------------------------------------------
    def _probe(self, keys: np.ndarray, window_us: float, phys: bool, write: bool) -> np.ndarray:
        """P(bit set) per sample over ``window_us``: the accessed bit, or
        with ``write`` the dirty bit.  ``keys`` are virtual addresses, or
        with ``phys`` frame numbers resolved through the rmap.  A sample
        with no PTE behind it (unmapped address, free frame) reads as
        never set."""
        idx = self.frames.owners(keys) if phys else self.space.resolve(keys)
        known = idx >= 0
        probs = np.zeros(len(keys), dtype=np.float64)
        if known.any():
            flat = self.space.flat
            read = flat.write_probability if write else flat.access_probability
            probs[known] = read(idx[known], window_us)
        return probs

    def access_probabilities(self, addrs: np.ndarray, window_us: float) -> np.ndarray:
        """P(accessed bit set) per sample address over ``window_us``."""
        return self._probe(addrs, window_us, False, False)

    def write_probabilities(self, addrs: np.ndarray, window_us: float) -> np.ndarray:
        """P(dirty bit set) per sample address over ``window_us`` — the
        write channel of the monitoring hooks."""
        return self._probe(addrs, window_us, False, True)

    def frame_access_probabilities(self, frames: np.ndarray, window_us: float) -> np.ndarray:
        """Physical-space variant: resolve frames through the rmap."""
        return self._probe(frames, window_us, True, False)

    def frame_write_probabilities(self, frames: np.ndarray, window_us: float) -> np.ndarray:
        """Physical-space write-probability variant (rmap-resolved)."""
        return self._probe(frames, window_us, True, True)

    def charge_monitor_checks(self, n_checks: int, wakeups: int = 1) -> None:
        """Account CPU time for ``wakeups`` kdamond wakeups, each
        performing ``n_checks`` accessed-bit checks, and pass the
        interference share on to the workload's runtime.

        Each wakeup is its own float ``+=``, in order: ``wakeups`` adds
        of one cost are not one add of ``wakeups`` times it."""
        cpu = self.costs.monitor_check_cost_us(n_checks, 1)
        interference = self.costs.interference_us(cpu)
        metrics = self.metrics
        runtime = metrics.runtime
        metrics.monitor_checks += n_checks * wakeups
        for _ in range(wakeups):
            metrics.monitor_cpu_us += cpu
            runtime.monitor_interference_us += interference

    # ------------------------------------------------------------------
    # Accounting views
    # ------------------------------------------------------------------
    def rss_bytes(self) -> int:
        """The workload's resident set size."""
        return self.space.resident_bytes()

    def system_bytes(self) -> int:
        """RSS plus the swap device's DRAM overhead (ZRAM store)."""
        return self.rss_bytes() + self.swap.dram_overhead_bytes()
