"""Pure invariant checkers over live simulation state.

Each checker takes the relevant layer object (kernel, monitor, engine),
inspects it **read-only**, and returns a list of :class:`Violation`
records — empty when the invariant holds.  They are the runtime
counterparts of the assertions in ``tests/test_properties_kernel.py``
and ``tests/test_properties_layout.py``: the property tests exercise
them under synthetic storms, the sanitizer runs them inside real
experiments at epoch boundaries.

Purity contract
---------------

Checkers never mutate simulation state and never consume RNG.  The one
deliberate exception is :func:`check_quota_sanity`, which calls
``Quota.remaining(now)`` — that rolls the quota window forward, which is
idempotent at a fixed ``now`` and is exactly what the engine's next
apply pass would do first; byte-identity of run results is preserved.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, List, Optional

import numpy as np

from ..errors import MonitorStateError
from ..sim.pagetable import PAGES_PER_HUGE

__all__ = [
    "Violation",
    "digest_fleet_state",
    "digest_kernel_state",
    "digest_region_state",
    "check_fleet_state",
    "check_frame_conservation",
    "check_tier_placement",
    "frame_counts_agree",
    "check_present_swapped",
    "check_counter_coherence",
    "check_huge_residency",
    "check_region_state",
    "check_quota_sanity",
]


@dataclass(frozen=True)
class Violation:
    """One invariant breach found by a checker.

    ``digest`` is a short content hash of the offending layer's state at
    detection time, so two reports can be compared across runs (same
    digest = the corruption happened identically, a reproducible bug;
    different digests under one seed = nondeterminism on top).
    """

    #: Stable checker name (``frame_conservation``, ``region_tiling``, …).
    check: str
    #: Human-readable description with the observed vs. expected values.
    message: str
    #: Simulation time at the checkpoint that caught it.
    time_us: int
    #: 12-hex-digit state digest of the checked layer.
    digest: str
    #: Epoch ordinal at the kernel checkpoint, when known.
    epoch: Optional[int] = field(default=None)

    def __str__(self) -> str:
        where = f" (epoch {self.epoch})" if self.epoch is not None else ""
        return f"[{self.check}]{where} t={self.time_us}us {self.message} digest={self.digest}"


def digest_kernel_state(kernel: Any) -> str:
    """Content hash of the kernel's authoritative page/frame state.

    The ``digest_*_state`` hashes read raw live NumPy columns mid-run,
    not result values, so they are not a
    :func:`~repro.sweep.serialize.fingerprint`.
    """
    flat = kernel.space.flat
    h = hashlib.sha256()
    for column in (
        flat.present,
        flat.swapped,
        flat.dirty,
        flat.frame,
        flat.last_touch,
        flat.chunk_huge,
    ):
        h.update(column.tobytes())
    h.update(int(kernel.frames.allocated).to_bytes(8, "little", signed=True))
    h.update(int(kernel.swap.used_pages).to_bytes(8, "little", signed=True))
    return h.hexdigest()[:12]


def digest_region_state(monitor: Any) -> str:
    """Content hash of the monitor's region table."""
    ra = monitor.regions
    h = hashlib.sha256()
    for column in (ra.start, ra.end, ra.nr_accesses, ra.age):
        h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()[:12]


def _kernel_violation(
    kernel: Any, check: str, message: str, now: int
) -> Violation:
    return Violation(
        check=check, message=message, time_us=int(now), digest=digest_kernel_state(kernel)
    )


# ----------------------------------------------------------------------
# Kernel-layer checkers
# ----------------------------------------------------------------------
def check_frame_conservation(kernel: Any, now: int) -> List[Violation]:
    """Frames are conserved and the rmap is coherent.

    * ``allocated + free == total``;
    * the allocator's live set is exactly the present-and-framed pages;
    * every owned frame's rmap entry points back at a present page whose
      ``frame`` column names that frame.
    """
    out: List[Violation] = []
    frames = kernel.frames
    # The free count splits across the two pools (the slow one is empty
    # on a flat machine).
    free_slow = frames.free_slow_frames()
    if frames.allocated + frames.free_frames() + free_slow != frames.n_frames:
        out.append(
            _kernel_violation(
                kernel,
                "frame_conservation",
                f"allocated ({frames.allocated}) + free ({frames.free_frames()}"
                f" fast + {free_slow} slow) != total frames ({frames.n_frames})",
                now,
            )
        )
    live = frames.allocated_frames()
    if live.size != frames.allocated:
        out.append(
            _kernel_violation(
                kernel,
                "frame_conservation",
                f"free-stack live set has {live.size} frames but the "
                f"allocated counter says {frames.allocated}",
                now,
            )
        )
        # The counter and the stack disagree; the rmap cross-checks
        # below would only repeat the same corruption.
        return out
    back = frames.owners(live)
    if (back < 0).any():
        n_orphans = int(np.count_nonzero(back < 0))
        out.append(
            _kernel_violation(
                kernel,
                "frame_conservation",
                f"{n_orphans} live frame(s) have no rmap owner",
                now,
            )
        )
        return out

    flat = kernel.space.flat
    framed = flat.present & (flat.frame >= 0)
    n_framed = int(np.count_nonzero(framed))
    if n_framed != frames.allocated:
        out.append(
            _kernel_violation(
                kernel,
                "frame_conservation",
                f"{n_framed} present-and-framed page(s) vs "
                f"{frames.allocated} allocated frame(s)",
                now,
            )
        )
    if live.size:
        if (back >= flat.n_pages).any():
            n_stale = int(np.count_nonzero(back >= flat.n_pages))
            out.append(
                _kernel_violation(
                    kernel,
                    "frame_conservation",
                    f"{n_stale} frame(s) owned by a page past the page table",
                    now,
                )
            )
        else:
            broken = ~flat.present[back] | (flat.frame[back] != live)
            if broken.any():
                out.append(
                    _kernel_violation(
                        kernel,
                        "frame_conservation",
                        "rmap back-pointers do not round-trip: "
                        f"{int(np.count_nonzero(broken))} live frame(s) whose "
                        "owner entry names a page that is not present or "
                        "whose frame column names another frame",
                        now,
                    )
                )
    return out


def check_tier_placement(kernel: Any, now: int) -> List[Violation]:
    """Tier occupancy is conserved and no page sits in two tiers.

    * a present page's ``tier`` column agrees with the tier of the frame
      that backs it (frame numbers encode tier: slow frames live at
      ``[n_fast_frames, n_frames)``);
    * non-present pages carry no tier mark (``tier == 0``);
    * the page tables' slow-resident count equals the frame allocator's
      ``allocated_slow`` counter.

    A flat machine passes trivially: every frame is fast and every
    ``tier`` entry stays 0.
    """
    out: List[Violation] = []
    frames = kernel.frames
    flat = kernel.space.flat

    framed = flat.present & (flat.frame >= 0)
    if framed.any():
        idx = np.flatnonzero(framed)
        mismatch = (flat.tier[idx] != 0) != (flat.frame[idx] >= frames.n_fast_frames)
        if mismatch.any():
            out.append(
                _kernel_violation(
                    kernel,
                    "tier_placement",
                    f"{int(np.count_nonzero(mismatch))} present page(s) whose "
                    "tier column disagrees with the backing frame's tier",
                    now,
                )
            )
    stray = ~flat.present & (flat.tier != 0)
    if stray.any():
        out.append(
            _kernel_violation(
                kernel,
                "tier_placement",
                f"{int(np.count_nonzero(stray))} non-present page(s) still "
                "carry a slow-tier mark",
                now,
            )
        )
    slow_resident = int(np.count_nonzero(flat.present & (flat.tier != 0)))
    allocated_slow = int(frames.allocated_slow)
    if slow_resident != allocated_slow:
        out.append(
            _kernel_violation(
                kernel,
                "tier_placement",
                f"{slow_resident} slow-resident page(s) in the page tables vs "
                f"allocated_slow == {allocated_slow}",
                now,
            )
        )
    return out


def frame_counts_agree(kernel: Any) -> bool:
    """The counts :func:`check_frame_conservation` and
    :func:`check_tier_placement` rest on, without deriving the live set:
    the pools add up, the page table's resident counter equals the
    allocated frames, and the slow-tier marks ``allocated_slow``
    (a stray mark on a non-present page counts, and so is seen here).

    O(1) plus one pass over the int8 ``tier`` column.  The resident
    counter is itself checked against a fresh count every epoch
    (:func:`check_counter_coherence`), so a page that changes residency
    without its frame operation breaks an identity here in its own
    epoch.  Writes no report: a ``False`` sends the caller to the two
    checkers above, whose names and messages are the known ones.
    """
    frames = kernel.frames
    if frames.allocated + frames.free_frames() + frames.free_slow_frames() != frames.n_frames:
        return False
    if kernel.space.flat.n_present != frames.allocated:
        return False
    return int(np.count_nonzero(kernel.space.flat.tier)) == frames.allocated_slow


def check_present_swapped(kernel: Any, now: int) -> List[Violation]:
    """No page is present and swapped at once, and the swap device's
    usage counter equals the swapped page count."""
    out: List[Violation] = []
    flat = kernel.space.flat
    both = flat.present & flat.swapped
    if both.any():
        out.append(
            _kernel_violation(
                kernel,
                "present_swapped_exclusivity",
                f"{int(np.count_nonzero(both))} page(s) are present and "
                "swapped simultaneously",
                now,
            )
        )
    swapped = int(np.count_nonzero(flat.swapped))
    if swapped != kernel.swap.used_pages:
        out.append(
            _kernel_violation(
                kernel,
                "present_swapped_exclusivity",
                f"{swapped} swapped page(s) in the page tables vs "
                f"swap.used_pages == {kernel.swap.used_pages}",
                now,
            )
        )
    return out


def check_counter_coherence(kernel: Any, now: int) -> List[Violation]:
    """The page table's O(1) resident/swapped counters equal a fresh
    count of the underlying columns."""
    out: List[Violation] = []
    flat = kernel.space.flat
    for counter, column, state in (
        ("n_present", flat.present, "present"),
        ("n_swapped", flat.swapped, "swapped"),
    ):
        fresh = int(np.count_nonzero(column))
        if getattr(flat, counter) != fresh:
            out.append(
                _kernel_violation(
                    kernel,
                    "counter_coherence",
                    f"{counter} == {getattr(flat, counter)} but {fresh} "
                    f"page(s) are {state}",
                    now,
                )
            )
    return out


def check_huge_residency(kernel: Any, now: int) -> List[Violation]:
    """Huge-mapped chunks are fully resident (every subpage present)."""
    flat = kernel.space.flat
    if not flat.n_chunks or not flat.chunk_huge.any():
        return []
    counts = flat.chunk_present_counts()
    partial = flat.chunk_huge & (counts != PAGES_PER_HUGE)
    if not partial.any():
        return []
    return [
        _kernel_violation(
            kernel,
            "huge_residency",
            f"{int(np.count_nonzero(partial))} huge chunk(s) are not fully "
            f"resident (expected {PAGES_PER_HUGE} present subpages each)",
            now,
        )
    ]


# ----------------------------------------------------------------------
# Monitor-layer checker
# ----------------------------------------------------------------------
def check_region_state(monitor: Any, now: int) -> List[Violation]:
    """The region table's structural invariants hold: regions are
    well-formed, at least ``MIN_REGION_SIZE``, non-overlapping, and —
    when the layout is stable — tile the target ranges byte for byte."""
    try:
        monitor.check_invariants()
    except MonitorStateError as exc:
        return [
            Violation(
                check="region_tiling",
                message=str(exc),
                time_us=int(now),
                digest=digest_region_state(monitor),
            )
        ]
    return []


# ----------------------------------------------------------------------
# Engine-layer checker
# ----------------------------------------------------------------------
def check_quota_sanity(engine: Any, now: int) -> List[Violation]:
    """Every limited quota's charge sits inside ``[0, size_bytes]``.

    The engine clamps each apply batch to the remaining budget, so a
    charge past the window's budget (or below zero) means the clamp or
    the window roll went wrong.
    """
    out: List[Violation] = []
    for index, scheme in enumerate(engine.schemes):
        quota = scheme.quota
        if quota is None or not quota.limited:
            continue
        charged = quota._charged
        if 0 <= charged <= quota.size_bytes:
            continue
        out.append(
            Violation(
                check="quota_sanity",
                message=(
                    f"scheme #{index}: quota charged {charged} byte(s), "
                    f"outside [0, {quota.size_bytes}]"
                ),
                time_us=int(now),
                digest=f"{charged & 0xFFFFFFFFFFFF:012x}",
            )
        )
    return out


# ----------------------------------------------------------------------
# Fleet-layer checkers
# ----------------------------------------------------------------------
def digest_fleet_state(scheduler: Any) -> str:
    """Content hash of the fleet's region occupancy state."""
    h = hashlib.sha256()
    for column in (
        scheduler.resident,
        scheduler.swapped,
        scheduler.last_touch,
        scheduler.table.nr_accesses,
        scheduler.table.age_us,
    ):
        h.update(np.ascontiguousarray(column).tobytes())
    h.update(int(scheduler.pool.allocated).to_bytes(8, "little", signed=True))
    h.update(int(scheduler.swap_device.used_pages).to_bytes(8, "little", signed=True))
    return h.hexdigest()[:12]


def check_fleet_state(scheduler: Any, now: int) -> List[Violation]:
    """Fleet conservation: the shared pool, swap slots and per-region
    occupancy must agree after every tick.

    * pool frames are conserved: ``pool.allocated == Σ resident``;
    * swap slots are conserved: ``swap.used_pages == Σ swapped``;
    * no region overflows: ``0 <= resident + swapped <= size`` per row;
    * the pool never overdrafts its capacity;
    * a region observed accessed this aggregation has age 0.
    """
    out: List[Violation] = []

    def bad(check: str, message: str) -> None:
        out.append(
            Violation(
                check=check,
                message=message,
                time_us=int(now),
                digest=digest_fleet_state(scheduler),
            )
        )

    resident_total = int(scheduler.resident.sum())
    if resident_total != scheduler.pool.allocated:
        bad(
            "fleet_pool_conservation",
            f"pool allocated={scheduler.pool.allocated} but regions hold {resident_total}",
        )
    if scheduler.pool.allocated > scheduler.pool.capacity_frames:
        bad(
            "fleet_pool_capacity",
            f"allocated {scheduler.pool.allocated} frames of "
            f"{scheduler.pool.capacity_frames} capacity",
        )
    swapped_total = int(scheduler.swapped.sum())
    if swapped_total != scheduler.swap_device.used_pages:
        bad(
            "fleet_swap_conservation",
            f"swap used_pages={scheduler.swap_device.used_pages} but regions "
            f"hold {swapped_total}",
        )
    occupancy = scheduler.resident + scheduler.swapped
    if scheduler.resident.size and (
        int(scheduler.resident.min()) < 0 or int(scheduler.swapped.min()) < 0
    ):
        bad("fleet_region_occupancy", "negative resident or swapped page count")
    over = np.nonzero(occupancy > scheduler.table.size_pages)[0]
    if over.size:
        r = int(over[0])
        bad(
            "fleet_region_occupancy",
            f"region {r} holds {int(occupancy[r])} pages of "
            f"{int(scheduler.table.size_pages[r])} ({over.size} region(s) affected)",
        )
    hot_aged = np.nonzero(
        (scheduler.table.nr_accesses > 0) & (scheduler.table.age_us > 0)
    )[0]
    if hot_aged.size:
        r = int(hot_aged[0])
        bad(
            "fleet_monitor_age",
            f"region {r} has nr_accesses={int(scheduler.table.nr_accesses[r])} "
            f"but age={int(scheduler.table.age_us[r])}us",
        )
    return out
