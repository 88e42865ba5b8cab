"""The tiered-memory backend: two-pool frames, migration, demotion.

The contract under test, end to end:

* the :class:`FrameTable` two-pool split — fast frames precede slow
  frames, ``allocated`` stays the cross-tier total, and frame numbers
  alone encode tier;
* ``migrate_cold`` / ``migrate_hot`` (the MIGRATE_* scheme back-ends)
  move resident pages between tiers, capped by slow-tier room and the
  DRAM high watermark respectively, and are no-ops on a flat machine;
* reclaim **demotes before it swaps**: while the slow tier has free
  frames, DRAM pressure moves pages down instead of out (the ISSUE's
  acceptance criterion), and swap only takes the overflow;
* the unmanaged policy spills faults into the slow tier and never
  migrates — the Memos-style baseline;
* the sanitizer's tier checkers hold on live kernels and actually fire
  on corrupted ones;
* a seeded tiered experiment is byte-identical across runs, sanitizer
  attached.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AddressSpaceError, ConfigError
from repro.fleet import FleetConfig, FleetScheduler, run_fleet_naive
from repro.runner.configs import ExperimentConfig
from repro.runner.experiment import ExperimentRun, build_machine
from repro.sanitize.checkers import check_frame_conservation, check_tier_placement
from repro.schemes.actions import Action, apply_action
from repro.sim.kernel import SimKernel
from repro.sim.machine import GuestSpec, TierSpec, get_instance, scaled_instance
from repro.sim.pagetable import PAGE_SIZE
from repro.sim.physmem import FrameTable
from repro.sim.swap import ZramDevice
from repro.trace import TraceBus
from repro.trace.events import TierMigration
from repro.units import MIB, MSEC, SEC
from repro.workloads.base import WorkloadSpec
from repro.workloads.patterns import ColdInit

from tests.helpers import BASE, traced_run

EPOCH = 100 * MSEC


def make_tier(capacity=64 * MIB):
    return TierSpec(
        name="test-tier",
        capacity_bytes=capacity,
        access_latency_ns=300.0,
        read_us=0.5,
        write_us=1.5,
    )


def tiered_kernel(dram=16 * MIB, slow=64 * MIB, policy="managed", seed=7):
    guest = GuestSpec(
        host=get_instance("i3.metal"),
        vcpus=4,
        dram_bytes=dram,
        slow_tier=make_tier(slow),
    )
    return SimKernel(guest, swap=ZramDevice(64 * MIB), seed=seed, tier_policy=policy)


def touch(kernel, start, end, now=0):
    kernel.apply_access(start, end, now=now, epoch_us=EPOCH)


def assert_clean(kernel):
    """The tier invariants hold on this live kernel."""
    assert check_frame_conservation(kernel, 0) == []
    assert check_tier_placement(kernel, 0) == []


# ----------------------------------------------------------------------
# FrameTable: the two-pool allocator
# ----------------------------------------------------------------------
class TestFrameTableTwoPool:
    def test_pools_partition_the_frame_space(self):
        ft = FrameTable(4 * MIB, 8 * MIB)
        assert ft.n_fast_frames == 4 * MIB // PAGE_SIZE
        assert ft.n_slow_frames == 8 * MIB // PAGE_SIZE
        assert ft.n_frames == ft.n_fast_frames + ft.n_slow_frames
        # A frame's tier is its number's side of the split.
        fast = ft.allocate(ft.n_fast_frames, np.arange(ft.n_fast_frames))
        slow = ft.allocate_slow(ft.n_slow_frames, np.arange(ft.n_slow_frames))
        assert np.array_equal(np.sort(fast), np.arange(ft.n_fast_frames))
        assert np.array_equal(np.sort(slow), np.arange(ft.n_fast_frames, ft.n_frames))

    def test_fast_and_slow_allocations_are_disjoint(self):
        ft = FrameTable(4 * MIB, 8 * MIB)
        fast = ft.allocate(10, np.arange(10))
        slow = ft.allocate_slow(10, np.arange(10, 20))
        assert fast.max() < ft.n_fast_frames
        assert slow.min() >= ft.n_fast_frames
        assert ft.allocated == 20
        assert ft.allocated_slow == 10
        assert ft.fast_allocated == 10

    def test_conservation_across_both_pools(self):
        ft = FrameTable(4 * MIB, 8 * MIB)
        ft.allocate(7, np.arange(7))
        ft.allocate_slow(5, np.arange(7, 12))
        assert ft.allocated + ft.free_frames() + ft.free_slow_frames() == ft.n_frames

    def test_release_returns_frames_to_their_own_pool(self):
        ft = FrameTable(4 * MIB, 8 * MIB)
        fast = ft.allocate(4, np.arange(4))
        slow = ft.allocate_slow(4, np.arange(4, 8))
        free_fast, free_slow = ft.free_frames(), ft.free_slow_frames()
        ft.release(np.concatenate([fast, slow]))
        assert ft.free_frames() == free_fast + 4
        assert ft.free_slow_frames() == free_slow + 4
        assert ft.allocated == 0 and ft.allocated_slow == 0
        # Recycled frames come back from the same pool they left.
        assert ft.allocate(4, np.arange(4)).max() < ft.n_fast_frames
        assert ft.allocate_slow(4, np.arange(4, 8)).min() >= ft.n_fast_frames

    def test_slow_pool_exhaustion_raises(self):
        ft = FrameTable(4 * MIB, PAGE_SIZE)
        ft.allocate_slow(1, np.arange(1))
        with pytest.raises(AddressSpaceError):
            ft.allocate_slow(1, np.arange(1, 2))

    def test_flat_table_has_no_slow_pool(self):
        ft = FrameTable(4 * MIB)
        assert ft.n_slow_frames == 0
        assert ft.free_slow_frames() == 0
        assert ft.free_frames() == ft.n_frames


# ----------------------------------------------------------------------
# migrate_cold / migrate_hot
# ----------------------------------------------------------------------
class TestMigrationOps:
    def test_cold_then_hot_roundtrip(self):
        k = tiered_kernel()
        k.mmap(BASE, 8 * MIB)
        touch(k, BASE, BASE + 8 * MIB)
        n = 8 * MIB // PAGE_SIZE

        demoted = k.migrate_cold(BASE, BASE + 8 * MIB, now=EPOCH)
        assert demoted == n
        flat = k.space.flat
        resident = flat.present & (flat.tier != 0)
        assert int(np.count_nonzero(resident)) == n
        assert (flat.frame[resident] >= k.frames.n_fast_frames).all()
        assert k.frames.allocated_slow == n
        assert k.metrics.pages_demoted == n
        assert k.metrics.runtime.tier_migration_us > 0
        assert_clean(k)

        promoted = k.migrate_hot(BASE, BASE + 8 * MIB, now=2 * EPOCH)
        assert promoted == n
        assert not (flat.present & (flat.tier != 0)).any()
        assert k.frames.allocated_slow == 0
        assert k.metrics.pages_promoted == n
        assert_clean(k)

    def test_flat_machine_is_a_noop(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        touch(kernel, BASE, BASE + 4 * MIB)
        assert kernel.migrate_cold(BASE, BASE + 4 * MIB, now=0) == 0
        assert kernel.migrate_hot(BASE, BASE + 4 * MIB, now=0) == 0
        assert kernel.metrics.pages_demoted == 0
        assert kernel.metrics.pages_promoted == 0

    def test_cold_capped_by_slow_room(self):
        k = tiered_kernel(slow=MIB)
        k.mmap(BASE, 8 * MIB)
        touch(k, BASE, BASE + 8 * MIB)
        assert k.migrate_cold(BASE, BASE + 8 * MIB, now=0) == MIB // PAGE_SIZE
        assert k.frames.free_slow_frames() == 0
        # The tier is full: another pass moves nothing.
        assert k.migrate_cold(BASE, BASE + 8 * MIB, now=EPOCH) == 0
        assert_clean(k)

    def test_hot_stops_at_the_high_watermark(self):
        k = tiered_kernel()
        k.mmap(BASE, 24 * MIB)
        touch(k, BASE, BASE + 8 * MIB)
        assert k.migrate_cold(BASE, BASE + 8 * MIB, now=0) == 8 * MIB // PAGE_SIZE
        # Fill DRAM to just under capacity so promotion headroom is thin.
        touch(k, BASE + 8 * MIB, BASE + 20 * MIB, now=EPOCH)
        frames = k.frames
        high = k.watermarks.high_frames(frames.n_fast_frames)
        room = max(0, high - frames.fast_allocated)
        assert room < 8 * MIB // PAGE_SIZE  # the gate is actually binding
        promoted = k.migrate_hot(BASE, BASE + 8 * MIB, now=2 * EPOCH)
        assert promoted == room
        assert frames.fast_allocated <= high
        assert_clean(k)

    def test_migration_counts_on_the_trace_bus(self):
        bus = TraceBus(ring_capacity=0)
        guest = GuestSpec(
            host=get_instance("i3.metal"),
            vcpus=4,
            dram_bytes=16 * MIB,
            slow_tier=make_tier(),
        )
        k = SimKernel(guest, swap=ZramDevice(64 * MIB), seed=7, trace=bus)
        k.mmap(BASE, 4 * MIB)
        touch(k, BASE, BASE + 4 * MIB)
        k.migrate_cold(BASE, BASE + 4 * MIB, now=0)
        k.migrate_hot(BASE, BASE + 4 * MIB, now=EPOCH)
        assert bus.counts.get(TierMigration.kind, 0) == 2

    def test_scheme_actions_dispatch_to_the_kernel_ops(self):
        k = tiered_kernel()
        k.mmap(BASE, 4 * MIB)
        touch(k, BASE, BASE + 4 * MIB)
        assert Action.parse("migrate_cold") is Action.MIGRATE_COLD
        assert Action.parse("migrate_hot") is Action.MIGRATE_HOT
        moved = apply_action(k, Action.MIGRATE_COLD, BASE, BASE + 4 * MIB, 0)
        assert moved == 4 * MIB
        assert apply_action(k, Action.MIGRATE_HOT, BASE, BASE + 4 * MIB, 0) == 4 * MIB


# ----------------------------------------------------------------------
# Reclaim policy: demote before swap; unmanaged spills
# ----------------------------------------------------------------------
class TestDemoteBeforeSwap:
    def test_pressure_demotes_instead_of_swapping(self):
        """The acceptance criterion: while the slow tier has room, no
        page reaches swap."""
        k = tiered_kernel(dram=16 * MIB, slow=64 * MIB)
        k.mmap(BASE, 48 * MIB)
        for i in range(6):
            touch(k, BASE + i * 8 * MIB, BASE + (i + 1) * 8 * MIB, now=i * EPOCH)
        assert k.metrics.pages_demoted > 0
        assert k.metrics.pages_swapped_out == 0
        assert k.swap.used_pages == 0
        assert k.frames.free_slow_frames() > 0
        # Everything is still resident, just spread across tiers.
        flat = k.space.flat
        assert int(np.count_nonzero(flat.present)) == 48 * MIB // PAGE_SIZE
        assert_clean(k)

    def test_swap_takes_the_overflow_once_the_tier_fills(self):
        k = tiered_kernel(dram=16 * MIB, slow=8 * MIB)
        k.mmap(BASE, 48 * MIB)
        for i in range(6):
            touch(k, BASE + i * 8 * MIB, BASE + (i + 1) * 8 * MIB, now=i * EPOCH)
        assert k.frames.free_slow_frames() == 0
        assert k.metrics.pages_demoted == 8 * MIB // PAGE_SIZE
        assert k.metrics.pages_swapped_out > 0
        assert_clean(k)

    def test_reclaim_never_victimises_slow_pages(self):
        """Managed demotion moves DRAM pages down; pages already in the
        slow tier stay put under further DRAM pressure."""
        k = tiered_kernel(dram=16 * MIB, slow=64 * MIB)
        k.mmap(BASE, 32 * MIB)
        for i in range(4):
            touch(k, BASE + i * 8 * MIB, BASE + (i + 1) * 8 * MIB, now=i * EPOCH)
        demoted_once = k.metrics.pages_demoted
        assert demoted_once > 0
        slow_before = k.space.flat.frame[k.space.flat.tier != 0].copy()
        touch(k, BASE, BASE + 8 * MIB, now=5 * EPOCH)
        touch(k, BASE + 8 * MIB, BASE + 16 * MIB, now=6 * EPOCH)
        slow_now = k.space.flat.frame[k.space.flat.tier != 0]
        # Slow residency can only have grown; earlier demotions were not
        # re-victimised into swap.
        assert k.metrics.pages_swapped_out == 0
        assert np.isin(slow_before, slow_now).all() or k.metrics.pages_promoted > 0
        assert_clean(k)


class TestUnmanagedSpill:
    def test_faults_spill_and_nothing_migrates(self):
        k = tiered_kernel(dram=16 * MIB, slow=64 * MIB, policy="unmanaged")
        k.mmap(BASE, 48 * MIB)
        for i in range(6):
            touch(k, BASE + i * 8 * MIB, BASE + (i + 1) * 8 * MIB, now=i * EPOCH)
        assert k.frames.allocated_slow > 0
        assert k.metrics.pages_demoted == 0
        assert k.metrics.pages_promoted == 0
        assert k.metrics.pages_swapped_out == 0
        assert_clean(k)

    def test_spill_keeps_first_touch_placement(self):
        """Whatever faulted first owns DRAM — the stranding the managed
        policy exists to fix."""
        k = tiered_kernel(dram=16 * MIB, slow=64 * MIB, policy="unmanaged")
        k.mmap(BASE, 32 * MIB)
        touch(k, BASE, BASE + 32 * MIB)
        flat = k.space.flat
        first = flat.present & (flat.tier == 0)
        assert int(np.count_nonzero(first)) == k.frames.n_fast_frames
        # Re-touching the spilled half moves nothing in unmanaged mode.
        spilled = (flat.tier != 0).copy()
        touch(k, BASE + 16 * MIB, BASE + 32 * MIB, now=EPOCH)
        assert (flat.tier[spilled] != 0).all()
        assert k.metrics.pages_promoted == 0
        assert_clean(k)

    def test_scheme_migrations_are_noops_when_unmanaged(self):
        """``--tier-policy unmanaged`` "only spills faults": the MIGRATE_*
        actions move nothing in either direction, even with room."""
        k = tiered_kernel(dram=16 * MIB, slow=64 * MIB, policy="unmanaged")
        k.mmap(BASE, 24 * MIB)
        touch(k, BASE, BASE + 24 * MIB)
        assert k.frames.allocated_slow > 0 and k.frames.free_slow_frames() > 0
        tier_before = k.space.flat.tier.copy()
        assert apply_action(k, Action.MIGRATE_COLD, BASE, BASE + 24 * MIB, now=1) == 0
        # Free DRAM so a promotion would have room below the watermark.
        k.pageout(BASE, BASE + 8 * MIB, now=2)
        tier_before[: 8 * MIB // PAGE_SIZE] = 0
        assert apply_action(k, Action.MIGRATE_HOT, BASE, BASE + 24 * MIB, now=3) == 0
        assert (k.space.flat.tier == tier_before).all()
        assert k.metrics.pages_demoted == 0 and k.metrics.pages_promoted == 0
        assert_clean(k)


    def test_nohugepage_clears_the_tier_mark_of_the_bloat_it_frees(self):
        """A promoted chunk's untouched subpages can sit in the slow tier
        under the unmanaged policy; NOHUGEPAGE frees them, frame and
        tier mark both (sanitized: every epoch checks tier placement)."""
        ethp = ExperimentConfig(
            name="ethp-unmanaged",
            monitor="vaddr",
            thp_mode="madvise",
            schemes_text=(
                "min max 1 max min max hugepage\n2M max min min 1s max nohugepage\n"
            ),
        )
        run = ExperimentRun(
            "splash2x/ocean_ncp",
            config=ethp,
            machine=scaled_instance("i3.metal", dram_scale=1 / 256),
            tier="cxl-dram",
            tier_scale=0.02,
            tier_policy="unmanaged",
            time_scale=0.02,
            seed=0,
            sanitize=True,
        )
        run.start()
        run.run_until(run.spec.duration_us)
        kernel = run.tenant.kernel
        assert kernel.metrics.thp_freed_pages > 0 and kernel.frames.allocated_slow > 0
        assert run.tenant.sanitizer.violations == []
        assert_clean(kernel)


# ----------------------------------------------------------------------
# Sanitizer: the tier checkers fire on corruption
# ----------------------------------------------------------------------
class TestTierSanitizer:
    def _pressured(self):
        k = tiered_kernel(dram=16 * MIB, slow=64 * MIB)
        k.mmap(BASE, 32 * MIB)
        for i in range(4):
            touch(k, BASE + i * 8 * MIB, BASE + (i + 1) * 8 * MIB, now=i * EPOCH)
        assert k.metrics.pages_demoted > 0
        return k

    def test_live_kernel_is_clean(self):
        assert_clean(self._pressured())

    def test_tier_column_mismatch_detected(self):
        k = self._pressured()
        flat = k.space.flat
        idx = int(np.nonzero(flat.present & (flat.tier == 0))[0][0])
        flat.tier[idx] = 1  # claims slow residency, frame says DRAM
        assert check_tier_placement(k, 0) != []

    def test_stray_tier_mark_on_nonpresent_page_detected(self):
        k = self._pressured()
        k.mmap(BASE + 64 * MIB, MIB)  # mapped but never touched
        flat = k.space.flat
        idx = int(np.nonzero(~flat.present)[0][0])
        flat.tier[idx] = 1
        assert check_tier_placement(k, 0) != []

    def test_slow_count_drift_detected(self):
        k = self._pressured()
        k.frames.allocated_slow += 1
        assert (
            check_tier_placement(k, 0) != [] or check_frame_conservation(k, 0) != []
        )

    def test_flat_kernel_skips_tier_checks(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        touch(kernel, BASE, BASE + 4 * MIB)
        assert check_tier_placement(kernel, 0) == []


# ----------------------------------------------------------------------
# Determinism: seeded tiered runs are byte-identical, sanitizer on
# ----------------------------------------------------------------------
#: 32 MiB footprint against a 16 MiB-DRAM guest with a 64 MiB slow
#: tier: cold init overruns DRAM, so reclaim demotes from the start.
_DET_WORKLOAD = WorkloadSpec(
    name="tiering-determinism",
    suite="test",
    footprint=32 * MIB,
    duration_us=2 * SEC,
    components=(ColdInit(offset=0, size=32 * MIB, init_us=1 * SEC),),
)


def _traced_tiered_run():
    return traced_run(
        workload=_DET_WORKLOAD,
        machine=scaled_instance("i3.metal", dram_scale=1 / 2048),
        tier="cxl-dram",
        tier_scale=1 / 4096,
        seed=11,
        sanitize=True,
    )


class TestTieredDeterminism:
    def test_same_seed_byte_identical_trace(self):
        result_a, text_a = _traced_tiered_run()
        result_b, text_b = _traced_tiered_run()
        assert text_a == text_b
        assert result_a.trace_summary == result_b.trace_summary
        assert result_a.breakdown == result_b.breakdown

    def test_tiered_run_actually_migrates(self):
        result, _ = _traced_tiered_run()
        assert result.trace_summary["counts"].get(TierMigration.kind, 0) > 0
        assert result.breakdown["pages_demoted"] > 0
        assert result.breakdown["pages_swapped_out"] == 0


# ----------------------------------------------------------------------
# Builders, fleet gating
# ----------------------------------------------------------------------
class TestBuilders:
    def test_build_machine_threads_the_tier(self):
        mb = build_machine("i3.metal", tier="cxl-dram", tier_scale=1 / 4096)
        assert mb.guest.slow_tier is not None
        assert mb.guest.slow_tier.capacity_bytes == 64 * MIB
        assert mb.tier_policy == "managed"

    def test_build_machine_flat_by_default(self):
        assert build_machine("i3.metal").guest.slow_tier is None

    def test_bad_tier_policy_rejected(self):
        with pytest.raises(ConfigError):
            build_machine("i3.metal", tier="cxl-dram", tier_policy="bogus")
        # ... and by the kernel itself, where the value is read: a typo
        # must not become a third policy that neither spills nor migrates.
        with pytest.raises(ConfigError, match="mangaed"):
            tiered_kernel(policy="mangaed")

    def test_batched_fleet_rejects_tiers(self):
        cfg = FleetConfig(
            n_tenants=4,
            duration_s=10.0,
            footprint_mib=8,
            arrival_window_s=1.0,
            tier="cxl-dram",
        )
        with pytest.raises(ConfigError, match="naive"):
            FleetScheduler(cfg)

    def test_naive_fleet_threads_the_tier(self):
        cfg = FleetConfig(
            n_tenants=2,
            duration_s=5.0,
            footprint_mib=8,
            arrival_window_s=1.0,
            tier="cxl-dram",
            tier_scale=1 / 1024,
        )
        results = run_fleet_naive(cfg, limit=1)
        assert len(results) == 1
        assert "pages_demoted" in results[0].breakdown
