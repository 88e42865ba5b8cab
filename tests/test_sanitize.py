"""The SimSanitizer runtime: seeded state mutations must be caught.

Each mutation test corrupts one piece of redundant simulation state the
way a plausible kernel/monitor/engine bug would — a present bit cleared
without releasing its frame, a drifted O(1) counter, a region-table gap,
a quota charged past its window — and asserts the matching checker
reports it.  Clean state yields zero violations, a disabled sanitizer is
inert, and a sanitized run returns byte-identical results to an
unsanitized one (the overhead/identity contract the CI sanitizer job
enforces tree-wide).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import SanitizerError
from repro.monitor.attrs import MonitorAttrs
from repro.monitor.core import DataAccessMonitor
from repro.monitor.primitives import VirtualPrimitive
from repro.recovery import checkpoint_run, state_digest
from repro.runner.experiment import (
    ExperimentRun,
    build_machine,
    build_tenant,
    restore_run,
    run_experiment,
)
from repro.sanitize import SimSanitizer, default_enabled, set_default_enabled
from repro.sanitize import runtime as sanitize_runtime
from repro.sanitize.runtime import FULL_CHECK_EVERY
from repro.schemes.actions import Action
from repro.schemes.engine import SchemesEngine
from repro.schemes.quotas import Quota
from repro.schemes.scheme import AccessPattern, Scheme
from repro.sim.kernel import SimKernel
from repro.sim.machine import GuestSpec, get_instance
from repro.sim.pagetable import PAGES_PER_HUGE
from repro.sim.swap import ZramDevice
from repro.sim.thp import ThpPolicy
from repro.units import MIB, MSEC
from repro.workloads.registry import get_workload

BASE = 0x7F00_0000_0000
EPOCH = 100 * MSEC


def worked_kernel(sanitizer=None):
    """A kernel with interesting state: resident, swapped, and (after a
    khugepaged scan) huge-mapped pages."""
    guest = GuestSpec(host=get_instance("i3.metal"), vcpus=4, dram_bytes=64 * MIB)
    kernel = SimKernel(
        guest,
        swap=ZramDevice(32 * MIB),
        thp=ThpPolicy(mode="always"),
        seed=7,
        oom_policy="shed",
        sanitizer=sanitizer,
    )
    kernel.mmap(BASE, 32 * MIB)
    kernel.apply_access(BASE, BASE + 16 * MIB, 0, EPOCH, write_fraction=0.5)
    kernel.pageout(BASE + 8 * MIB, BASE + 12 * MIB, EPOCH)
    kernel.khugepaged_scan(EPOCH)
    kernel.end_epoch(EPOCH, compute_us=70_000)
    kernel.begin_epoch()
    return kernel


def checks_found(*, kernel=None, monitor=None, engine=None, now=0):
    """Names of the checks that fired in one explicit sanitizer pass."""
    sanitizer = SimSanitizer()
    found = sanitizer.check_all(kernel=kernel, monitor=monitor, engine=engine, now=now)
    assert found == sanitizer.violations
    return {violation.check for violation in found}


def started_monitor(kernel, queue=None, sanitizer=None):
    attrs = MonitorAttrs(
        sampling_interval_us=1 * MSEC,
        aggregation_interval_us=20 * MSEC,
        regions_update_interval_us=200 * MSEC,
        min_nr_regions=10,
        max_nr_regions=200,
    )
    monitor = DataAccessMonitor(
        VirtualPrimitive(kernel), attrs, seed=3, sanitizer=sanitizer
    )
    if queue is None:
        monitor.init_regions()
    else:
        monitor.start(queue)
    return monitor


def quota_engine(kernel, size_bytes=MIB):
    scheme = Scheme(
        pattern=AccessPattern(),
        action=Action.PAGEOUT,
        quota=Quota(size_bytes=size_bytes),
    )
    return SchemesEngine(kernel, [scheme]), scheme


# ----------------------------------------------------------------------
# Clean state: zero violations
# ----------------------------------------------------------------------
class TestCleanState:
    def test_worked_kernel_is_clean(self):
        assert checks_found(kernel=worked_kernel()) == set()

    def test_monitor_and_engine_are_clean(self):
        kernel = worked_kernel()
        monitor = started_monitor(kernel)
        engine, _ = quota_engine(kernel)
        assert checks_found(kernel=kernel, monitor=monitor, engine=engine) == set()


# ----------------------------------------------------------------------
# Seeded kernel-state mutations
# ----------------------------------------------------------------------
class TestKernelMutations:
    def test_present_cleared_without_frame_release(self):
        # The buggy-munmap shape: the page vanishes from the page table
        # but its frame stays allocated.
        kernel = worked_kernel()
        flat = kernel.space.flat
        idx = np.flatnonzero(flat.present & (flat.frame >= 0))[0]
        flat.present[idx] = False
        assert "frame_conservation" in checks_found(kernel=kernel)

    def test_present_and_swapped_both_set(self):
        kernel = worked_kernel()
        flat = kernel.space.flat
        idx = np.flatnonzero(flat.present)[0]
        flat.swapped[idx] = True
        assert "present_swapped_exclusivity" in checks_found(kernel=kernel)

    def test_swap_usage_counter_drift(self):
        kernel = worked_kernel()
        kernel.swap.used_pages += 3
        assert checks_found(kernel=kernel) == {"present_swapped_exclusivity"}

    def test_allocated_counter_drift(self):
        kernel = worked_kernel()
        kernel.frames.allocated += 1
        assert checks_found(kernel=kernel) == {"frame_conservation"}

    def test_orphaned_frame_owner(self):
        kernel = worked_kernel()
        live = kernel.frames.allocated_frames()
        kernel.frames.owner[live[0]] = -1
        found = SimSanitizer().check_all(kernel=kernel)
        assert any(
            v.check == "frame_conservation" and "rmap owner" in v.message for v in found
        )

    def test_swapped_rmap_back_pointers(self):
        # Two frames exchange their owner entries: the set of pages
        # reached through the rmap is unchanged, each frame's own
        # back-pointer is wrong.
        kernel = worked_kernel()
        frames = kernel.frames
        a, b = frames.allocated_frames()[:2]
        frames.owner[[a, b]] = frames.owner[[b, a]]
        found = SimSanitizer().check_all(kernel=kernel)
        assert [v.check for v in found] == ["frame_conservation"]
        assert "round-trip" in found[0].message

    def test_page_loses_its_frame(self):
        kernel = worked_kernel()
        flat = kernel.space.flat
        idx = np.flatnonzero(flat.present & (flat.frame >= 0))[0]
        flat.frame[idx] = -1
        assert "frame_conservation" in checks_found(kernel=kernel)

    def test_resident_counter_drift(self):
        kernel = worked_kernel()
        kernel.space.flat.n_present += 1
        assert "counter_coherence" in checks_found(kernel=kernel)

    def test_swapped_counter_drift(self):
        kernel = worked_kernel()
        kernel.space.flat.n_swapped += 1
        # The table's counter and the device usage cross-check both see it.
        assert "counter_coherence" in checks_found(kernel=kernel)

    def test_huge_chunk_not_fully_resident(self):
        kernel = worked_kernel()
        flat = kernel.space.flat
        counts = flat.chunk_present_counts()
        partial = np.flatnonzero(counts != PAGES_PER_HUGE)
        assert partial.size, "the worked kernel should have a partial chunk"
        flat.chunk_huge[partial[0]] = True
        assert "huge_residency" in checks_found(kernel=kernel)


# ----------------------------------------------------------------------
# Seeded monitor-state mutations
# ----------------------------------------------------------------------
class TestMonitorMutations:
    def test_region_tiling_gap(self):
        kernel = worked_kernel()
        monitor = started_monitor(kernel)
        monitor._ra.end[-1] -= 4096
        assert "region_tiling" in checks_found(monitor=monitor)

    def test_region_overlap(self):
        kernel = worked_kernel()
        monitor = started_monitor(kernel)
        monitor._ra.start[1] -= 4096
        assert "region_tiling" in checks_found(monitor=monitor)


# ----------------------------------------------------------------------
# Seeded engine-state mutations
# ----------------------------------------------------------------------
class TestQuotaMutations:
    def test_negative_charge(self):
        kernel = worked_kernel()
        engine, scheme = quota_engine(kernel)
        scheme.quota._charged = -5
        assert checks_found(engine=engine) == {"quota_sanity"}

    def test_charge_past_the_window_budget(self):
        kernel = worked_kernel()
        engine, scheme = quota_engine(kernel)
        scheme.quota._charged = scheme.quota.size_bytes + 4096
        assert checks_found(engine=engine) == {"quota_sanity"}

    def test_unlimited_quota_exempt(self):
        kernel = worked_kernel()
        engine, _ = quota_engine(kernel)
        engine.schemes[0].quota = None
        assert checks_found(engine=engine) == set()


# ----------------------------------------------------------------------
# Runtime behaviour: raising, wiring, reporting
# ----------------------------------------------------------------------
class TestRuntime:
    def test_checkpoint_raises_with_structured_violations(self):
        kernel = worked_kernel()
        kernel.frames.allocated += 1
        sanitizer = SimSanitizer()
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.checkpoint_kernel(kernel, now=2 * EPOCH)
        err = excinfo.value
        assert err.violations and err.violations[0].check == "frame_conservation"
        assert err.violations[0].epoch == 0
        assert len(err.violations[0].digest) == 12
        assert "frame_conservation" in str(err)

    def test_disabled_sanitizer_is_inert(self):
        kernel = worked_kernel()
        kernel.frames.allocated += 1
        sanitizer = SimSanitizer(enabled=False)
        sanitizer.checkpoint_kernel(kernel, now=0)
        assert sanitizer.check_all(kernel=kernel) == []
        assert sanitizer.violations == [] and sanitizer.epochs_checked == 0

    def test_end_epoch_checkpoint_is_wired(self):
        kernel = worked_kernel(sanitizer=SimSanitizer())
        kernel.space.flat.n_present += 1
        with pytest.raises(SanitizerError):
            kernel.end_epoch(2 * EPOCH, compute_us=70_000)

    def test_monitor_tick_checkpoint_is_wired(self):
        from repro.clock import EventQueue

        kernel = worked_kernel()
        queue = EventQueue()
        monitor = started_monitor(kernel, queue=queue, sanitizer=SimSanitizer())
        queue.run_for(100 * MSEC)
        assert monitor.sanitizer.monitor_checkpoints > 0
        assert monitor.sanitizer.violations == []

    def test_summary_one_liner(self):
        sanitizer = SimSanitizer()
        sanitizer.checkpoint_kernel(worked_kernel(), now=0)
        assert sanitizer.summary() == (
            "sanitizer enabled: 1 epoch checkpoint(s), 0 monitor checkpoint(s), "
            "0 violation(s)"
        )

    def test_default_toggle_roundtrip(self):
        previous = default_enabled()
        try:
            set_default_enabled(True)
            assert default_enabled() is True
            set_default_enabled(False)
            assert default_enabled() is False
        finally:
            set_default_enabled(previous)


# ----------------------------------------------------------------------
# The keyed kernel checkers: when they run, and what covers the rest
# ----------------------------------------------------------------------
class TestKeyedCheckpoints:
    @pytest.fixture
    def keyed_calls(self, monkeypatch):
        """Names of the keyed checkers, in the order the runtime called them."""
        calls = []
        for name in ("check_frame_conservation", "check_tier_placement"):
            checker = getattr(sanitize_runtime, name)

            def counted(kernel, now, _checker=checker, _name=name):
                calls.append(_name)
                return _checker(kernel, now)

            monkeypatch.setattr(sanitize_runtime, name, counted)
        return calls

    @staticmethod
    def _key(kernel):
        return kernel.space.generation, kernel.frames.rmap_generation

    def test_residency_flip_without_its_frame_operation(self, keyed_calls):
        # Defence: the count identities.  The shape of a transition that
        # forgot ``frames.release``: the key does not move, the counters
        # stay coherent, and the resident total no longer equals
        # ``frames.allocated``.
        kernel = worked_kernel(sanitizer=SimSanitizer())
        key = self._key(kernel)
        assert kernel.sanitizer._keyed_clean == (kernel, key)
        keyed_calls.clear()
        flat = kernel.space.flat
        flat.present[np.flatnonzero(flat.present)[0]] = False
        flat.n_present -= 1
        with pytest.raises(SanitizerError, match="frame_conservation"):
            kernel.end_epoch(2 * EPOCH, compute_us=70_000)
        assert self._key(kernel) == key  # ... so it was an identity that asked
        assert keyed_calls == ["check_frame_conservation", "check_tier_placement"]

    def test_stray_tier_mark_breaks_the_slow_count(self, keyed_calls):
        # Defence: the count identities (tier marks vs ``allocated_slow``).
        kernel = worked_kernel(sanitizer=SimSanitizer())
        keyed_calls.clear()
        flat = kernel.space.flat
        flat.tier[np.flatnonzero(~flat.present)[0]] = 1
        with pytest.raises(SanitizerError, match="tier_placement"):
            kernel.end_epoch(2 * EPOCH, compute_us=70_000)
        assert keyed_calls == ["check_frame_conservation", "check_tier_placement"]

    @staticmethod
    def _lose_a_frame(kernel):
        """A direct store that keeps every count intact."""
        flat = kernel.space.flat
        flat.frame[np.flatnonzero(flat.present)[0]] = -1

    def test_count_preserving_store_is_found_within_the_bound(self, keyed_calls):
        # Defence: the FULL_CHECK_EVERY-th epoch (the static lint is the
        # other half).  Neither the key nor an identity sees this store.
        sanitizer = SimSanitizer()
        kernel = worked_kernel(sanitizer=sanitizer)
        self._lose_a_frame(kernel)
        assert "frame_conservation" in checks_found(kernel=kernel)
        keyed_calls.clear()
        with pytest.raises(SanitizerError, match="frame_conservation"):
            for _ in range(FULL_CHECK_EVERY):
                sanitizer.checkpoint_kernel(kernel, now=2 * EPOCH)
        assert sanitizer.violations[0].epoch == FULL_CHECK_EVERY
        assert keyed_calls == ["check_frame_conservation", "check_tier_placement"]

    def test_count_preserving_store_is_found_at_run_end(self):
        # Defence: the run-end pass, for a run shorter than the bound.
        run = TestRunWiring._started_run()
        sanitizer = run.tenant.sanitizer
        epochs = sanitizer.epochs_checked
        assert epochs < FULL_CHECK_EVERY
        self._lose_a_frame(run.tenant.kernel)
        with pytest.raises(SanitizerError, match="frame_conservation"):
            run.finish()
        assert sanitizer.epochs_checked == epochs
        assert sanitizer.violations[0].epoch is None

    def test_a_frame_operation_moves_the_key(self, keyed_calls):
        # Defence: the key.
        sanitizer = SimSanitizer()
        kernel = worked_kernel(sanitizer=sanitizer)
        frames = kernel.frames
        fresh = (BASE + 16 * MIB, BASE + 17 * MIB)
        keyed_calls.clear()
        sanitizer.checkpoint_kernel(kernel, now=2 * EPOCH)
        assert keyed_calls == []

        allocated = frames.allocated
        kernel.apply_access(*fresh, 2 * EPOCH, EPOCH)
        assert frames.allocated > allocated  # FrameTable.allocate ran
        sanitizer.checkpoint_kernel(kernel, now=3 * EPOCH)
        assert keyed_calls == ["check_frame_conservation", "check_tier_placement"]
        sanitizer.checkpoint_kernel(kernel, now=4 * EPOCH)
        assert len(keyed_calls) == 2

        assert kernel.pageout(*fresh, 4 * EPOCH) > 0  # FrameTable.release ran
        sanitizer.checkpoint_kernel(kernel, now=5 * EPOCH)
        assert keyed_calls == ["check_frame_conservation", "check_tier_placement"] * 2

    def test_keyed_passes_follow_the_keys_of_a_run(self, keyed_calls, monkeypatch):
        keys = []
        every_epoch = sanitize_runtime.check_present_swapped

        def recording(kernel, now):
            keys.append(self._key(kernel))
            return every_epoch(kernel, now)

        monkeypatch.setattr(sanitize_runtime, "check_present_swapped", recording)
        run = TestRunWiring._started_run()
        run.run_until(run.spec.duration_us)
        epochs = run.tenant.sanitizer.epochs_checked
        assert len(keys) == epochs  # the cheap class ran at every one
        passes = keyed_calls.count("check_frame_conservation")
        assert passes == keyed_calls.count("check_tier_placement")
        assert len(set(keys)) <= passes < epochs
        run.finish()
        assert keyed_calls.count("check_frame_conservation") == passes + 1

    def test_restored_run_opens_with_a_keyed_pass(self, keyed_calls, tmp_path):
        # The remembered key is process-local: a restored sanitizer has
        # none, and what it pickles does not depend on having had one, so
        # a restored run's state digest equals a straight run's.
        straight = TestRunWiring._started_run()
        straight.run_until(straight.spec.duration_us)

        run = TestRunWiring._started_run()
        run.run_until(3 * run.spec.epoch_us)
        assert run.tenant.sanitizer._keyed_clean is not None
        path = str(tmp_path / "run.ckpt")
        checkpoint_run(run, path)
        restored = restore_run(path, announce=False)
        assert restored.tenant.sanitizer._keyed_clean is None
        keyed_calls.clear()
        restored.run_until(4 * restored.spec.epoch_us)
        assert keyed_calls == ["check_frame_conservation", "check_tier_placement"]
        restored.run_until(restored.spec.duration_us)
        assert state_digest(restored) == state_digest(straight)


# ----------------------------------------------------------------------
# A run's wiring: build_tenant hands the sanitizer to every layer
# ----------------------------------------------------------------------
class TestRunWiring:
    @staticmethod
    def _started_run(**kwargs):
        run = ExperimentRun(
            "parsec3/swaptions", config="prcl", time_scale=0.02, sanitize=True, **kwargs
        )
        run.start()
        run.run_until(2 * run.spec.epoch_us)
        return run

    def test_build_tenant_hands_one_sanitizer_to_every_layer(self):
        sanitizer = SimSanitizer()
        tenant = build_tenant(
            get_workload("parsec3/swaptions"),
            config="prcl",
            machine=build_machine(),
            sanitizer=sanitizer,
        )
        assert tenant.kernel.sanitizer is tenant.monitor.sanitizer is sanitizer
        # ... and the sanitizer sees the engine: the kernel checkpoint
        # reports a quota broken on it.
        tenant.engine.schemes[0].quota = Quota(size_bytes=MIB)
        tenant.engine.schemes[0].quota._charged = -5
        with pytest.raises(SanitizerError, match="quota_sanity"):
            tenant.kernel.end_epoch(EPOCH, compute_us=0.0)

    def test_region_corruption_raised_at_the_epoch_boundary_without_a_bus(self):
        run = self._started_run(collect_trace=False)
        assert run.trace is None
        monitor, sanitizer = run.tenant.monitor, run.tenant.sanitizer
        monitor._ra.end[-1] -= 4096
        aggregations = sanitizer.monitor_checkpoints
        with pytest.raises(SanitizerError, match="region_tiling"):
            run.tenant.kernel.end_epoch(3 * run.spec.epoch_us, run.compute_us)
        assert sanitizer.monitor_checkpoints == aggregations
        assert sanitizer.violations[0].epoch == sanitizer.epochs_checked - 1

    def test_restored_run_still_checks_its_engine(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        checkpoint_run(self._started_run(), path)
        restored = restore_run(path)
        tenant = restored.tenant
        assert tenant.kernel.sanitizer is tenant.monitor.sanitizer is tenant.sanitizer
        tenant.engine.schemes[0].quota = Quota(size_bytes=MIB)
        tenant.engine.schemes[0].quota._charged = -5
        with pytest.raises(SanitizerError, match="quota_sanity"):
            restored.run_until(restored.spec.duration_us)


# ----------------------------------------------------------------------
# End-to-end: sanitized runs are clean and byte-identical
# ----------------------------------------------------------------------
def _comparable(result):
    payload = dataclasses.asdict(result)
    payload.pop("wall_clock_us")  # volatile: host wall clock
    payload.pop("snapshots")  # recorded objects, compared via metrics
    return payload


class TestEndToEnd:
    def test_sanitized_run_is_clean_and_checkpointed(self):
        sanitizer = SimSanitizer()
        run_experiment(
            "parsec3/swaptions", config="prcl", time_scale=0.02, sanitize=sanitizer
        )
        assert sanitizer.epochs_checked > 0
        assert sanitizer.monitor_checkpoints > 0
        assert sanitizer.violations == []

    def test_results_identical_with_and_without_sanitizer(self):
        kwargs = dict(config="prcl", time_scale=0.02, seed=5)
        plain = run_experiment("parsec3/swaptions", sanitize=False, **kwargs)
        checked = run_experiment("parsec3/swaptions", sanitize=True, **kwargs)
        assert _comparable(plain) == _comparable(checked)
