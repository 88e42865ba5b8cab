"""Fault injection and the graceful-degradation paths it exercises.

Three layers under test:

* the fault model itself — spec/plan validation, plan files, and the
  injector's per-spec RNG substreams (deterministic, independent);
* the recovery paths — kernel load-shedding instead of
  :class:`~repro.errors.SwapFullError`, tuner retry-with-backoff,
  monitor ticks surviving dropped/flaky samples;
* the property that *any* valid fault plan degrades a run without
  breaking its structural invariants.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import errors
from repro.cli import exit_code
from repro.errors import (
    DaosError,
    FaultError,
    MonitorStateError,
    SanitizerError,
    SwapFullError,
    TuningError,
)
from repro.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    load_fault_plan,
    worker_crash_decision,
)
from repro.faults.spec import _NEEDS_MAGNITUDE
from repro.fleet import FleetConfig, FleetScheduler
from repro.monitor.attrs import MonitorAttrs
from repro.monitor.core import DataAccessMonitor
from repro.monitor.primitives import VirtualPrimitive
from repro.clock import EventQueue
from repro.sim.kernel import SimKernel
from repro.sim.machine import GuestSpec, get_instance
from repro.runner.experiment import run_experiment
from repro.sanitize import SimSanitizer
from repro.sim.swap import NoSwapDevice, ZramDevice
from repro.sweep.grid import SweepGrid
from repro.sweep.runner import SweepRunner
from repro.trace import TraceBus
from repro.trace.events import (
    DegradedModeEntered,
    DegradedModeExited,
    FaultInjected,
    RetryAttempted,
)
from repro.tuning.runtime import AutoTuner
from repro.tuning.sampler import nr_samples_for_budget
from repro.units import MIB, MSEC, SEC

from tests.helpers import BASE, run_epochs

EPOCH = 100 * MSEC
CHAOS_PLAN = Path(__file__).resolve().parent.parent / "examples" / "faults" / "chaos.toml"


def plan_of(*rows, seed=0):
    return FaultPlan.build(list(rows), seed=seed)


# ---------------------------------------------------------------------------
# Spec and plan validation
# ---------------------------------------------------------------------------
class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultSpec(kind="gamma_ray")

    def test_empty_window_rejected(self):
        with pytest.raises(FaultError, match="empty or negative window"):
            FaultSpec(kind="swap_full", start_us=SEC, end_us=SEC)

    def test_probability_bounds(self):
        with pytest.raises(FaultError, match="probability"):
            FaultSpec(kind="flaky_bits", probability=0.0)
        with pytest.raises(FaultError, match="probability"):
            FaultSpec(kind="flaky_bits", probability=1.5)

    def test_magnitude_required_where_meaningful(self):
        with pytest.raises(FaultError, match="magnitude"):
            FaultSpec(kind="pressure_spike")
        with pytest.raises(FaultError, match="magnitude"):
            FaultSpec(kind="late_epoch", magnitude=0)

    def test_from_dict_parses_time_strings(self):
        spec = FaultSpec.from_dict(
            {"kind": "swap_full", "start": "500ms", "end": "2s"}
        )
        assert spec.start_us == 500 * MSEC
        assert spec.end_us == 2 * SEC

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(FaultError, match="unknown fault-spec key"):
            FaultSpec.from_dict({"kind": "swap_full", "strat": "2s"})

    def test_every_kind_maps_to_a_hook(self):
        for kind in FAULT_KINDS:
            extra = {"magnitude": 1.0} if kind in _NEEDS_MAGNITUDE else {}
            assert "." in FaultSpec(kind=kind, **extra).hook


class TestFaultPlan:
    def test_roundtrip_through_dict(self):
        plan = load_fault_plan(CHAOS_PLAN)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_empty_plan_rejected(self):
        with pytest.raises(FaultError, match="declares no faults"):
            FaultPlan.from_dict({"seed": 1, "faults": []})

    def test_unknown_plan_key_rejected(self):
        with pytest.raises(FaultError, match="unknown fault-plan key"):
            FaultPlan.from_dict({"faults": [{"kind": "swap_full"}], "sede": 1})

    def test_only_scopes_by_kind(self):
        plan = load_fault_plan(CHAOS_PLAN)
        sub = plan.only("swap_full")
        assert [s.kind for s in sub.specs] == ["swap_full"]
        assert sub.seed == plan.seed

    def test_load_json_plan(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(
            json.dumps({"seed": 9, "faults": [{"kind": "swap_full", "start": 0}]})
        )
        plan = load_fault_plan(path)
        assert plan.seed == 9
        assert plan.name == "p"  # falls back to the file stem
        assert plan.kinds() == ["swap_full"]

    def test_load_toml_plan(self, tmp_path):
        path = tmp_path / "p.toml"
        path.write_text(
            'seed = 4\n[[faults]]\nkind = "flaky_bits"\nprobability = 0.5\n'
        )
        plan = load_fault_plan(path)
        assert plan.seed == 4
        assert plan.specs[0].probability == 0.5

    def test_missing_file_is_fault_error(self, tmp_path):
        with pytest.raises(FaultError, match="cannot read fault plan"):
            load_fault_plan(tmp_path / "absent.toml")

    def test_example_plan_loads(self):
        # The repo's shipped example must stay loadable.
        plan = load_fault_plan("examples/faults/smoke.toml")
        assert plan.name == "smoke"
        assert len(plan) == 5


# ---------------------------------------------------------------------------
# Injector determinism
# ---------------------------------------------------------------------------
class TestInjectorDeterminism:
    def _decisions(self, injector, n=200):
        out = []
        for i in range(n):
            now = i * 10 * MSEC
            out.append(
                (
                    injector.drop_sample_tick(now),
                    injector.probe_fails(now),
                    injector.engine_stalled(now),
                )
            )
        return out

    def test_same_plan_same_decisions(self):
        plan = plan_of(
            dict(kind="drop_sample", probability=0.3),
            dict(kind="probe_failure", probability=0.3),
            dict(kind="engine_stall", probability=0.3),
            seed=5,
        )
        a = self._decisions(FaultInjector(plan))
        b = self._decisions(FaultInjector(plan))
        assert a == b
        assert any(any(row) for row in a)  # something actually fired

    def test_substreams_independent_of_other_specs(self):
        # Appending a spec must not shift an earlier spec's decisions:
        # each spec draws from rng([plan.seed, spec_index]).
        base = plan_of(dict(kind="drop_sample", probability=0.3), seed=5)
        extended = plan_of(
            dict(kind="drop_sample", probability=0.3),
            dict(kind="engine_stall", probability=0.9),
            seed=5,
        )
        ticks = [i * 10 * MSEC for i in range(200)]
        a = [FaultInjector(base).drop_sample_tick(t) for t in ticks]
        inj = FaultInjector(extended)
        b = [inj.drop_sample_tick(t) for t in ticks]
        # Interleave draws from the second spec to prove isolation.
        inj2 = FaultInjector(extended)
        c = []
        for t in ticks:
            inj2.engine_stalled(t)
            c.append(inj2.drop_sample_tick(t))
        assert a == b == c

    def test_window_activation_latched_once(self):
        # probability applies to the window as a whole: a swap_full
        # window either activates for its entire span or not at all.
        plan = plan_of(
            dict(kind="swap_full", start=0, end=10 * SEC, probability=0.5),
            seed=1,
        )
        inj = FaultInjector(plan)
        values = {inj.swap_is_full(t * SEC) for t in range(10)}
        assert len(values) == 1

    def test_max_fires_bounds_firings(self):
        plan = plan_of(
            dict(kind="probe_failure", probability=1.0, max_fires=3), seed=0
        )
        inj = FaultInjector(plan)
        fires = sum(inj.probe_fails(i * MSEC) for i in range(50))
        assert fires == 3

    def test_worker_crash_stateless_and_retry_safe(self):
        hits = [worker_crash_decision(7, 0.3, i, 0) for i in range(100)]
        assert hits == [worker_crash_decision(7, 0.3, i, 0) for i in range(100)]
        assert 0 < sum(hits) < 100
        # Attempt 1+ never crashes: one retry always recovers the point.
        assert not any(worker_crash_decision(7, 1.0, i, 1) for i in range(100))

    def test_fault_events_emitted_on_bus(self):
        bus = TraceBus(ring_capacity=0)
        plan = plan_of(dict(kind="probe_failure", probability=1.0, max_fires=2))
        events = []
        bus.subscribe(FaultInjected, events.append)
        inj = FaultInjector(plan, trace=bus)
        inj.probe_fails(0)
        inj.probe_fails(MSEC)
        inj.probe_fails(2 * MSEC)  # exhausted: no third event
        assert [(e.hook, e.fault) for e in events] == [
            ("tuner.probe", "probe_failure"),
            ("tuner.probe", "probe_failure"),
        ]


# ---------------------------------------------------------------------------
# Kernel: shed-load instead of SwapFullError, degraded-mode lifecycle
# ---------------------------------------------------------------------------
def _tiny_kernel(swap, oom_policy="raise", faults=None, trace=None, dram=32 * MIB):
    guest = GuestSpec(host=get_instance("i3.metal"), vcpus=2, dram_bytes=dram)
    return SimKernel(
        guest, swap=swap, seed=7, faults=faults, oom_policy=oom_policy, trace=trace
    )


class TestKernelShedding:
    def test_raise_policy_still_raises(self):
        kernel = _tiny_kernel(NoSwapDevice(), oom_policy="raise")
        kernel.mmap(BASE, 64 * MIB)
        with pytest.raises(SwapFullError):
            kernel.apply_access(BASE, BASE + 64 * MIB, now=0, epoch_us=EPOCH)

    def test_shed_policy_completes_and_degrades(self):
        bus = TraceBus(ring_capacity=0)
        entered = []
        bus.subscribe(DegradedModeEntered, entered.append)
        kernel = _tiny_kernel(NoSwapDevice(), oom_policy="shed", trace=bus)
        kernel.mmap(BASE, 64 * MIB)
        kernel.apply_access(BASE, BASE + 64 * MIB, now=0, epoch_us=EPOCH)
        assert kernel.degraded
        assert kernel.metrics.shed_pages > 0
        assert kernel.rss_bytes() <= 32 * MIB
        assert [e.subsystem for e in entered] == ["kernel"]
        # Shedding is bounded: granted frames were all actually used.
        assert kernel.frames.free_frames() == 0

    def test_shed_is_idempotent_per_degradation(self):
        bus = TraceBus(ring_capacity=0)
        entered = []
        bus.subscribe(DegradedModeEntered, entered.append)
        kernel = _tiny_kernel(NoSwapDevice(), oom_policy="shed", trace=bus)
        kernel.mmap(BASE, 96 * MIB)
        kernel.apply_access(BASE, BASE + 48 * MIB, now=0, epoch_us=EPOCH)
        kernel.apply_access(
            BASE + 48 * MIB, BASE + 96 * MIB, now=EPOCH, epoch_us=EPOCH
        )
        assert len(entered) == 1  # still the same degradation episode

    def test_swap_full_window_recovers_after_window(self):
        bus = TraceBus(ring_capacity=0)
        exited = []
        bus.subscribe(DegradedModeExited, exited.append)
        plan = plan_of(dict(kind="swap_full", start=0, end=1 * SEC))
        inj = FaultInjector(plan, trace=bus)
        kernel = _tiny_kernel(
            ZramDevice(64 * MIB), oom_policy="shed", faults=inj, trace=bus
        )
        kernel.mmap(BASE, 64 * MIB)
        # Inside the window the swap device reports zero free slots:
        # the overcommitted touch must shed, not raise.
        kernel.apply_access(BASE, BASE + 64 * MIB, now=0, epoch_us=EPOCH)
        assert kernel.degraded
        assert kernel.metrics.shed_pages > 0
        # Past the window, the next epoch boundary notices swap is
        # usable again and leaves degraded mode.
        if bus.owns_clock:
            bus.advance_to(2 * SEC)
        kernel.end_epoch(2 * SEC, compute_us=EPOCH)
        assert not kernel.degraded
        assert [e.subsystem for e in exited] == ["kernel"]
        assert exited[0].degraded_us > 0

    def test_late_epoch_charges_stall_time(self):
        plan = plan_of(
            dict(kind="late_epoch", probability=1.0, magnitude=50 * MSEC)
        )
        kernel = _tiny_kernel(ZramDevice(64 * MIB), faults=FaultInjector(plan))
        kernel.mmap(BASE, MIB)
        kernel.apply_access(BASE, BASE + MIB, now=0, epoch_us=EPOCH)
        kernel.end_epoch(EPOCH, compute_us=70_000)
        assert kernel.metrics.runtime.compute_us == 70_000 + 50 * MSEC

    def test_no_faults_no_behaviour_change(self):
        # faults=None and an inert injector must be indistinguishable.
        quiet = FaultInjector(
            plan_of(dict(kind="swap_full", start=100 * SEC, end=101 * SEC))
        )
        runs = []
        for faults in (None, quiet):
            kernel = _tiny_kernel(ZramDevice(64 * MIB), faults=faults)
            kernel.mmap(BASE, 48 * MIB)
            kernel.apply_access(BASE, BASE + 24 * MIB, now=0, epoch_us=EPOCH)
            kernel.end_epoch(EPOCH, compute_us=70_000)
            kernel.apply_access(
                BASE + 24 * MIB, BASE + 48 * MIB, now=EPOCH, epoch_us=EPOCH
            )
            kernel.end_epoch(2 * EPOCH, compute_us=70_000)
            runs.append(kernel.metrics.as_dict())
        assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Monitor: lifecycle misuse + surviving flaky/dropped samples
# ---------------------------------------------------------------------------
class TestMonitorFaults:
    def test_double_start_is_state_error(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 64 * MIB)
        monitor = DataAccessMonitor(VirtualPrimitive(kernel), fast_attrs, seed=3)
        monitor.start(queue)
        with pytest.raises(MonitorStateError, match="already running"):
            monitor.start(queue)
        monitor.stop()
        monitor.start(queue)  # restart after stop is legal
        monitor.stop()

    def _run_monitored(self, kernel, attrs, queue, faults=None):
        monitor = DataAccessMonitor(
            VirtualPrimitive(kernel), attrs, seed=3, faults=faults
        )
        monitor.start(queue)
        run_epochs(
            kernel,
            queue,
            [dict(start=BASE, end=BASE + 32 * MIB, touches_per_page=8)],
            n_epochs=10,
        )
        monitor.stop()
        return monitor

    def test_flaky_bits_lose_accesses_but_keep_structure(
        self, kernel, fast_attrs, queue
    ):
        kernel.mmap(BASE, 64 * MIB)
        inj = FaultInjector(plan_of(dict(kind="flaky_bits", probability=1.0)))
        monitor = self._run_monitored(kernel, fast_attrs, queue, faults=inj)
        # Every PTE read came back clear: hot memory looks idle...
        assert (monitor.regions.nr_accesses == 0).all()
        # ...but the monitor itself keeps ticking and stays consistent.
        assert monitor.total_checks > 0
        monitor.check_invariants()

    def test_drop_sample_skips_checks_not_ticks(self, kernel, fast_attrs, queue):
        kernel.mmap(BASE, 64 * MIB)
        inj = FaultInjector(plan_of(dict(kind="drop_sample", probability=1.0)))
        monitor = self._run_monitored(kernel, fast_attrs, queue, faults=inj)
        assert monitor.total_checks == 0
        monitor.check_invariants()


# ---------------------------------------------------------------------------
# Tuner: bounded retry with deterministic exponential backoff
# ---------------------------------------------------------------------------
def _tuner(faults=None, trace=None):
    return AutoTuner(
        lambda param: (1000.0 + param, 2000.0),
        (1200.0, 2500.0),
        0.0,
        60.0,
        seed=4,
        trace=trace,
        faults=faults,
    )


class TestTunerRetry:
    def _retry_schedule(self):
        bus = TraceBus(ring_capacity=0)
        retries = []
        bus.subscribe(RetryAttempted, retries.append)
        plan = plan_of(dict(kind="probe_failure", probability=1.0, max_fires=2))
        tuner = _tuner(faults=FaultInjector(plan, trace=bus), trace=bus)
        result = tuner.tune(nr_samples=4)
        return result, [(r.attempt, r.backoff_us) for r in retries]

    def test_retries_recover_and_backoff_doubles(self):
        result, schedule = self._retry_schedule()
        assert schedule == [(1, 100_000), (2, 200_000)]
        assert result.best_param >= 0.0  # the session completed

    def test_retry_schedule_replays_identically(self):
        a = self._retry_schedule()[1]
        b = self._retry_schedule()[1]
        assert a == b

    def test_exhausted_retries_raise_tuning_error(self):
        plan = plan_of(dict(kind="probe_failure", probability=1.0))
        tuner = _tuner(faults=FaultInjector(plan))
        with pytest.raises(TuningError, match="failed 3 time"):
            tuner.tune(nr_samples=4)

    def test_budget_below_one_unit_is_clear_error(self):
        with pytest.raises(TuningError, match="does not cover even one unit"):
            nr_samples_for_budget(5 * SEC, 10 * SEC)

    def test_budget_below_two_samples_is_clear_error(self):
        with pytest.raises(TuningError, match="at least two samples"):
            nr_samples_for_budget(15 * SEC, 10 * SEC)

    def test_tune_with_budget_propagates_budget_error(self):
        with pytest.raises(TuningError, match="tuning budget"):
            _tuner().tune_with_budget(SEC, 10 * SEC)


# ---------------------------------------------------------------------------
# Property: any valid fault plan degrades without breaking invariants
# ---------------------------------------------------------------------------
@st.composite
def fault_plans(draw):
    """Valid plans over every fault kind: windows inside the runs below,
    a magnitude exactly where the kind needs one."""
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(sorted(FAULT_KINDS)))
        start = draw(st.integers(0, 20)) * EPOCH
        row = dict(
            kind=kind,
            start=start,
            end=start + draw(st.integers(1, 30)) * EPOCH,
            probability=draw(st.floats(0.05, 1.0)),
            max_fires=draw(st.sampled_from([-1, 1, 3])),
        )
        if kind in _NEEDS_MAGNITUDE:
            row["magnitude"] = draw(st.integers(1, 50_000))
        rows.append(row)
    return FaultPlan.build(rows, seed=draw(st.integers(0, 2**32 - 1)))



class TestFaultPlanProperty:
    @settings(max_examples=15, deadline=None)
    @given(plan=fault_plans())
    def test_any_plan_preserves_run_invariants(self, plan):
        inj = FaultInjector(plan)
        guest = GuestSpec(
            host=get_instance("i3.metal"), vcpus=2, dram_bytes=64 * MIB
        )
        kernel = SimKernel(
            guest,
            swap=ZramDevice(16 * MIB),
            seed=7,
            faults=inj,
            oom_policy="shed",
        )
        kernel.mmap(BASE, 96 * MIB)
        attrs = MonitorAttrs(
            sampling_interval_us=1 * MSEC,
            aggregation_interval_us=20 * MSEC,
            regions_update_interval_us=200 * MSEC,
            min_nr_regions=5,
            max_nr_regions=60,
        )
        monitor = DataAccessMonitor(
            VirtualPrimitive(kernel), attrs, seed=3, faults=inj
        )
        queue = EventQueue()
        monitor.start(queue)
        run_epochs(
            kernel,
            queue,
            [dict(start=BASE, end=BASE + 80 * MIB, touches_per_page=4)],
            n_epochs=8,
        )
        monitor.stop()
        # Degradation may have shed pages, but never corrupts structure:
        monitor.check_invariants()
        assert attrs.min_nr_regions <= monitor.nr_regions() <= attrs.max_nr_regions
        rss = kernel.rss_bytes()
        assert 0 <= rss <= 64 * MIB
        assert kernel.metrics.shed_pages >= 0
        assert kernel.metrics.memory.peak_rss <= 64 * MIB


# ---------------------------------------------------------------------------
# Fuzzer: any valid plan, through a run, a sweep and a fleet
# ---------------------------------------------------------------------------
def _ends_cleanly(body):
    """Run ``body``: it succeeds, or stops on a typed error that is not
    a sanitizer finding and that the CLI maps to a contract exit code."""
    try:
        return body()
    except DaosError as exc:
        assert not isinstance(exc, SanitizerError), exc
        assert exit_code(exc) in (2, 3, 4)
        return None


class TestFaultPlanFuzzer:
    @settings(max_examples=12, deadline=None)
    @given(plan=fault_plans())
    def test_any_plan_ends_in_success_or_a_typed_error(self, plan):
        sanitizer = SimSanitizer()
        _ends_cleanly(
            lambda: run_experiment(
                "parsec3/swaptions", config="prcl", faults=plan,
                sanitize=sanitizer, seed=1, time_scale=0.01,
            )
        )
        fleet = FleetConfig(n_tenants=16, duration_s=4.0, footprint_mib=8, arrival_window_s=1.0)
        _ends_cleanly(
            lambda: FleetScheduler(fleet, sanitize=sanitizer, faults=FaultInjector(plan)).run()
        )
        assert sanitizer.violations == []

        grid = SweepGrid.from_axes(
            "experiment",
            {"config": ["baseline", "rec"]},
            fixed={"workload": "parsec3/swaptions", "time_scale": 0.01},
        )
        report = _ends_cleanly(
            lambda: SweepRunner(
                grid, faults=plan, sanitize=True, point_timeout_s=60.0
            ).run()
        )
        for failed in report.failures() if report is not None else ():
            error_type = getattr(errors, failed.error_type, None)
            assert error_type is not SanitizerError, failed.error
            assert isinstance(error_type, type) and issubclass(error_type, DaosError), failed.error
