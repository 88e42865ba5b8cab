"""The experiment driver: one (workload × machine × config) simulation.

Wiring order inside :class:`ExperimentRun` mirrors the real system's
boot: guest kernel first, then the monitor (kdamond), then the schemes
engine, then the workload's epoch loop; khugepaged runs only under
``thp=always``.  Monitor ticks registered before epoch ticks fire first
at shared instants, matching the asynchronous kdamond running alongside
the workload.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..clock import EventQueue
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..monitor.attrs import MonitorAttrs
from ..monitor.core import DataAccessMonitor
from ..monitor.primitives import PhysicalPrimitive, VirtualPrimitive
from ..recovery.codec import PausedSimulation, run_with_checkpoints
from ..sanitize.runtime import resolve_sanitizer
from ..schemes.engine import SchemesEngine
from ..sim.costs import CostModel
from ..sim.kernel import SimKernel
from ..sim.machine import MachineSpec, TierSpec, get_instance, guest_of, scaled_tier
from ..sim.swap import build_swap
from ..sim.thp import ThpPolicy
from ..trace.bus import TraceBus
from ..tuning.runtime import AutoTuner, TuningResult
from ..tuning.score import ScoreFunction
from ..units import SEC
from ..workloads.base import Workload, WorkloadSpec
from ..workloads.registry import get_workload
from .configs import ExperimentConfig, get_config, prcl_config
from .results import RunResult

__all__ = [
    "TenantBuild",
    "SnapshotRecorder",
    "ExperimentRun",
    "run_experiment",
    "autotune_scheme",
]


class SnapshotRecorder:
    """Downsampling snapshot recorder: a raw monitor callback receiving
    ``(monitor, now)`` at every aggregation.

    A module-level class (not a closure) so it rides the monitor's
    pickle in a mid-run checkpoint — the stride counter *is* simulation
    state: restoring it off by one would shift every later snapshot.
    """

    __slots__ = ("store", "stride", "n")

    def __init__(self, store, stride: int):
        self.store = store
        self.stride = int(stride)
        self.n = 0

    def __call__(self, mon, now: int) -> None:
        if self.n % self.stride == 0:
            self.store.append(mon.snapshot(now))
        self.n += 1


#: khugepaged scan period under thp=always.
_KHUGEPAGED_PERIOD_US = 1 * SEC


@dataclass
class TenantBuild:
    """One fully wired tenant: kernel, workload, monitoring stack, as
    :class:`ExperimentRun` builds it and keeps it in ``run.tenant``."""

    spec: WorkloadSpec
    cfg: ExperimentConfig
    kernel: object
    work: Workload
    monitor: Optional[DataAccessMonitor]
    engine: Optional[SchemesEngine]
    sanitizer: Optional[object]
    trace: Optional[TraceBus]
    snapshots: Optional[List] = field(default=None)


class ExperimentRun(PausedSimulation):
    """One experiment as a steppable object: construct, :meth:`start`,
    drive time with :meth:`run_until`, then :meth:`finish`.

    The constructor's keywords are *the* declaration of a run's
    parameters: :func:`run_experiment`, :func:`autotune_scheme`,
    :func:`~repro.perf.profile_run` and the CLI forward them here
    without re-declaring them.  The constructor is also the one place
    a run is wired, in the real system's boot order: guest kernel, the
    workload's address-space layout, kdamond, the schemes engine.  Each
    collaborator is handed out there as a constructor argument: the
    trace bus and fault injector to kernel, monitor and engine; the
    sanitizer to kernel and monitor (and the monitor and engine to it,
    for the epoch-boundary checks).  The three seams exist so the
    recovery layer can pause a run at any epoch boundary, snapshot it,
    and later resume a byte-identical continuation.  :meth:`start`
    registers monitor ticks, then khugepaged, then the epoch tick;
    same-instant ties follow the periodics' names
    (:data:`~repro.clock.SAME_INSTANT_ORDER`), not this order.

    ``config`` is a configuration name from
    :data:`~repro.runner.configs.CONFIGS` or a ready
    :class:`~repro.runner.configs.ExperimentConfig`.  ``machine`` is an
    instance name or a ready-made :class:`~repro.sim.machine.MachineSpec`
    (e.g. from ``scaled_instance``); ``swap`` picks the swap backend
    (``zram`` | ``file`` | ``none``).  Seed derivation is the historical
    contract: ``seed`` seeds the kernel, ``seed + 1`` the workload and
    ``seed + 2`` the monitor.

    ``time_scale`` shrinks the workload's nominal duration for fast CI
    runs (scheme ages and pattern periods are *not* scaled — they are
    what is being measured).  A recording config (``rec``, ``prec``)
    keeps about 240 aggregation snapshots for heatmap rendering.
    ``attrs`` and ``costs`` override the monitor attributes and the cost
    model.

    ``tier`` gives the guest a slow memory tier (a catalog name such as
    ``"optane-pmm"`` or ``"cxl-dram"``, capacity-scaled by
    ``tier_scale``, or a ready :class:`~repro.sim.machine.TierSpec`,
    which ``tier_scale`` leaves as it is).
    Under ``tier_policy="managed"`` (the default) reclaim demotes to the
    slow tier before swapping and the ``migrate_hot``/``migrate_cold``
    scheme actions move pages between tiers; ``"unmanaged"`` lets page
    faults spill into the slow tier and never migrates — the baseline a
    tiering scheme is measured against.

    ``trace`` supplies an external bus (its subscribers see every event;
    its clock is bound to the run's); when ``None`` an internal, ring-less
    bus is created so the result still carries a ``trace_summary``.  Pass
    ``collect_trace=False`` to disable tracing entirely — the emission
    sites then cost one ``is None`` check each.  Tracing never touches
    the simulation's RNG streams, so results are identical either way.

    ``faults`` injects a seeded fault plan into the run: one
    :class:`~repro.faults.FaultInjector` is shared by the kernel,
    monitor and engine, and the kernel's ``oom_policy`` defaults to
    ``"shed"`` so injected swap exhaustion degrades the run instead of
    aborting it.  Pass ``oom_policy`` explicitly to override either way.

    ``sanitize`` turns the :class:`~repro.sanitize.SimSanitizer` runtime
    checks on (``True``), off (``False``), follows the process default
    set at the CLI boundary (``None``), or uses a caller-supplied
    :class:`~repro.sanitize.SimSanitizer` instance directly (the
    overhead benchmark attaches a *disabled* one this way).  Checkers
    are read-only and consume no RNG, so results are byte-identical
    either way.
    """

    checkpoint_kind = "run"

    def __init__(
        self,
        workload: Union[str, WorkloadSpec],
        *,
        config: Union[str, ExperimentConfig] = "baseline",
        machine: Union[str, MachineSpec] = "i3.metal",
        seed: int = 0,
        time_scale: float = 1.0,
        swap: str = "zram",
        tier: Union[str, TierSpec, None] = None,
        tier_scale: float = 1.0,
        tier_policy: str = "managed",
        attrs: Optional[MonitorAttrs] = None,
        costs: Optional[CostModel] = None,
        trace: Optional[TraceBus] = None,
        collect_trace: bool = True,
        faults: Optional[FaultPlan] = None,
        oom_policy: Optional[str] = None,
        sanitize=None,
    ):
        self.wall_start = time.perf_counter()
        spec = get_workload(workload) if isinstance(workload, str) else workload
        spec = spec.scaled(time_scale) if time_scale != 1.0 else spec

        if trace is None and collect_trace:
            trace = TraceBus(ring_capacity=0)

        injector = FaultInjector(faults, trace=trace) if faults is not None else None
        if oom_policy is None:
            oom_policy = "shed" if faults is not None else "raise"

        sanitizer = resolve_sanitizer(sanitize)

        # --- the machine: host, guest and its slow tier --------------------
        self.host = machine if isinstance(machine, MachineSpec) else get_instance(machine)
        if tier is not None and not isinstance(tier, TierSpec):
            tier = scaled_tier(tier, capacity_scale=tier_scale)
        self.guest = guest_of(self.host, slow_tier=tier)

        # --- the tenant, in boot order: kernel, workload, kdamond, engine --
        cfg = get_config(config) if isinstance(config, str) else config
        kernel = SimKernel(
            self.guest,
            swap=build_swap(swap, self.host),
            costs=costs,
            thp=ThpPolicy(mode=cfg.thp_mode),
            seed=seed,
            trace=trace,
            faults=injector,
            oom_policy=oom_policy,
            sanitizer=sanitizer,
            tier_policy=tier_policy,
        )
        work = Workload(spec, kernel, seed=seed + 1)
        work.setup()

        monitor = None
        engine = None
        snapshots = [] if cfg.record else None
        if cfg.monitor is not None:
            primitive = (
                VirtualPrimitive(kernel) if cfg.monitor == "vaddr" else PhysicalPrimitive(kernel)
            )
            monitor = DataAccessMonitor(
                primitive,
                attrs if attrs is not None else MonitorAttrs(),
                seed=seed + 2,
                trace=trace,
                faults=injector,
                sanitizer=sanitizer,
            )
            if snapshots is not None:
                # Downsample so a full run keeps ~240 snapshots: building a
                # region-snapshot tuple per aggregation for a long run would
                # dominate the wall time without adding heatmap resolution.
                n_aggr = spec.duration_us // monitor.attrs.aggregation_interval_us
                stride = max(1, int(n_aggr // 240))
                monitor.register_raw_callback(SnapshotRecorder(snapshots, stride))
            if cfg.schemes_text is not None:
                schemes = cfg.build_schemes(
                    monitor.attrs,
                    context=f"config {cfg.name!r}",
                    logger=logging.getLogger("repro.lint"),
                )
                engine = SchemesEngine(kernel, schemes, trace=trace, faults=injector)
                monitor.attach_engine(engine)
        if sanitizer is not None:
            sanitizer.attach(monitor=monitor, engine=engine)
        self.tenant = TenantBuild(
            spec=spec,
            cfg=cfg,
            kernel=kernel,
            work=work,
            monitor=monitor,
            engine=engine,
            sanitizer=sanitizer,
            trace=trace,
            snapshots=snapshots,
        )
        self.spec = spec
        self.seed = seed
        self.injector = injector
        self.trace = trace
        self.queue: Optional[EventQueue] = None
        self.compute_us: float = 0.0
        self.started = False

    @property
    def step_us(self) -> int:
        """A run pauses at epoch boundaries."""
        return self.spec.epoch_us

    @property
    def duration_us(self) -> int:
        """The workload's (scaled) duration."""
        return self.spec.duration_us

    def periodic_handlers(self) -> Dict[str, Callable[[int], None]]:
        tenant = self.tenant
        handlers = {"khugepaged": tenant.kernel.khugepaged_scan, "epoch": self.run_one_epoch}
        if tenant.monitor is not None:
            handlers.update(tenant.monitor.tick_handlers())
        return handlers

    def run_one_epoch(self, now: int) -> None:
        """One workload epoch: run it, then charge its costs at its end."""
        self.tenant.work.run_epoch(now)
        self.tenant.kernel.end_epoch(now + self.spec.epoch_us, self.compute_us)

    def start(self) -> None:
        """Create the event queue, bind the trace clock to it, start the
        monitor, run epoch 0 and register the periodic epoch tick."""
        tenant = self.tenant
        kernel = tenant.kernel

        self.queue = EventQueue()
        if self.trace is not None:
            self.trace.bind_clock(self.queue.clock)
        if tenant.monitor is not None:
            tenant.monitor.start(self.queue)

        # --- khugepaged (thp=always only) ----------------------------------
        if tenant.cfg.thp_mode == "always":
            self.queue.schedule_periodic(
                _KHUGEPAGED_PERIOD_US, kernel.khugepaged_scan, name="khugepaged"
            )

        # --- workload epoch loop -------------------------------------------
        self.compute_us = tenant.work.compute_us_per_epoch(self.guest.cpu_scale)
        kernel.sample_memory(0)

        # First epoch at t=0, the rest via the queue; monitor ticks win
        # same-instant ties with the epoch by name (SAME_INSTANT_ORDER).
        self.run_one_epoch(0)
        self.queue.schedule_periodic(self.spec.epoch_us, self.run_one_epoch, name="epoch")
        self.started = True

    def finish(self) -> RunResult:
        """Stop the monitor and assemble the run's :class:`RunResult`.
        A sanitized run first gets the sanitizer's run-end pass, which
        raises like any checkpoint."""
        tenant = self.tenant
        if tenant.sanitizer is not None:
            tenant.sanitizer.check_run_end(tenant.kernel, self.queue.clock.now)
        if tenant.monitor is not None:
            tenant.monitor.stop()

        metrics = tenant.kernel.metrics
        scheme_stats = {}
        if tenant.engine is not None:
            for i, scheme in enumerate(tenant.engine.schemes):
                scheme_stats[f"{i}:{scheme.action.value}"] = {
                    "nr_tried": scheme.stats.nr_tried,
                    "sz_tried": scheme.stats.sz_tried,
                    "nr_applied": scheme.stats.nr_applied,
                    "sz_applied": scheme.stats.sz_applied,
                }
        spec = self.spec
        return RunResult(
            workload=spec.full_name,
            config=tenant.cfg.name,
            machine=self.host.name,
            seed=self.seed,
            duration_us=spec.duration_us,
            runtime_us=metrics.runtime.total_us(),
            avg_rss_bytes=metrics.memory.avg_rss(),
            peak_rss_bytes=float(metrics.memory.peak_rss),
            avg_system_bytes=metrics.memory.avg_system(),
            final_rss_bytes=float(metrics.memory.last_rss),
            final_system_bytes=float(metrics.memory.last_system),
            breakdown=metrics.as_dict(),
            monitor_checks=metrics.monitor_checks,
            monitor_cpu_us=metrics.monitor_cpu_us,
            scheme_stats=scheme_stats,
            snapshots=tenant.snapshots,
            wall_clock_us=(time.perf_counter() - self.wall_start) * 1e6,
            trace_summary=(
                self.trace.summary().as_dict() if self.trace is not None else None
            ),
        )


def run_experiment(
    workload: Union[str, WorkloadSpec],
    *,
    checkpoint: Optional[str] = None,
    checkpoint_every: int = 0,
    **run_kwargs,
) -> RunResult:
    """Run one experiment and return its raw measurements: construct an
    :class:`ExperimentRun` from ``run_kwargs`` (documented there), start
    it, drive it to the workload's duration, finish it.

    ``checkpoint`` names a file to write crash-consistent state
    snapshots to, every ``checkpoint_every`` epochs (0 = once at the
    midpoint).  Checkpointing pauses the event loop between epochs and
    never touches simulation state, so results are byte-identical with
    it on or off; ``daos resume FILE`` completes an interrupted run
    from the latest snapshot.
    """
    run = ExperimentRun(workload, **run_kwargs)
    run.start()
    if checkpoint is not None:
        run_with_checkpoints(run, checkpoint, every=checkpoint_every)
    else:
        run.run_until(run.duration_us)
    return run.finish()


def autotune_scheme(
    workload: Union[str, WorkloadSpec],
    *,
    nr_samples: int = 10,
    min_age_range_s: Tuple[float, float] = (0.0, 60.0),
    seed: int = 0,
    score_function: Optional[ScoreFunction] = None,
    trace: Optional[TraceBus] = None,
    faults: Optional[FaultPlan] = None,
    **run_kwargs,
) -> Tuple[TuningResult, RunResult, RunResult]:
    """Auto-tune the prcl scheme for one workload (§4.3).

    Returns ``(tuning_result, baseline_run, tuned_run)`` where the tuned
    run is the tuner's own measurement of the best ``min_age`` it found
    (a point is simulated once per session).  ``trace`` receives
    one :class:`~repro.trace.events.TuneStep` per sample; the per-sample
    experiment runs keep their own internal buses.  ``run_kwargs``
    (machine, time scale, tier, ...: see :class:`ExperimentRun`) are
    shared by the baseline and every sample.

    ``faults`` applies the plan's ``probe_failure`` specs at the tuner's
    probe hook (retried with exponential backoff in simulated time); the
    per-sample experiment runs themselves are left fault-free so scores
    measure the scheme, not the chaos.
    """
    run_kwargs["seed"] = seed
    baseline = run_experiment(workload, config="baseline", **run_kwargs)

    runs: Dict[int, RunResult] = {}

    def run_at(min_age_s: float) -> RunResult:
        """The prcl run at ``min_age_s``, simulated once per session."""
        min_age_us = max(0, int(min_age_s * 1_000_000))
        if min_age_us not in runs:
            runs[min_age_us] = run_experiment(
                workload, config=prcl_config(min_age_us), **run_kwargs
            )
        return runs[min_age_us]

    def evaluate(min_age_s: float):
        run = run_at(min_age_s)
        return run.runtime_us, run.avg_rss_bytes

    lo, hi = min_age_range_s
    tuner = AutoTuner(
        evaluate,
        (baseline.runtime_us, baseline.avg_rss_bytes),
        lo,
        hi,
        score_function=score_function,
        seed=seed + 10,
        trace=trace,
        faults=FaultInjector(faults, trace=trace) if faults is not None else None,
    )
    result = tuner.tune(nr_samples)
    # ``best_param`` is the validated fitted peak or a sampled point:
    # either way the tuner has measured it.
    return result, baseline, run_at(result.best_param)
