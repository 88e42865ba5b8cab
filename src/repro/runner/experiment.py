"""The experiment driver: one (workload × machine × config) simulation.

Wiring order inside :func:`run_experiment` mirrors the real system's
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
from ..errors import ConfigError
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..monitor.attrs import MonitorAttrs
from ..monitor.core import DataAccessMonitor
from ..monitor.primitives import PhysicalPrimitive, VirtualPrimitive
from ..recovery.codec import PausedSimulation, run_with_checkpoints
from ..sanitize.runtime import resolve_sanitizer
from ..schemes.engine import SchemesEngine
from ..sim.costs import CostModel
from ..sim.kernel import SimKernel, check_tier_policy
from ..sim.machine import MachineSpec, TierSpec, get_instance, guest_of, scaled_tier
from ..sim.swap import FileSwapDevice, NoSwapDevice, ZramDevice
from ..sim.thp import ThpPolicy
from ..trace.bus import TraceBus
from ..tuning.runtime import AutoTuner, TuningResult
from ..tuning.score import ScoreFunction
from ..units import GIB, SEC
from ..workloads.base import Workload, WorkloadSpec
from ..workloads.registry import get_workload
from .configs import ExperimentConfig, get_config, prcl_config
from .results import RunResult

__all__ = [
    "SWAP_KINDS",
    "MachineBuild",
    "TenantBuild",
    "SnapshotRecorder",
    "build_machine",
    "build_tenant",
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

#: The swap backends a machine can be built with.
SWAP_KINDS = ("zram", "file", "none")


def _build_swap(kind: str, machine, capacity: Optional[int] = None) -> object:
    """The run's swap device; ZRAM speed scales with the host clock,
    file swap latency comes from the instance's NVMe characteristics.
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


@dataclass(frozen=True)
class MachineBuild:
    """One simulated machine, ready to host a tenant.

    Produced by :func:`build_machine`; consumed by the single-run path
    (:func:`run_experiment`) and by the fleet layer (which sizes its
    shared physical pool and swap from the same catalog data).
    """

    host: MachineSpec
    guest: object  # GuestSpec
    swap: object  # SwapDevice
    #: Tier placement policy for the guest kernel when the machine has a
    #: slow tier: ``"managed"`` (demote-before-swap plus migrations) or
    #: ``"unmanaged"`` (faults spill into the slow tier, nothing moves).
    tier_policy: str = "managed"


def build_machine(
    machine: Union[str, MachineSpec] = "i3.metal",
    *,
    swap: str = "zram",
    tier: Union[str, TierSpec, None] = None,
    tier_scale: float = 1.0,
    tier_policy: str = "managed",
) -> MachineBuild:
    """Resolve a machine name (or ready spec) into host, guest and swap.

    This is the machine half of the construction :func:`run_experiment`
    used to do inline; the fleet scheduler calls it too, so both paths
    agree on guest sizing and swap-device calibration.

    ``tier`` attaches a slow memory tier (NVM/CXL) to the guest: a
    catalog name from :func:`~repro.sim.machine.tier_catalog` scaled by
    ``tier_scale``, or a ready :class:`~repro.sim.machine.TierSpec`
    (``tier_scale`` is then ignored — the spec is authoritative).
    """
    host = machine if isinstance(machine, MachineSpec) else get_instance(machine)
    slow = None
    if tier is not None:
        slow = tier if isinstance(tier, TierSpec) else scaled_tier(tier, capacity_scale=tier_scale)
    return MachineBuild(
        host=host,
        guest=guest_of(host, slow_tier=slow),
        swap=_build_swap(swap, host),
        tier_policy=check_tier_policy(tier_policy),
    )


@dataclass
class TenantBuild:
    """One fully wired tenant: kernel, workload, monitoring stack.

    Produced by :func:`build_tenant`.  The caller owns the event loop:
    it creates the :class:`~repro.clock.EventQueue`, calls
    :meth:`start` (which binds the trace clock and registers the
    monitor's periodic ticks), then drives the epoch loop.
    """

    spec: WorkloadSpec
    cfg: ExperimentConfig
    kernel: object
    work: Workload
    monitor: Optional[DataAccessMonitor]
    engine: Optional[SchemesEngine]
    sanitizer: Optional[object]
    trace: Optional[TraceBus]
    snapshots: Optional[List] = field(default=None)

    def start(self, queue: EventQueue) -> None:
        """Bind the run's clock and start the monitor on ``queue``."""
        if self.trace is not None:
            self.trace.bind_clock(queue.clock)
        if self.monitor is not None:
            self.monitor.start(queue)


def build_tenant(
    spec: WorkloadSpec,
    *,
    config: Union[str, ExperimentConfig] = "baseline",
    machine: MachineBuild,
    seed: int = 0,
    attrs: Optional[MonitorAttrs] = None,
    costs: Optional[CostModel] = None,
    trace: Optional[TraceBus] = None,
    injector: Optional[FaultInjector] = None,
    oom_policy: str = "raise",
    sanitizer=None,
) -> TenantBuild:
    """Wire one tenant on ``machine``: kernel, workload, monitor, engine.

    Construction order mirrors the real system's boot (guest kernel,
    then kdamond, then the schemes engine); the workload's address-space
    layout is created here so a returned tenant is ready for its first
    epoch.  Seed derivation is the historical contract: kernel ``seed``,
    workload ``seed + 1``, monitor ``seed + 2``.

    This is the one place a run's collaborators are handed out, each as
    a constructor argument: the trace bus and fault injector to kernel,
    monitor and engine; the sanitizer to kernel and monitor (and the
    monitor and engine to it, for the epoch-boundary checks).
    """
    cfg = get_config(config) if isinstance(config, str) else config
    kernel = SimKernel(
        machine.guest,
        swap=machine.swap,
        costs=costs,
        thp=ThpPolicy(mode=cfg.thp_mode),
        seed=seed,
        trace=trace,
        faults=injector,
        oom_policy=oom_policy,
        sanitizer=sanitizer,
        tier_policy=machine.tier_policy,
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
    return TenantBuild(
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


class ExperimentRun(PausedSimulation):
    """One experiment as a steppable object: construct, :meth:`start`,
    drive time with :meth:`run_until`, then :meth:`finish`.

    The constructor's keywords are *the* declaration of a run's
    parameters: :func:`run_experiment`, :func:`autotune_scheme`,
    :func:`~repro.perf.profile_run` and the CLI forward them here
    without re-declaring them.  The three seams exist so the recovery
    layer can pause a run at any epoch boundary, snapshot it, and later
    resume a byte-identical continuation.  The wiring order inside is
    the system's boot order — monitor ticks, then khugepaged, then the
    epoch tick; same-instant ties follow the periodics' names
    (:data:`~repro.clock.SAME_INSTANT_ORDER`), not this order.

    ``config`` is a configuration name from
    :data:`~repro.runner.configs.CONFIGS` or a ready
    :class:`~repro.runner.configs.ExperimentConfig`.  ``machine`` is an
    instance name or a ready-made :class:`~repro.sim.machine.MachineSpec`
    (e.g. from ``scaled_instance``); ``swap`` picks the swap backend
    (``zram`` | ``file`` | ``none``).  ``seed`` seeds the kernel, the
    workload (``seed + 1``) and the monitor (``seed + 2``).

    ``time_scale`` shrinks the workload's nominal duration for fast CI
    runs (scheme ages and pattern periods are *not* scaled — they are
    what is being measured).  A recording config (``rec``, ``prec``)
    keeps about 240 aggregation snapshots for heatmap rendering.
    ``attrs`` and ``costs`` override the monitor attributes and the cost
    model.

    ``tier`` gives the guest a slow memory tier (a catalog name such as
    ``"optane-pmm"`` or ``"cxl-dram"``, capacity-scaled by
    ``tier_scale``, or a ready :class:`~repro.sim.machine.TierSpec`).
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

        # --- construction, via the shared factories ------------------------
        mb = build_machine(
            machine, swap=swap, tier=tier, tier_scale=tier_scale, tier_policy=tier_policy
        )
        self.host, self.guest = mb.host, mb.guest
        self.tenant = build_tenant(
            spec,
            config=config,
            machine=mb,
            seed=seed,
            attrs=attrs,
            costs=costs,
            trace=trace,
            injector=injector,
            oom_policy=oom_policy,
            sanitizer=sanitizer,
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
        """Create the event queue, start the monitor, run epoch 0 and
        register the periodic epoch tick."""
        tenant = self.tenant
        kernel = tenant.kernel

        self.queue = EventQueue()
        tenant.start(self.queue)

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
