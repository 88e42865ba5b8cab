"""The benchmark's workloads, as run inside one fresh child process.

Each function builds its inputs from the repetition's seed, calls
``rep.begin()`` when set-up ends, drives the program through its public
entry points, calls ``rep.end()``, and returns an :class:`Outcome`:
a digest of the result (host time stripped), the simulated time it
covered, and the exact counts read at the layer boundaries.

Sizes are fixed here.  ``rep.smoke`` shrinks every workload to about a
twentieth for the self-check; ``rep.overrides`` is the ``--curve`` mode's
knobs (``gib`` and ``config``, ``max_nr_regions``, ``n_tenants``).

Why these sizes and not the issue's 4-15 s repetitions: the gate makes
22 runs per workload inside a fixed hour, so a run gets about 15 s for a
warm-up and three fresh-process repetitions.  Each workload keeps the
shape the issue gave it (which layers do the work) at the largest size
that fits.
"""

import hashlib
import importlib
import resource
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns, process_time
from typing import Dict, List

#: (module, owner class, attribute, span name): every call the *program*
#: makes into a layer.  Calls the benchmark makes itself are spanned at
#: the call site below.
LAYER_SPANS = [
    ("repro.workloads.base", "Workload", "run_epoch", "workloads.run_epoch"),
    ("repro.sim.kernel", "SimKernel", "apply_access", "sim.kernel.apply_access"),
    ("repro.sim.kernel", "SimKernel", "end_epoch", "sim.kernel.end_epoch"),
    ("repro.sim.kernel", "SimKernel", "khugepaged_scan", "sim.kernel.khugepaged_scan"),
    ("repro.monitor.core", "DataAccessMonitor", "sample_tick", "monitor.sample_tick"),
    ("repro.monitor.core", "DataAccessMonitor", "aggregate_tick", "monitor.aggregate_tick"),
    (
        "repro.monitor.core",
        "DataAccessMonitor",
        "regions_update_tick",
        "monitor.regions_update_tick",
    ),
    ("repro.schemes.engine", "SchemesEngine", "apply", "schemes.apply"),
    ("repro.sanitize.runtime", "SimSanitizer", "checkpoint_kernel", "sanitize.checkpoint_kernel"),
    (
        "repro.sanitize.runtime",
        "SimSanitizer",
        "checkpoint_monitor",
        "sanitize.checkpoint_monitor",
    ),
    ("repro.sanitize.runtime", "SimSanitizer", "checkpoint_fleet", "sanitize.checkpoint_fleet"),
    ("repro.trace.sink", "JsonlTraceSink", "__call__", "trace.sink"),
    ("repro.monitor.batch", "BatchMonitorPass", "tick", "monitor.batch.tick"),
    ("repro.sweep.cache", "ResultCache", "get", "sweep.cache.get"),
    ("repro.sweep.cache", "ResultCache", "put", "sweep.cache.put"),
    ("repro.recovery.journal", "SweepJournal", "record", "sweep.journal.record"),
]
for _primitive in ("VirtualPrimitive", "PhysicalPrimitive"):
    LAYER_SPANS.append(
        (
            "repro.monitor.primitives",
            _primitive,
            "access_probabilities",
            "monitor.primitives.access_probabilities",
        )
    )
for _action in (
    "pageout",
    "pageout_phys",
    "madvise_willneed",
    "madvise_cold",
    "madvise_hugepage",
    "madvise_nohugepage",
    "lru_prioritize",
    "lru_deprioritize",
    "lru_prioritize_phys",
    "lru_deprioritize_phys",
    "migrate_hot",
    "migrate_cold",
):
    LAYER_SPANS.append(("repro.sim.kernel", "SimKernel", _action, "sim.kernel.scheme_action"))
for _probe in (
    "access_probabilities",
    "write_probabilities",
    "frame_access_probabilities",
    "frame_write_probabilities",
):
    LAYER_SPANS.append(
        ("repro.sim.kernel", "SimKernel", _probe, "sim.kernel.access_probabilities")
    )

#: Spans opened at a call site in this file.
CALL_SITE_SPANS = [
    "runner.import",
    "runner.build",
    "runner.start",
    "runner.dispatch",
    "runner.finish",
    "recovery.checkpoint_run",
    "fleet.build",
    "fleet.dispatch",
    "fleet.finish",
    "sweep.run",
]

SPAN_NAMES = sorted({row[3] for row in LAYER_SPANS} | set(CALL_SITE_SPANS))

#: The managed run's scheme pair, from ``bench_tiering_placement.py``:
#: promote anything seen accessed, demote anything idle for two seconds.
TIERING_SCHEMES = """\
4K max 1 max min max migrate_hot
4K max min min 2s max migrate_cold
"""

#: Epochs between checkpoints on the guarded run.
CHECKPOINT_EVERY = 100

SWEEP_WORKLOADS = ("parsec3/freqmine", "splash2x/ocean_ncp")
SWEEP_CONFIGS = ("rec", "prcl", "thp")


def install_layer_spans(rec) -> None:
    """Wrap every :data:`LAYER_SPANS` callable on its class."""
    for module, owner, attr, name in LAYER_SPANS:
        rec.patch(getattr(importlib.import_module(module), owner), attr, name)


def _cpu_s() -> float:
    """CPU seconds (user + sys) of this process and its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime


@dataclass
class Outcome:
    """What one repetition produced, host time excluded."""

    digest: str
    sim_us: int
    counts: Dict[str, float] = field(default_factory=dict)
    #: Operations inside the repetition beyond the run itself (sweep points).
    attempted: int = 0
    failures: List[str] = field(default_factory=list)


class Repetition:
    """One repetition's inputs and its host-time readings."""

    def __init__(self, args: dict, rec, t0_ns: int):
        """``args`` is the JSON object ``run.py`` hands the child."""
        self.seed = args["seed"]
        self.smoke = args["smoke"]
        #: The discarded first child of a run; two workloads give it a
        #: second job (see ``run_prcl_guarded`` and ``sweep_warm``).
        self.warmup = args["warmup"]
        #: ``--curve`` knobs; empty on every gated run.
        self.overrides = args["overrides"]
        #: Empty directory owned by this repetition.
        self.scratch = Path(args["scratch"])
        #: Directory that outlives the repetition (the filled sweep cache).
        self.shared = Path(args["shared"])
        self.rec = rec
        self.t0_ns = t0_ns
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.t_begin = 0
        self._cpu_begin = 0.0

    def scaled(self, full, smoke):
        return smoke if self.smoke else full

    def begin(self) -> None:
        """Set-up is over; the timed section starts."""
        self._cpu_begin = _cpu_s()
        self.t_begin = perf_counter_ns()
        self.setup_s = (self.t_begin - self.t0_ns) / 1e9

    def end(self) -> None:
        self.wall_s = (perf_counter_ns() - self.t_begin) / 1e9
        self.cpu_s = _cpu_s() - self._cpu_begin


# ----------------------------------------------------------------------
# Single runs
# ----------------------------------------------------------------------
def _single_run(rep, workload, *, guarded=False, **run_kwargs) -> Outcome:
    """Build one :class:`ExperimentRun`, time start → finish, read counts.

    ``guarded`` turns on everything CI turns on: the sanitizer, a JSONL
    sink on the bus, and a checkpoint every :data:`CHECKPOINT_EVERY`
    epochs, driven from here so each checkpoint is its own span.
    """
    from repro.recovery.codec import checkpoint_run
    from repro.runner.experiment import ExperimentRun
    from repro.sweep.serialize import fingerprint
    from repro.trace.bus import TraceBus
    from repro.trace.sink import JsonlTraceSink

    rec = rep.rec
    sink = None
    trace_path = rep.scratch / "trace.jsonl"
    checkpoint_path = rep.scratch / "run.ckpt"
    with rec.span("runner.build"):
        if guarded:
            bus = TraceBus(ring_capacity=0)
            sink = JsonlTraceSink(trace_path)
            bus.subscribe_all(sink)
            run_kwargs["trace"] = bus
        run = ExperimentRun(workload, seed=rep.seed, sanitize=guarded, **run_kwargs)
    duration_us = run.spec.duration_us

    rep.begin()
    with rec.span("runner.start"):
        run.start()
    n_checkpoints = checkpoint_bytes = 0
    if guarded:
        epoch_us = run.spec.epoch_us
        for epoch in range(CHECKPOINT_EVERY, duration_us // epoch_us, CHECKPOINT_EVERY):
            with rec.span("runner.dispatch"):
                run.run_until(epoch * epoch_us)
            n_checkpoints += 1
            with rec.span("recovery.checkpoint_run"):
                checkpoint_run(run, str(checkpoint_path), sequence=n_checkpoints)
            checkpoint_bytes += checkpoint_path.stat().st_size
    with rec.span("runner.dispatch"):
        run.run_until(duration_us)
    with rec.span("runner.finish"):
        result = run.finish()
    if sink is not None:
        sink.close()
    rep.end()

    tenant = run.tenant
    metrics = tenant.kernel.metrics
    sample_ticks = duration_us // tenant.monitor.attrs.sampling_interval_us if tenant.monitor else 0
    tried = sum(s["nr_tried"] for s in result.scheme_stats.values())
    applied = sum(s["nr_applied"] for s in result.scheme_stats.values())
    violations = len(tenant.sanitizer.violations) if tenant.sanitizer is not None else 0
    counts = {
        "sim.kernel.n_pages": tenant.kernel.space.flat.n_pages,
        "sim.kernel.minor_faults": metrics.minor_faults,
        "sim.kernel.major_faults": metrics.major_faults,
        "sim.kernel.reclaim_evictions": metrics.reclaim_evictions,
        "sim.kernel.pages_swapped_out": metrics.pages_swapped_out,
        "sim.kernel.pages_demoted": metrics.pages_demoted,
        "sim.kernel.pages_promoted": metrics.pages_promoted,
        "sim.modelled_runtime_us": result.runtime_us,
        "sim.avg_rss_mib": result.avg_rss_bytes / 2**20,
        "monitor.checks": result.monitor_checks,
        "monitor.modelled_cpu_us": result.monitor_cpu_us,
        # Every sample tick checks one page per region.
        "monitor.nr_regions_mean": result.monitor_checks / sample_ticks if sample_ticks else 0.0,
        "schemes.nr_tried": tried,
        "schemes.nr_applied": applied,
        "schemes.sz_applied_bytes": sum(s["sz_applied"] for s in result.scheme_stats.values()),
        "schemes.apply_ratio": applied / tried if tried else 0.0,
        "trace.events": sink.n_written if sink is not None else 0,
        "trace.bytes_written": trace_path.stat().st_size if sink is not None else 0,
        "sanitize.violations": violations,
        "recovery.checkpoints": n_checkpoints,
        "recovery.checkpoint_bytes": checkpoint_bytes,
    }
    failures = [f"{violations} sanitizer violation(s)"] if violations else []
    # fingerprint() drops wall_clock_us and the bus roll-up, which counts
    # CheckpointWritten events: instrumentation, not simulation.
    return Outcome(fingerprint(result), duration_us, counts, failures=failures)


def _prcl_kwargs(rep) -> dict:
    from repro.monitor.attrs import MonitorAttrs

    kwargs = {"config": "prcl", "time_scale": rep.scaled(0.375, 0.02)}
    if "max_nr_regions" in rep.overrides:
        # The floor moves with the cap (the paper's bounds are 10..1000
        # by default), or the region count would not follow the knob.
        cap = int(rep.overrides["max_nr_regions"])
        kwargs["attrs"] = MonitorAttrs(min_nr_regions=max(10, cap // 10), max_nr_regions=cap)
    return kwargs


def run_prcl(rep) -> Outcome:
    """parsec3/freqmine under the paper's proactive-reclamation scheme:
    150 sim-s, 1501 epochs, 30k sample ticks, a 500 MiB mapping."""
    return _single_run(rep, "parsec3/freqmine", **_prcl_kwargs(rep))


def run_prcl_guarded(rep) -> Outcome:
    """The same spec and seed as ``run-prcl``, observed.  The warm-up is
    the *plain* run, so every run of this workload checks that guarding a
    run does not change its result."""
    return _single_run(rep, "parsec3/freqmine", guarded=not rep.warmup, **_prcl_kwargs(rep))


def kernel_pressure(rep) -> Outcome:
    """A 4 GiB cyclic sweep through 32 MiB of guest DRAM with file swap
    and no monitor: reclaim and the LRU do nearly all the work."""
    from repro.sim.machine import scaled_instance
    from repro.units import GIB, MIB, SEC
    from repro.workloads.base import WorkloadSpec
    from repro.workloads.patterns import CyclicSweep, Hotspot

    sweep_bytes = int(float(rep.overrides.get("gib", 4)) * GIB)
    spec = WorkloadSpec(
        name="kernel_pressure",
        suite="bench",
        footprint=sweep_bytes + 4 * MIB,
        duration_us=rep.scaled(160, 8) * SEC,
        components=(
            CyclicSweep(offset=0, size=sweep_bytes, period_us=128 * SEC, touches_per_sec=400.0),
            Hotspot(offset=sweep_bytes, size=4 * MIB),
        ),
    )
    return _single_run(
        rep,
        spec,
        config=rep.overrides.get("config", "baseline"),
        machine=scaled_instance("i3.metal", dram_scale=1 / 1024),
        swap="file",
        collect_trace=False,
    )


def tiered_managed(rep) -> Outcome:
    """A 192 MiB hot window walking a 1 GiB footprint on 512 MiB of DRAM
    plus a 1 GiB cxl-dram tier, under the migrate_hot/migrate_cold pair."""
    from repro.runner.configs import ExperimentConfig
    from repro.sim.machine import scaled_instance
    from repro.units import GIB, MIB, SEC
    from repro.workloads.base import WorkloadSpec
    from repro.workloads.patterns import ColdInit, PhasedHotspot

    # x9 seconds: the run ends mid-dwell, as in bench_tiering_placement.
    spec = WorkloadSpec(
        name="tiered_managed",
        suite="bench",
        footprint=1 * GIB,
        duration_us=rep.scaled(109, 9) * SEC,
        components=(
            ColdInit(offset=0, size=1 * GIB, init_us=2 * SEC),
            PhasedHotspot(
                offset=0,
                size=1 * GIB,
                hot_bytes=192 * MIB,
                dwell_us=10 * SEC,
                n_positions=20,
                touches_per_sec=2000.0,
            ),
        ),
    )
    return _single_run(
        rep,
        spec,
        config=ExperimentConfig(name="tiering", monitor="vaddr", schemes_text=TIERING_SCHEMES),
        machine=scaled_instance("i3.metal", dram_scale=1 / 64),
        tier="cxl-dram",
        tier_scale=1 / 256,
    )


# ----------------------------------------------------------------------
# Fleet
# ----------------------------------------------------------------------
def fleet_10k(rep) -> Outcome:
    """10 000 tenants on one batched scheduler; no page-granular kernel."""
    from repro.fleet.scheduler import FleetConfig, FleetScheduler

    rec = rep.rec
    cfg = FleetConfig(
        n_tenants=int(rep.overrides.get("n_tenants", rep.scaled(10000, 500))),
        duration_s=rep.scaled(300, 60),
        footprint_mib=48,
        arrival_window_s=20,
        seed=rep.seed,
    )
    with rec.span("fleet.build"):
        scheduler = FleetScheduler(cfg, sanitize=False)

    rep.begin()
    queue = scheduler.start_loop()
    with rec.span("fleet.dispatch"):
        queue.run_until(cfg.duration_us)
    with rec.span("fleet.finish"):
        result = scheduler.finish()
    rep.end()

    counts = {
        "fleet.n_regions": result.n_regions,
        "fleet.reclaim_passes": result.reclaim_passes,
        "fleet.pageout_pages": result.pageout_pages,
        "fleet.degraded_ticks": result.degraded_ticks,
        "fleet.monitor_checks": result.monitor_checks,
        "fleet.tenant_ticks": result.n_tenants * (cfg.duration_us // cfg.tick_us),
    }
    return Outcome(result.digest(), cfg.duration_us, counts)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def _sweep(rep, cache_dir, n_runs) -> Outcome:
    """``n_runs`` back-to-back ``SweepRunner.run`` calls on one cache:
    the fig-7 grid of two workloads under baseline, rec, prcl and thp."""
    from repro.sweep.presets import fig7_grid
    from repro.sweep.runner import SweepRunner

    grid = fig7_grid(
        SWEEP_WORKLOADS[:1] if rep.smoke else SWEEP_WORKLOADS,
        configs=SWEEP_CONFIGS,
        seed=rep.seed,
        time_scale=rep.scaled(0.1, 0.01),
    )
    kids_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    n_points = sim_us = executed = cached = failed = 0
    point_wall_s = 0.0
    rep.begin()
    for _ in range(n_runs):
        # jobs=2 whatever the host: one worker would take the in-process
        # path and skip the supervisor this workload is here to measure.
        runner = SweepRunner(
            grid, jobs=2, cache_dir=cache_dir, journal_dir=rep.scratch / "journal"
        )
        with rep.rec.span("sweep.run"):
            report = runner.run()
        # Tallied here, a few additions per run, so that only the last
        # report is held: sixty of them would be the child's peak RSS.
        n_points += report.n_total
        executed += report.n_executed
        cached += report.n_cached
        failed += report.n_failed
        sim_us += sum(o.value.duration_us for o in report.outcomes if o.ok)
        point_wall_s += sum(o.wall_s for o in report.outcomes if not o.cached)
    rep.end()
    kids_after = resource.getrusage(resource.RUSAGE_CHILDREN)

    children_cpu_s = (
        kids_after.ru_utime + kids_after.ru_stime - kids_before.ru_utime - kids_before.ru_stime
    )
    counts = {
        "sweep.n_executed": executed,
        "sweep.n_cached": cached,
        "sweep.n_failed": failed,
        "sweep.point_wall_s": point_wall_s,
        "sweep.children_cpu_s": children_cpu_s,
        "sweep.cache_bytes": sum(p.stat().st_size for p in Path(cache_dir).glob("*/*.json")),
        "sweep.spawn_overhead_s": children_cpu_s - point_wall_s,
    }
    return Outcome(
        hashlib.sha256(report.canonical_json().encode("utf-8")).hexdigest(),
        sim_us,
        counts,
        attempted=n_points,
        failures=[f"{failed} sweep point(s) failed"] if failed else [],
    )


def sweep_cold(rep) -> Outcome:
    """Eight points on two workers into an empty cache and journal:
    process spawn, import and fsync next to the simulation itself."""
    return _sweep(rep, rep.scratch / "cache", 1)


def sweep_warm(rep) -> Outcome:
    """The same grid served from a filled cache, 60 times over.  The
    warm-up *is* the cold fill, so the digest check across the run's
    children is the warm-equals-cold check."""
    return _sweep(rep, rep.shared / "cache", 1 if rep.warmup else rep.scaled(60, 3))


WORKLOADS = {
    "run-prcl": run_prcl,
    "run-prcl-guarded": run_prcl_guarded,
    "kernel-pressure": kernel_pressure,
    "tiered-managed": tiered_managed,
    "fleet-10k": fleet_10k,
    "sweep-8pt-cold": sweep_cold,
    "sweep-8pt-warm": sweep_warm,
}
