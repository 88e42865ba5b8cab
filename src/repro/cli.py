"""``daos`` — the command-line face of the reproduction.

Mirrors the upstream user-space tooling's verbs:

* ``daos workloads``                     — list the workload catalog;
* ``daos record <workload>``             — run under monitoring and print
  the access-pattern heatmap (Figure 6 for one workload);
* ``daos run <workload> -c <config>``    — run one configuration and
  print raw + normalised metrics;
* ``daos schemes <workload> -f FILE``    — run with a user scheme file
  (Listing 1/3 format);
* ``daos tune <workload>``               — auto-tune the reclamation
  scheme and report the chosen ``min_age`` (Figure 5 for one workload);
* ``daos wss <workload>``                — working-set-size estimate;
* ``daos sweep``                         — run a whole grid of
  experiments across a worker pool with on-disk result caching
  (``--grid fig3``/``fig7`` presets, or ``--workloads``/``--configs``/
  ``--seeds`` axes);
* ``daos trace <workload>``              — run under the trace bus and
  stream the typed event log as canonical JSONL (``--validate FILE``
  schema-checks an existing trace instead);
* ``daos lint``                          — static analysis: scheme
  semantic diagnostics (``--schemes FILE``) and the determinism AST
  lint over python trees (defaults to the installed ``repro`` package);
  exits non-zero only on error-severity findings;
* ``daos chaos``                         — smoke-run a seeded fault
  plan (the built-in chaos plan by default) against one workload and
  report what fired, what degraded, and what recovered;
* ``daos perf <workload>``               — profile one run: per-layer
  event/op/estimated-cost counters riding the trace bus, emitted as a
  deterministic JSON breakdown (same seed → same report, except the
  ``volatile`` wall-clock block);
* ``daos fleet``                         — run a whole multi-tenant
  fleet (thousands of serverless tenants against one shared physical
  pool) in one process, optionally sharded over the sweep worker pool
  (``--shards``/``--jobs``); ``--out FILE`` writes the canonical
  summary JSON two seeded runs of which compare byte-identical;
  ``--faults PLAN`` injects fleet-level chaos (tenant storms,
  pool-pressure spikes), ``--journal DIR``/``--resume`` write-ahead
  journal sharded runs;
* ``daos resume <checkpoint>``           — complete an interrupted
  ``run`` or ``fleet`` from its latest crash-consistent checkpoint
  (written via ``--checkpoint FILE [--checkpoint-every N]``).

The global flags (``--machine``, ``--seed``, ``--time-scale``,
``--tier``, ``--tier-scale``, ``--tier-policy``) precede the verb and
reach every verb that runs an experiment.  ``run``, ``schemes``,
``tune`` and ``chaos`` also accept ``--trace FILE`` to write the run's
event stream alongside their normal report.  ``run``, ``tune``,
``sweep`` and ``fleet`` accept ``--faults PLAN`` to inject a fault plan
(TOML/JSON, see ``repro.faults``) into the run.

Errors derived from :class:`~repro.errors.DaosError` print one line to
stderr and exit 2 — except two failure classes with their own codes so
scripts can tell them apart: a sweep whose points were killed by the
supervisor's watchdog exits **3**, and a checkpoint that cannot be
trusted (digest mismatch, format/version skew) exits **4**.  Anything
else keeps its full traceback (it is a bug, not a usage problem).

Invoke as ``python -m repro.cli`` or via the ``daos`` entry point.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .analysis.ascii_plot import ascii_series
from .analysis.heatmap import build_heatmap, render_heatmap
from .analysis.recording import heatmap_to_pgm, load_record, record_metadata, save_record
from .analysis.report import format_normalized_rows
from .analysis.wss import wss_from_snapshots
from .errors import CheckpointError, ConfigError, DaosError, WatchdogTimeout
from .faults import builtin_chaos_plan, load_fault_plan
from .lint import (
    DEFAULT_BASELINE_NAME,
    Severity,
    analyze_scheme_text,
    apply_baseline,
    lint_paths,
    load_baseline,
    render_json,
    render_text,
    write_baseline,
)
from .perf import profile_run
from .runner.configs import CONFIGS, ExperimentConfig
from .runner.experiment import autotune_scheme, run_experiment
from .runner.results import normalize
from .sweep.grid import SweepGrid
from .sweep.presets import PRESETS, fig7_grid, summarize_fig7
from .sweep.runner import SweepRunner
from .trace import FieldHistogram, JsonlTraceSink, TraceBus, validate_trace_file
from .trace.events import EpochEnd
from .units import MIB, format_size
from .workloads.registry import all_workloads

__all__ = ["main", "build_parser"]


def _option_group() -> argparse.ArgumentParser:
    """An empty parent parser: each shared flag is declared once on one
    of these and inherited by its verbs via ``parents=[...]``."""
    return argparse.ArgumentParser(add_help=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daos",
        description="Data access-aware memory management (HPDC '22 reproduction)",
    )
    # The six global flags (see _run_kwargs) live on the root parser only
    # and precede the verb: declaring them on the verb parsers too would
    # let each sub-namespace's defaults clobber the root's values.
    parser.add_argument("--machine", default="i3.metal", help="instance type (Table 2)")
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument(
        "--time-scale",
        type=float,
        default=0.25,
        help="scale workload durations (1.0 = the paper's full runs)",
    )
    parser.add_argument(
        "--tier",
        default=None,
        metavar="NAME",
        help="attach a slow memory tier to the guest (optane-pmm | cxl-dram); "
        "reclaim then demotes before swapping and schemes may use the "
        "migrate_hot/migrate_cold actions",
    )
    parser.add_argument(
        "--tier-scale",
        type=float,
        default=1.0,
        help="scale the slow tier's capacity (with --tier)",
    )
    parser.add_argument(
        "--tier-policy",
        choices=("managed", "unmanaged"),
        default="managed",
        help="tier placement policy (with --tier): managed demotes before "
        "swapping and migrates by heat; unmanaged only spills faults into "
        "the slow tier",
    )

    trace_opt = _option_group()
    trace_opt.add_argument(
        "--trace", metavar="FILE", help="write the run's trace-event JSONL here"
    )
    faults_opt = _option_group()
    faults_opt.add_argument(
        "--faults",
        metavar="PLAN",
        help="inject this fault plan (TOML/JSON file; each verb applies "
        "the plan's specs for its own hooks)",
    )
    sanitize_opt = _option_group()
    sanitize_opt.add_argument(
        "--sanitize",
        action="store_true",
        help="run the SimSanitizer invariant checks at every epoch or "
        "fleet-tick boundary (also enabled by DAOS_SANITIZE=1)",
    )
    checkpoint_opts = _option_group()
    checkpoint_opts.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="write crash-consistent state snapshots here "
        "(resume with 'daos resume FILE')",
    )
    checkpoint_opts.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="checkpoint every N epochs (fleet: ticks); 0 = once at the midpoint",
    )
    pool_opts = _option_group()
    pool_opts.add_argument(
        "-j", "--jobs", type=int, default=1, help="worker processes (1 = in-process)"
    )
    pool_opts.add_argument(
        "--journal",
        metavar="DIR",
        help="write-ahead journal completed points or shards to DIR/journal.jsonl",
    )
    pool_opts.add_argument(
        "--resume",
        action="store_true",
        help="replay completed work from the --journal directory and "
        "re-execute only the rest",
    )

    def config_opt(default: str) -> argparse.ArgumentParser:
        # One parent per default: parents share their action objects, so
        # a set_defaults() on one verb would re-default every other.
        group = _option_group()
        group.add_argument("-c", "--config", default=default, choices=sorted(CONFIGS))
        return group

    rec_config_opt = config_opt("rec")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the workload catalog")

    p_record = sub.add_parser("record", help="monitor a workload; print its heatmap")
    p_record.add_argument("workload")
    p_record.add_argument("--paddr", action="store_true", help="monitor physical memory")
    p_record.add_argument("-o", "--output", help="save the record to this file")

    p_report = sub.add_parser("report", help="report on a saved record file")
    p_report.add_argument("record", help="file written by 'record --output'")
    p_report.add_argument("--pgm", help="also export the heatmap as a PGM image")
    p_report.add_argument("--min-freq", type=float, default=0.05)

    p_run = sub.add_parser(
        "run",
        help="run one configuration",
        parents=[config_opt("baseline"), trace_opt, faults_opt, sanitize_opt, checkpoint_opts],
    )
    p_run.add_argument("workload")

    p_schemes = sub.add_parser(
        "schemes", help="run with a custom scheme file", parents=[trace_opt]
    )
    p_schemes.add_argument("workload")
    p_schemes.add_argument("-f", "--file", required=True, help="scheme text file")

    p_tune = sub.add_parser(
        "tune",
        help="auto-tune the reclamation scheme",
        description="Auto-tune the reclamation scheme.  --trace receives the "
        "tuner's TuneStep events; of a --faults plan only the probe_failure "
        "specs apply (the per-sample runs stay fault-free).",
        parents=[trace_opt, faults_opt],
    )
    p_tune.add_argument("workload")
    p_tune.add_argument("-n", "--samples", type=int, default=10)

    p_wss = sub.add_parser("wss", help="estimate the working set size")
    p_wss.add_argument("workload")
    p_wss.add_argument("--min-freq", type=float, default=0.05)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a grid of experiments in parallel with result caching",
        description="Run a grid of experiments in parallel with result "
        "caching.  Of a --faults plan the worker-crash specs apply.",
        parents=[pool_opts, faults_opt, sanitize_opt],
    )
    p_sweep.add_argument(
        "--grid", choices=sorted(PRESETS), help="preset grid (fig3 | fig7)"
    )
    p_sweep.add_argument(
        "--workloads", help="comma-separated workload names, or 'all' (custom grids)"
    )
    p_sweep.add_argument(
        "--configs", default="baseline,rec", help="comma-separated configuration names"
    )
    p_sweep.add_argument("--seeds", default="0", help="comma-separated seeds")
    p_sweep.add_argument(
        "--cache-dir",
        default=".daos-sweep-cache",
        help="result cache directory (completed points resume from here)",
    )
    p_sweep.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    p_sweep.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retry a failed point this many times (default 1)",
    )
    p_sweep.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-point wall-clock timeout (pool mode only)",
    )
    p_sweep.add_argument(
        "-o", "--out",
        metavar="FILE",
        help="write the canonical (volatile-free) report JSON here",
    )

    p_trace = sub.add_parser(
        "trace",
        help="run under the trace bus; stream canonical JSONL events",
        parents=[rec_config_opt],
    )
    p_trace.add_argument(
        "workload", nargs="?", help="workload to trace (omit with --validate)"
    )
    p_trace.add_argument(
        "-o", "--output", help="write the JSONL here (default: stdout)"
    )
    p_trace.add_argument(
        "--validate",
        metavar="FILE",
        help="schema-validate an existing trace file and print its summary",
    )

    p_chaos = sub.add_parser(
        "chaos",
        help="smoke-run a seeded fault plan; report faults, retries, degradation",
        parents=[rec_config_opt, trace_opt, sanitize_opt],
    )
    p_chaos.add_argument(
        "workload",
        nargs="?",
        default="parsec3/swaptions",
        help="workload to torment (default: parsec3/swaptions)",
    )
    p_chaos.add_argument(
        "--plan",
        metavar="FILE",
        help="fault plan to run (default: the built-in chaos plan)",
    )

    p_perf = sub.add_parser(
        "perf",
        help="profile one run; emit a per-layer JSON cost breakdown",
        parents=[rec_config_opt],
    )
    p_perf.add_argument("workload")
    p_perf.add_argument(
        "-o", "--output", help="write the JSON report here (default: stdout)"
    )

    p_fleet = sub.add_parser(
        "fleet",
        help="run a multi-tenant fleet against one shared physical pool",
        description="Run a multi-tenant fleet against one shared physical "
        "pool.  Of a --faults plan the fleet specs (tenant_storm, "
        "pool_pressure_spike) apply.  --checkpoint needs a single-pool run; "
        "--journal/--resume need a sharded one (--shards > 1).",
        parents=[pool_opts, faults_opt, sanitize_opt, checkpoint_opts],
    )
    p_fleet.add_argument(
        "-n", "--tenants", type=int, default=1000, help="fleet size (default 1000)"
    )
    p_fleet.add_argument(
        "--duration", type=float, default=300.0, metavar="SECONDS",
        help="simulated duration per tenant (default 300s)",
    )
    p_fleet.add_argument(
        "--footprint-mib", type=int, default=64,
        help="mean tenant footprint in MiB (each tenant draws ±25%%)",
    )
    p_fleet.add_argument(
        "--cold-share", type=float, default=0.9,
        help="mean cold fraction of each tenant's footprint (default 0.9)",
    )
    p_fleet.add_argument(
        "--min-age", type=float, default=30.0, metavar="SECONDS",
        help="reclamation scheme min_age; 0 disables the scheme",
    )
    p_fleet.add_argument(
        "--pool-ratio", type=float, default=0.6,
        help="physical pool as a fraction of total fleet footprint",
    )
    p_fleet.add_argument(
        "--pool-gib", type=float, default=0.0,
        help="physical pool in GiB (overrides --pool-ratio when > 0)",
    )
    p_fleet.add_argument(
        "--swap", choices=("zram", "file", "none"), default="zram",
        help="swap backend for reclaimed pages (default zram)",
    )
    p_fleet.add_argument(
        "--shards", type=int, default=1,
        help="split the fleet into this many pools over the sweep runner",
    )
    p_fleet.add_argument(
        "-o", "--out", metavar="FILE",
        help="write the canonical (volatile-free) summary JSON here",
    )
    p_fleet.add_argument(
        "--naive",
        action="store_true",
        help="run each tenant as its own run_experiment call instead of the "
        "batched scheduler (slow; for cross-validation at small -n)",
    )

    p_resume = sub.add_parser(
        "resume", help="complete an interrupted run or fleet from a checkpoint"
    )
    p_resume.add_argument(
        "checkpoint", help="file written by 'daos run/fleet --checkpoint'"
    )
    p_resume.add_argument(
        "--allow-version-skew",
        action="store_true",
        help="resume even if the checkpoint was written by different code "
        "(results may not be byte-identical)",
    )
    p_resume.add_argument(
        "-o", "--out",
        metavar="FILE",
        help="write the canonical summary JSON here (fleet checkpoints)",
    )

    p_lint = sub.add_parser(
        "lint", help="static analysis: scheme semantics + determinism lint"
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        help="python files or trees to lint (default: the repro package, "
        "unless only --schemes is given)",
    )
    p_lint.add_argument(
        "--paths",
        action="append",
        default=[],
        dest="extra_paths",
        metavar="PATH",
        help="additional python files or trees to lint (repeatable; "
        "Makefile targets use this to cover benchmarks/ and tests/)",
    )
    p_lint.add_argument(
        "--schemes",
        action="append",
        default=[],
        metavar="FILE",
        help="also run the scheme semantic analyzer on this scheme file "
        "(repeatable)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    p_lint.add_argument(
        "--baseline",
        metavar="FILE",
        help=f"baseline file of grandfathered findings "
        f"(default: ./{DEFAULT_BASELINE_NAME} when present)",
    )
    p_lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings as the new baseline and exit 0",
    )
    return parser


def _cmd_workloads(args) -> int:
    print(f"{'workload':28s} {'footprint':>10s} {'duration':>9s}")
    for spec in all_workloads():
        print(
            f"{spec.full_name:28s} {format_size(spec.footprint):>10s} "
            f"{spec.duration_us / 1e6:8.0f}s"
        )
    return 0


def _cmd_record(args) -> int:
    config = ExperimentConfig(
        name="prec" if args.paddr else "rec",
        monitor="paddr" if args.paddr else "vaddr",
        record=True,
    )
    result = run_experiment(args.workload, config=config, **_run_kwargs(args))
    heatmap = build_heatmap(result.snapshots)
    print(render_heatmap(heatmap, title=f"{args.workload} ({config.name})"))
    print(
        f"\nmonitor: {result.monitor_checks} checks, "
        f"{result.monitor_cpu_share * 100:.2f}% of one CPU"
    )
    if args.output:
        path = save_record(
            result.snapshots,
            args.output,
            workload=args.workload,
            machine=args.machine,
            extra={"config": config.name, "seed": args.seed},
        )
        print(f"record saved to {path}")
    return 0


def _cmd_report(args) -> int:
    meta = record_metadata(args.record)
    snapshots = load_record(args.record)
    title = meta["workload"] or args.record
    heatmap = build_heatmap(snapshots)
    print(render_heatmap(heatmap, title=f"{title} (from record)"))
    stats = wss_from_snapshots(snapshots, min_frequency=args.min_freq)
    print(f"\nworking set (>= {args.min_freq:.0%} frequency):")
    for key in ("p25", "p50", "p75", "mean"):
        print(f"  {key:>4s}: {format_size(int(stats[key]))}")
    if args.pgm:
        path = heatmap_to_pgm(heatmap, args.pgm)
        print(f"heatmap image written to {path}")
    return 0


def _print_run(result, baseline) -> None:
    print(f"runtime      : {result.runtime_us / 1e6:.2f}s")
    print(f"avg RSS      : {result.avg_rss_bytes / MIB:.1f} MiB")
    print(f"peak RSS     : {result.peak_rss_bytes / MIB:.1f} MiB")
    if result.monitor_checks:
        print(f"monitor CPU  : {result.monitor_cpu_share * 100:.2f}%")
    for name, stats in result.scheme_stats.items():
        print(
            f"scheme {name}: tried {stats['nr_tried']} regions "
            f"({format_size(int(stats['sz_tried']))}), applied "
            f"{stats['nr_applied']} ({format_size(int(stats['sz_applied']))})"
        )
    if baseline is not None:
        print()
        print(format_normalized_rows([normalize(result, baseline)]))


def _run_kwargs(args) -> dict:
    """The six global flags as :class:`~repro.runner.experiment.ExperimentRun`
    keywords — the one place the CLI maps flags to run parameters, so
    every experiment-running verb honours all six."""
    return dict(
        machine=args.machine,
        seed=args.seed,
        time_scale=args.time_scale,
        tier=args.tier,
        tier_scale=args.tier_scale,
        tier_policy=args.tier_policy,
    )


@contextmanager
def _jsonl_trace(path, bus=None):
    """The bus a verb traces its run on, streaming to ``path`` as JSONL.

    Without ``path`` this yields ``bus`` unchanged (``None`` lets the run
    keep its internal bus).  With one, a sink is subscribed to ``bus``
    (or to a fresh bus), closed however the block exits, and the
    ``trace: N events`` line is printed after the verb's own report —
    so the block wraps the run *and* its report.
    """
    if not path:
        yield bus
        return
    if bus is None:
        bus = TraceBus(ring_capacity=0)
    sink = JsonlTraceSink(path)
    bus.subscribe_all(sink)
    try:
        yield bus
    finally:
        sink.close()
    print(f"trace: {sink.n_written} events written to {path}")


def _cmd_run(args) -> int:
    plan = load_fault_plan(args.faults) if args.faults else None
    run_kwargs = _run_kwargs(args)
    with _jsonl_trace(args.trace) as bus:
        result = run_experiment(
            args.workload,
            config=args.config,
            trace=bus,
            faults=plan,
            sanitize=True if args.sanitize else None,
            checkpoint=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            **run_kwargs,
        )
        baseline = None
        if args.config != "baseline":
            baseline = run_experiment(args.workload, config="baseline", **run_kwargs)
        _print_run(result, baseline)
        if args.tier:
            print(
                f"tier         : {args.tier} [{args.tier_policy}], "
                f"{result.breakdown.get('pages_demoted', 0)} page(s) demoted, "
                f"{result.breakdown.get('pages_promoted', 0)} promoted"
            )
        if plan is not None:
            shed = result.breakdown.get("shed_pages", 0)
            print(
                f"faults       : plan {plan.name or 'unnamed'} "
                f"({len(plan)} spec(s)), {shed} page(s) shed"
            )
        if args.checkpoint:
            print(f"checkpoint   : latest snapshot in {args.checkpoint}")
    return 0


def _cmd_resume(args) -> int:
    """Complete an interrupted run or fleet from its checkpoint file."""
    from .recovery import read_checkpoint_header, resume_checkpoint

    header = read_checkpoint_header(args.checkpoint)
    print(
        f"resuming     : {header['kind']} checkpoint at "
        f"t={header['time_us'] / 1e6:.2f}s "
        f"({header['payload_bytes']} payload bytes)"
    )
    result = resume_checkpoint(
        args.checkpoint, strict_version=not args.allow_version_skew
    )
    if header["kind"] == "fleet":
        print(f"fleet        : {result.n_tenants} tenants, {result.n_regions} regions")
        print(f"final RSS    : {format_size(result.final_resident_bytes)}")
        print(f"digest       : {result.digest()}")
        if args.out:
            Path(args.out).write_text(result.canonical_json() + "\n")
            print(f"summary written to {args.out}")
    else:
        _print_run(result, None)
        if args.out:
            raise ConfigError("--out applies to fleet checkpoints only")
    return 0


def _cmd_schemes(args) -> int:
    with open(args.file) as handle:
        text = handle.read()
    # Static analysis first: refuse to run on errors, surface warnings.
    _, diagnostics = analyze_scheme_text(text, file=args.file)
    for diag in diagnostics:
        print(
            f"{diag.location()}: {diag.severity.value} {diag.code}: {diag.message}",
            file=sys.stderr,
        )
    if any(d.severity is Severity.ERROR for d in diagnostics):
        print(
            f"error: {args.file} has error-severity scheme diagnostics; "
            f"fix them (or inspect with `daos lint --schemes {args.file}`)",
            file=sys.stderr,
        )
        return 1
    # The runner re-checks internally; silence its duplicate warning log.
    logging.getLogger("repro.lint").addHandler(logging.NullHandler())
    config = ExperimentConfig(name="custom", monitor="vaddr", schemes_text=text)
    run_kwargs = _run_kwargs(args)
    with _jsonl_trace(args.trace) as bus:
        result = run_experiment(args.workload, config=config, trace=bus, **run_kwargs)
        baseline = run_experiment(args.workload, config="baseline", **run_kwargs)
        _print_run(result, baseline)
    return 0


def _cmd_tune(args) -> int:
    plan = load_fault_plan(args.faults) if args.faults else None
    with _jsonl_trace(args.trace) as bus:
        tuning, baseline, tuned = autotune_scheme(
            args.workload,
            nr_samples=args.samples,
            trace=bus,
            faults=plan,
            **_run_kwargs(args),
        )
        xs = [p for p, _ in tuning.samples]
        ys = [s for _, s in tuning.samples]
        grid_x, grid_y = tuning.trend.grid(60)
        print(
            ascii_series(
                xs,
                ys,
                title=f"{args.workload}: score vs min_age (samples *, fitted curve .)",
                overlay=(list(grid_x), list(grid_y), "."),
            )
        )
        print(
            f"\nbest min_age : {tuning.best_param:.1f}s "
            f"(estimated score {tuning.best_score:.2f})"
        )
        print(format_normalized_rows([normalize(tuned, baseline)]))
    return 0


def _cmd_wss(args) -> int:
    config = ExperimentConfig(name="rec", monitor="vaddr", record=True)
    result = run_experiment(args.workload, config=config, **_run_kwargs(args))
    stats = wss_from_snapshots(result.snapshots, min_frequency=args.min_freq)
    for key in ("p0", "p25", "p50", "p75", "p100", "mean"):
        print(f"{key:>5s}: {format_size(int(stats[key]))}")
    return 0


def _sweep_grid_from_args(args):
    """The grid (and its summariser) the sweep flags describe."""
    if args.grid is not None:
        if args.tier:
            raise ConfigError(
                "--tier applies to custom --workloads grids, not --grid presets"
            )
        preset = PRESETS[args.grid]
        if args.grid == "fig3":
            if args.workloads:
                raise ConfigError(
                    "--workloads has no effect with --grid fig3 "
                    "(an analytic sweep with no workloads)"
                )
            return preset.build(), preset.summarize
        workloads = (
            _parse_workloads(args.workloads) if args.workloads else None
        )
        grid = preset.build(
            **(dict(workloads=workloads) if workloads else {}),
            machine=args.machine,
            seed=args.seed,
            time_scale=args.time_scale,
        )
        return grid, preset.summarize
    if not args.workloads:
        raise ConfigError("sweep needs --grid or --workloads")
    workloads = _parse_workloads(args.workloads)
    configs = [c.strip() for c in args.configs.split(",") if c.strip()]
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers: {args.seeds!r}")
    for config in configs:
        if config not in CONFIGS:
            raise ConfigError(f"unknown configuration {config!r} in --configs")
    fixed = {"machine": args.machine, "time_scale": args.time_scale}
    if args.tier:
        # Only present when tiering is on: adding tier=None to every
        # point would churn the labels (and thus the result cache keys)
        # of existing flat sweeps.
        fixed.update(
            tier=args.tier, tier_scale=args.tier_scale, tier_policy=args.tier_policy
        )
    grid = SweepGrid.from_axes(
        "experiment",
        {"workload": workloads, "config": configs, "seed": seeds},
        fixed=fixed,
    )
    summarize = summarize_fig7 if "baseline" in configs else None
    return grid, summarize


def _parse_workloads(text):
    if text == "all":
        return [spec.full_name for spec in all_workloads()]
    names = [w.strip() for w in text.split(",") if w.strip()]
    known = {spec.full_name for spec in all_workloads()}
    for name in names:
        if name not in known:
            raise ConfigError(f"unknown workload {name!r} in --workloads")
    return names


def _cmd_sweep(args) -> int:
    grid, summarize = _sweep_grid_from_args(args)

    def progress(done, total, outcome) -> None:
        if outcome.cached:
            status = "cached"
        elif outcome.replayed:
            status = "replay"
        else:
            status = "FAILED" if not outcome.ok else "ran"
        line = f"\rsweep [{done}/{total}] {status:6s} {outcome.point.label():<60.60s}"
        sys.stderr.write(line)
        sys.stderr.flush()

    plan = load_fault_plan(args.faults) if args.faults else None
    from .sanitize import default_enabled
    from .trace.events import WorkerReaped

    # A dedicated bus for supervisor events (worker reaps): the sweep
    # itself runs in worker processes, so this bus only ever sees the
    # parent-side supervision stream.
    supervisor_bus = TraceBus(ring_capacity=0)
    runner = SweepRunner(
        grid,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        progress=progress,
        retries=args.retries,
        point_timeout_s=args.point_timeout,
        faults=plan,
        sanitize=args.sanitize or default_enabled(),
        journal_dir=args.journal,
        resume=args.resume,
        trace=supervisor_bus,
    )
    report = runner.run()
    sys.stderr.write("\n")
    print(
        f"{report.n_total} points: {report.n_cached} cached, "
        f"{report.n_replayed} replayed, "
        f"{report.n_executed} executed, {report.n_failed} failed "
        f"in {report.elapsed_s:.1f}s wall "
        f"({report.point_wall_s():.1f}s of point time)"
    )
    n_reaped = supervisor_bus.summary().counts.get(WorkerReaped.kind, 0)
    if n_reaped:
        print(f"supervisor   : {n_reaped} worker(s) reaped", file=sys.stderr)
    for outcome in report.failures():
        kind = f" [{outcome.error_type}]" if outcome.error_type else ""
        print(
            f"FAILED {outcome.point.label()}{kind}: {outcome.error} "
            f"(attempts: {outcome.attempts})",
            file=sys.stderr,
        )
    totals = report.trace_event_totals()
    if totals:
        rendered = ", ".join(f"{kind}={count}" for kind, count in totals.items())
        print(f"trace events: {rendered}")
    if summarize is not None and report.n_failed < report.n_total:
        print()
        print(summarize(report))
    if args.out:
        Path(args.out).write_text(report.canonical_json() + "\n")
        print(f"report written to {args.out}")
    if report.watchdog_failures():
        # The distinct exit code scripts key on: points died to the
        # supervisor's deadline, not to their own exceptions.
        return 3
    return 1 if report.n_failed else 0


def _print_trace_summary(summary, stream) -> None:
    """Render a :class:`~repro.trace.aggregate.TraceSummary` as a table."""
    print(
        f"{summary.n_events} events, "
        f"t=[{summary.first_time_us}, {summary.last_time_us}]us",
        file=stream,
    )
    for kind in sorted(summary.counts):
        print(f"  {kind:20s} {summary.counts[kind]:>8d}", file=stream)


def _cmd_trace(args) -> int:
    if args.validate:
        summary = validate_trace_file(args.validate)
        print(f"{args.validate}: valid trace")
        _print_trace_summary(summary, sys.stdout)
        return 0
    if not args.workload:
        raise ConfigError("trace needs a workload (or --validate FILE)")
    bus = TraceBus(ring_capacity=0)
    rss_hist = FieldHistogram("rss_bytes")
    bus.subscribe(EpochEnd, rss_hist)
    if args.output:
        sink = JsonlTraceSink(args.output)
        report_stream = sys.stdout
    else:
        # JSONL goes to stdout (pipeable); the summary moves to stderr.
        sink = JsonlTraceSink(sys.stdout)
        report_stream = sys.stderr
    bus.subscribe_all(sink)
    try:
        run_experiment(args.workload, config=args.config, trace=bus, **_run_kwargs(args))
    finally:
        sink.close()
    _print_trace_summary(bus.summary(), report_stream)
    if rss_hist.n_values:
        print("\nEpochEnd.rss_bytes distribution:", file=report_stream)
        print(rss_hist.render(), file=report_stream)
    if args.output:
        print(f"trace: {sink.n_written} events written to {args.output}")
    return 0


def _cmd_chaos(args) -> int:
    """One fault-plan smoke run: inject, survive, report the damage."""
    plan = (
        load_fault_plan(args.plan) if args.plan else builtin_chaos_plan(seed=args.seed)
    )
    with _jsonl_trace(args.trace, TraceBus(ring_capacity=0)) as bus:
        result = run_experiment(
            args.workload,
            config=args.config,
            trace=bus,
            faults=plan,
            sanitize=True if args.sanitize else None,
            **_run_kwargs(args),
        )
        counts = bus.summary().counts
        kinds = ", ".join(sorted(plan.kinds()))
        print(f"chaos plan   : {plan.name or 'builtin'} ({len(plan)} spec(s): {kinds})")
        print(f"workload     : {result.workload} [{result.config}], seed {result.seed}")
        print(f"runtime      : {result.runtime_us / 1e6:.2f}s (run completed)")
        print(f"faults fired : {counts.get('FaultInjected', 0)}")
        print(f"retries      : {counts.get('RetryAttempted', 0)}")
        print(
            f"degradation  : entered {counts.get('DegradedModeEntered', 0)}x, "
            f"exited {counts.get('DegradedModeExited', 0)}x, "
            f"{result.breakdown.get('shed_pages', 0)} page(s) shed"
        )
    return 0


def _cmd_perf(args) -> int:
    report, _ = profile_run(args.workload, config=args.config, **_run_kwargs(args))
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"perf report written to {args.output}")
    else:
        print(text)
    return 0


def _fleet_config_from_args(args):
    from .fleet import FleetConfig

    return FleetConfig(
        n_tenants=args.tenants,
        duration_s=args.duration,
        footprint_mib=args.footprint_mib,
        cold_share=args.cold_share,
        min_age_s=args.min_age,
        pool_ratio=args.pool_ratio,
        pool_gib=args.pool_gib,
        swap=args.swap,
        machine=args.machine,
        tier=args.tier or "",
        tier_scale=args.tier_scale,
        tier_policy=args.tier_policy,
        seed=args.seed,
    )


def _cmd_fleet(args) -> int:
    """One fleet run: batched scheduler, sharded pools, or the naive loop."""
    from .fleet import run_fleet, run_fleet_naive, run_fleet_sharded
    from .sanitize import default_enabled

    cfg = _fleet_config_from_args(args)
    sanitize = args.sanitize or default_enabled()
    plan = load_fault_plan(args.faults) if args.faults else None
    if args.naive:
        if plan is not None:
            raise ConfigError("--faults needs the batched scheduler, not --naive")
        results = run_fleet_naive(cfg)
        total_rss = sum(r.avg_rss_bytes for r in results)
        print(f"naive fleet  : {len(results)} tenant run(s), one kernel each")
        print(f"avg RSS sum  : {format_size(int(total_rss))}")
        print(f"major faults : {sum(r.breakdown.get('major_faults', 0) for r in results)}")
        return 0
    if args.shards > 1:
        if args.checkpoint:
            raise ConfigError(
                "--checkpoint needs a single-pool fleet; sharded runs "
                "journal instead (--journal DIR, --resume)"
            )
        merged = run_fleet_sharded(
            cfg,
            n_shards=args.shards,
            jobs=args.jobs,
            sanitize=sanitize,
            faults=plan,
            journal_dir=args.journal,
            resume=args.resume,
        )
        text = json.dumps(merged, sort_keys=True, separators=(",", ":"))
        print(
            f"fleet        : {merged['n_tenants']} tenants in "
            f"{merged['n_shards']} pool(s), {merged['n_regions']} regions"
        )
        print(f"pool         : {format_size(merged['pool_bytes'])} (all pools)")
        print(f"final RSS    : {format_size(merged['final_resident_bytes'])}")
        print(f"pageout      : {merged['pageout_pages']} pages, "
              f"{merged['evicted_pages']} evicted under pressure")
        print(f"digests      : {' '.join(merged['shard_digests'])}")
    else:
        if args.resume or args.journal:
            raise ConfigError(
                "--journal/--resume need a sharded fleet (--shards > 1); "
                "single-pool runs checkpoint instead (--checkpoint FILE)"
            )
        injector = None
        if plan is not None:
            from .faults import FaultInjector

            injector = FaultInjector(plan)
        if args.checkpoint:
            from .fleet import FleetScheduler
            from .recovery.codec import checkpoint_fleet_stepping

            scheduler = FleetScheduler(
                cfg, sanitize=True if sanitize else None, faults=injector
            )
            checkpoint_fleet_stepping(
                scheduler, args.checkpoint, every_ticks=args.checkpoint_every
            )
            result = scheduler.finish()
            print(f"checkpoint   : latest snapshot in {args.checkpoint}")
        else:
            result = run_fleet(
                cfg, sanitize=True if sanitize else None, faults=injector
            )
        text = result.canonical_json()
        rss_ratio = result.final_resident_bytes / result.total_footprint_bytes
        print(f"fleet        : {result.n_tenants} tenants, {result.n_regions} regions")
        print(f"pool         : {format_size(result.pool_bytes)} "
              f"of {format_size(result.total_footprint_bytes)} footprint")
        print(f"final RSS    : {format_size(result.final_resident_bytes)} "
              f"({rss_ratio:.1%} of footprint)")
        print(f"faults       : {result.minor_faults} minor, {result.major_faults} major")
        print(f"pageout      : {result.pageout_pages} pages in "
              f"{result.pageout_batches} batches; {result.evicted_pages} evicted "
              f"under pressure ({result.reclaim_passes} passes)")
        print(f"monitor      : {result.monitor_checks} checks, "
              f"{result.monitor_cpu_us / 1e6:.2f}s estimated CPU")
        print(f"digest       : {result.digest()} "
              f"(wall {result.wall_clock_us / 1e6:.2f}s)")
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"summary written to {args.out}")
    return 0


def _cmd_lint(args) -> int:
    diagnostics = []
    for scheme_file in args.schemes:
        with open(scheme_file) as handle:
            text = handle.read()
        _, scheme_diags = analyze_scheme_text(text, file=scheme_file)
        diagnostics.extend(scheme_diags)

    paths = list(args.paths) + list(args.extra_paths)
    if not paths and not args.schemes:
        # Default target: the installed repro package itself.
        paths = [Path(__file__).resolve().parent]
    if paths:
        diagnostics.extend(lint_paths(paths, relative_to=Path.cwd()))

    baseline_path = Path(args.baseline) if args.baseline else Path(DEFAULT_BASELINE_NAME)
    if args.write_baseline:
        write_baseline(baseline_path, diagnostics, root=Path.cwd())
        print(f"baseline with {len(diagnostics)} entrie(s) written to {baseline_path}")
        return 0
    n_baselined = 0
    if args.baseline or baseline_path.exists():
        entries = load_baseline(baseline_path)
        diagnostics, n_baselined = apply_baseline(
            diagnostics, entries, root=Path.cwd()
        )

    if args.format == "json":
        print(render_json(diagnostics))
    else:
        print(render_text(diagnostics))
        if n_baselined:
            print(f"({n_baselined} baselined finding(s) not shown)")
    return 1 if any(d.severity is Severity.ERROR for d in diagnostics) else 0


_COMMANDS = {
    "workloads": _cmd_workloads,
    "record": _cmd_record,
    "report": _cmd_report,
    "run": _cmd_run,
    "resume": _cmd_resume,
    "schemes": _cmd_schemes,
    "tune": _cmd_tune,
    "wss": _cmd_wss,
    "sweep": _cmd_sweep,
    "trace": _cmd_trace,
    "chaos": _cmd_chaos,
    "perf": _cmd_perf,
    "fleet": _cmd_fleet,
    "lint": _cmd_lint,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The CLI is the environment boundary (DT204): translate the ambient
    # switch into the sanitize module's process default exactly once.
    if os.environ.get("DAOS_SANITIZE") == "1":
        from .sanitize import set_default_enabled

        set_default_enabled(True)
    try:
        return _COMMANDS[args.command](args)
    except WatchdogTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CheckpointError as exc:
        # An untrustworthy checkpoint/journal is its own failure class:
        # the operator must decide between re-running and skipping the
        # version check, so it must not look like a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DaosError as exc:
        # Usage/configuration problems get one line and a distinct exit
        # code; anything else is a bug and keeps its full traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
