"""``daos`` — the command-line face of the reproduction.

Mirrors the upstream user-space tooling's verbs:

* ``daos workloads``                     — list the workload catalog;
* ``daos run <workload> -c <config>``    — run one experiment and print
  its report; ``--schemes FILE`` (a Listing 1/3 scheme file in place of
  the config's schemes), ``--faults PLAN``, ``--trace FILE``,
  ``--profile FILE``, ``--record FILE`` (``-c rec``/``prec``),
  ``--sanitize`` and ``--checkpoint FILE`` attach the rest;
* ``daos report <file>``                 — a saved record's heatmap and
  working set (Figure 6 for one workload), or a trace's validated
  summary;
* ``daos tune <workload>``               — auto-tune the reclamation
  scheme and report the chosen ``min_age`` (Figure 5 for one workload);
* ``daos sweep``                         — run a grid of experiments
  across a worker pool with on-disk result caching (``--grid``
  presets, or ``--workloads``/``--configs``/``--seeds`` axes);
* ``daos fleet``                         — run a multi-tenant fleet
  (thousands of serverless tenants, one shared physical pool) in one
  process, optionally sharded (``--shards``/``--jobs``); ``--out FILE``
  writes its canonical, byte-stable summary JSON;
* ``daos resume <checkpoint>``           — complete an interrupted
  ``run`` or ``fleet`` from its latest ``--checkpoint FILE`` snapshot;
* ``daos lint``                          — static analysis: scheme
  diagnostics (``--schemes FILE``) and the determinism AST lint.

The global flags (``--machine``, ``--seed``, ``--time-scale``,
``--tier``, ``--tier-scale``, ``--tier-policy``) precede the verb and
reach every verb that runs an experiment.  ``-`` as the file for
``--trace`` or ``--profile`` means stdout; the human-readable report
then goes to stderr.

Exit codes are a contract:

* **0** — success;
* **1** — the command ran and found a problem: a sweep with failed
  points, error-severity findings from ``lint`` or ``run --schemes``,
  or a reader that closed stdout before the command finished writing;
* **2** — a usage error: argparse rejected the command line, or a
  :class:`~repro.errors.DaosError` (bad workload, config, flag
  combination, unreadable input, output file in a missing directory,
  with a name too long or failing to write, fault plan, simulation
  failure) ended the command with one ``error:`` line;
* **3** — a sweep point abandoned by the supervisor's watchdog;
* **4** — a checkpoint that cannot be written or trusted (write
  failure, digest mismatch, format/version skew).

Anything else keeps its full traceback (it is a bug, not a usage
problem).  Invoke as ``python -m repro.cli`` or via the ``daos`` entry
point.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from contextlib import ExitStack, contextmanager, redirect_stdout
from dataclasses import replace
from pathlib import Path
from typing import Iterator

from .analysis.ascii_plot import ascii_series
from .analysis.heatmap import build_heatmap, render_heatmap
from .analysis.recording import heatmap_to_pgm, read_record, save_record
from .analysis.report import format_normalized_rows
from .analysis.wss import wss_from_snapshots
from .errors import CheckpointError, ConfigError, DaosError, ParseError, WatchdogTimeout
from .faults import FaultInjector, load_fault_plan
from .lint import analyze_scheme_text, has_errors, lint_paths, render_json, render_text
from .perf import profile_run
from .recovery.codec import read_checkpoint_header, resume_checkpoint, run_with_checkpoints
from .runner.configs import CONFIGS
from .runner.experiment import autotune_scheme, run_experiment
from .runner.results import normalize
from .sanitize import default_enabled, set_default_enabled
from .sim.swap import SWAP_KINDS
from .sweep.grid import SweepGrid
from .sweep.presets import PRESETS, summarize_fig7
from .sweep.runner import SweepRunner
from .trace import FieldHistogram, JsonlTraceSink, TraceBus, validate_trace_file
from .trace.events import EpochEnd, WorkerReaped
from .units import MIB, format_size
from .workloads.registry import all_workloads

__all__ = ["main", "build_parser"]


def _checked(cast, accept, wanted: str):
    """An argparse ``type=``: a value ``accept`` refuses (NaN fails every
    comparison) is a usage error (exit 2) before any simulation starts."""
    def parse(text: str):
        if not accept(cast(text)):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text}")
        return cast(text)
    parse.__name__ = cast.__name__  # argparse's "invalid int value" message
    return parse


def _int_at_least(minimum: int):
    return _checked(int, lambda n: n >= minimum, f"at least {minimum}")


_positive_float = _checked(float, lambda x: 0 < x < math.inf, "finite and positive")
_unit_float = _checked(float, lambda x: 0 <= x <= 1, "in [0, 1]")


def _seed_list(text: str) -> list:
    """``--seeds``: comma-separated seeds, each in ``--seed``'s range."""
    return [_int_at_least(0)(seed) for seed in text.split(",") if seed.strip()]


_seed_list.__name__ = "comma-separated int"


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
    parser.add_argument("--seed", type=_int_at_least(0), default=0, help="simulation seed")
    parser.add_argument(
        "--time-scale",
        type=_positive_float,
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
        "--tier-scale", type=_positive_float, default=1.0,
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
        "--trace",
        metavar="FILE",
        help="write the run's trace-event JSONL here ('-' = stdout)",
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
        type=_int_at_least(0),
        default=0,
        metavar="N",
        help="with --checkpoint: every N epochs (fleet: ticks); 0 = once at "
        "the midpoint",
    )
    pool_opts = _option_group()
    pool_opts.add_argument(
        "-j", "--jobs", type=_int_at_least(1), default=1, help="worker processes (1 = in-process)"
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

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the workload catalog")

    p_run = sub.add_parser(
        "run",
        help="run one experiment; flags attach schemes, faults, a trace, "
        "a profile or a record",
        parents=[trace_opt, faults_opt, sanitize_opt, checkpoint_opts],
    )
    p_run.add_argument("workload")
    p_run.add_argument("-c", "--config", default="baseline", choices=sorted(CONFIGS))
    p_run.add_argument(
        "--schemes",
        metavar="FILE",
        help="install this scheme file (Listing 1/3 format) in place of the "
        "config's schemes; error-severity findings exit 1 before the run",
    )
    p_run.add_argument(
        "--profile", metavar="FILE", help="write the per-layer profile JSON here ('-' = stdout)"
    )
    p_run.add_argument(
        "--record", metavar="FILE", help="save the snapshots of -c rec | prec here"
    )

    p_report = sub.add_parser(
        "report", help="render a saved record, or validate and summarise a trace"
    )
    p_report.add_argument(
        "file", help="a record ('run --record FILE') or a trace ('run --trace FILE')"
    )
    p_report.add_argument("--pgm", help="also export a record's heatmap as a PGM image")
    p_report.add_argument(
        "--min-freq", type=_unit_float, default=0.05, help="a record's working-set frequency floor"
    )

    p_tune = sub.add_parser(
        "tune",
        help="auto-tune the reclamation scheme",
        description="Auto-tune the reclamation scheme.  --trace receives the "
        "tuner's TuneStep events; of a --faults plan only the probe_failure "
        "specs apply (the per-sample runs stay fault-free).",
        parents=[trace_opt, faults_opt],
    )
    p_tune.add_argument("workload")
    p_tune.add_argument("-n", "--samples", type=_int_at_least(2), default=10)

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
    p_sweep.add_argument("--seeds", type=_seed_list, default="0", help="comma-separated seeds")
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
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-point wall-clock timeout, counted from when the point is "
        "sent to a worker, so a fresh worker's import time counts "
        "against its first point (pool mode only)",
    )
    p_sweep.add_argument(
        "-o", "--out",
        metavar="FILE",
        help="write the canonical (volatile-free) report JSON here",
    )

    p_fleet = sub.add_parser(
        "fleet",
        help="run a multi-tenant fleet against one shared physical pool",
        description="Run a multi-tenant fleet against one shared physical "
        "pool.  Of a --faults plan the fleet specs (tenant_storm, "
        "pool_pressure_spike) apply.  --checkpoint needs a single-pool run; "
        "--journal/--resume need a sharded one (--shards > 1); --naive takes "
        "none of them, nor --out or --sanitize.",
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
        "--swap", choices=SWAP_KINDS, default="zram",
        help="swap backend for reclaimed pages (default zram)",
    )
    p_fleet.add_argument(
        "--shards", type=_int_at_least(1), default=1,
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
    return parser


def _cmd_workloads(args) -> int:
    print(f"{'workload':28s} {'footprint':>10s} {'duration':>9s}")
    for spec in all_workloads():
        print(
            f"{spec.full_name:28s} {format_size(spec.footprint):>10s} "
            f"{spec.duration_us / 1e6:8.0f}s"
        )
    return 0


def _print_access_pattern(snapshots, title: str, min_freq: float = 0.05):
    """A record's heatmap and working set (``run`` and ``report`` share
    it); returns the heatmap."""
    heatmap = build_heatmap(snapshots)
    print(render_heatmap(heatmap, title=title))
    stats = wss_from_snapshots(snapshots, min_frequency=min_freq)
    print(f"\nworking set (>= {min_freq:.0%} frequency):")
    for key in ("p0", "p25", "p50", "p75", "p100", "mean"):
        print(f"  {key:>4s}: {format_size(int(stats[key]))}")
    return heatmap


def _print_trace_summary(summary) -> None:
    """A trace summary (``TraceSummary.as_dict()`` form) as a table."""
    print(
        f"{summary['n_events']} events, "
        f"t=[{summary['first_time_us']}, {summary['last_time_us']}]us"
    )
    for kind, count in summary["counts"].items():
        print(f"  {kind:20s} {count:>8d}")


def _print_run(result, baseline=None, *, tier=None, plan=None, rss_hist=None) -> None:
    """The run report.  Each section appears when its input exists: the
    normalised row with a baseline, the tier line with a tier label, the
    damage block with a fault plan, the heatmap and working set when the
    config recorded, the event table and RSS histogram with a trace."""
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
    if tier is not None:
        print(
            f"tier         : {tier}, "
            f"{result.breakdown.get('pages_demoted', 0)} page(s) demoted, "
            f"{result.breakdown.get('pages_promoted', 0)} promoted"
        )
    if plan is not None:
        counts = result.trace_summary["counts"]
        print(f"faults       : plan {plan.name} ({len(plan)} spec(s): {', '.join(plan.kinds())})")
        print(f"faults fired : {counts.get('FaultInjected', 0)}")
        print(f"retries      : {counts.get('RetryAttempted', 0)}")
        print(
            f"degradation  : entered {counts.get('DegradedModeEntered', 0)}x, "
            f"exited {counts.get('DegradedModeExited', 0)}x, "
            f"{result.breakdown.get('shed_pages', 0)} page(s) shed"
        )
    if result.snapshots:
        print()
        _print_access_pattern(result.snapshots, f"{result.workload} ({result.config})")
    if rss_hist is not None:
        print()
        _print_trace_summary(result.trace_summary)
        if rss_hist.n_values:
            print("\nEpochEnd.rss_bytes distribution:")
            print(rss_hist.render())


def _run_kwargs(args) -> dict:
    """The six global flags as :class:`~repro.runner.experiment.ExperimentRun`
    keywords — the one place the CLI maps flags to run parameters, so
    every experiment-running verb honours all six."""
    names = ("machine", "seed", "time_scale", "tier", "tier_scale", "tier_policy")
    return {name: getattr(args, name) for name in names}


@contextmanager
def _trace_bus(args):
    """Yield ``(bus, stdout)``: the bus ``--trace FILE`` streams JSONL
    from (``None`` without it) and the verb's stdout, which ``-`` as the
    ``--trace``/``--profile`` file names; the block's prints then go to
    stderr.  The block wraps the run *and* its report."""
    stdout = sys.stdout
    outputs = (args.trace, getattr(args, "profile", None))
    if outputs == ("-", "-"):
        raise ConfigError("--trace and --profile cannot both write to stdout")
    with ExitStack() as stack:
        bus = sink = None
        if args.trace:
            with _writing("trace", args.trace):
                sink = JsonlTraceSink(stdout if args.trace == "-" else args.trace)
            stack.enter_context(sink)
            bus = TraceBus(ring_capacity=0)
            bus.subscribe_all(sink)
        if "-" in outputs:
            stack.enter_context(redirect_stdout(sys.stderr))
        yield bus, stdout
        if sink is not None:
            print(f"trace: {sink.n_written} events written to {args.trace}")


def _read_schemes(path):
    """A scheme file's text and its semantic diagnostics."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read scheme file {path}: {exc}") from None
    return text, analyze_scheme_text(text, file=path)[1]


def _run_config(args):
    """``-c``, with ``--schemes`` swapped in; ``None`` when the scheme
    file has error-severity findings (printed, like its warnings)."""
    config = CONFIGS[args.config]
    if args.schemes:
        text, diagnostics = _read_schemes(args.schemes)
        if diagnostics:
            print(render_text(diagnostics), file=sys.stderr)
        if has_errors(diagnostics):
            print(
                f"error: {args.schemes} has error-severity scheme diagnostics; "
                f"fix them (or inspect with `daos lint --schemes {args.schemes}`)",
                file=sys.stderr,
            )
            return None
        # The runner re-checks internally; silence its duplicate warning log.
        logging.getLogger("repro.lint").addHandler(logging.NullHandler())
        config = replace(
            config, name="custom", monitor=config.monitor or "vaddr", schemes_text=text
        )
    if args.record and not config.record:
        raise ConfigError(f"--record needs a recording config (rec | prec), not {config.name}")
    return config


def _cmd_run(args) -> int:
    """One experiment with whatever the flags attach, and one report."""
    config = _run_config(args)
    if config is None:
        return 1
    plan = load_fault_plan(args.faults) if args.faults else None
    run_kwargs = _run_kwargs(args)
    with _trace_bus(args) as (bus, stdout):
        rss_hist = None
        if bus is not None:
            rss_hist = FieldHistogram("rss_bytes")
            bus.subscribe(EpochEnd, rss_hist)
        experiment = dict(
            config=config, trace=bus, faults=plan, sanitize=True if args.sanitize else None,
            checkpoint=args.checkpoint, checkpoint_every=args.checkpoint_every, **run_kwargs,
        )
        if args.profile:
            profile, result = profile_run(args.workload, **experiment)
        else:
            result = run_experiment(args.workload, **experiment)
        baseline = None
        if config.name != "baseline":
            baseline = run_experiment(args.workload, config="baseline", **run_kwargs)
        tier = f"{args.tier} [{args.tier_policy}]" if args.tier else None
        _print_run(result, baseline, tier=tier, plan=plan, rss_hist=rss_hist)
        if args.record:
            extra = {"config": result.config, "seed": result.seed}
            with _writing("record", args.record):
                save_record(
                    result.snapshots, args.record,
                    workload=result.workload, machine=result.machine, extra=extra,
                )
            print(f"record saved to {args.record}")
        if args.profile:
            text = json.dumps(profile, indent=2, sort_keys=True) + "\n"
            if args.profile == "-":
                stdout.write(text)
            else:
                _write_output("profile", args.profile, text)
                print(f"profile written to {args.profile}")
        if args.checkpoint:
            print(f"checkpoint   : latest snapshot in {args.checkpoint}")
    return 0


def _cmd_report(args) -> int:
    """A record's heatmap and working set, or a trace's validated summary."""
    record = read_record(args.file)
    if record is None:
        if args.pgm:
            raise ConfigError(f"--pgm needs a record; {args.file} is not one")
        try:
            summary = validate_trace_file(args.file)
        except ParseError as exc:
            raise ParseError(f"neither a record nor a valid trace: {exc}") from None
        if not summary.n_events:
            # Every traced run writes at least its EpochEnd events.
            raise ParseError(f"neither a record nor a valid trace: {args.file}: no events")
        print(f"{args.file}: valid trace")
        _print_trace_summary(summary.as_dict())
        return 0
    meta, snapshots = record
    title = f"{meta['workload'] or args.file} (from record)"
    heatmap = _print_access_pattern(snapshots, title, args.min_freq)
    if args.pgm:
        with _writing("pgm", args.pgm):
            path = heatmap_to_pgm(heatmap, args.pgm)
        print(f"heatmap image written to {path}")
    return 0


def _cmd_resume(args) -> int:
    """Complete an interrupted run or fleet from its checkpoint file."""
    header = read_checkpoint_header(args.checkpoint)
    if args.out and header["kind"] != "fleet":
        raise ConfigError("--out applies to fleet checkpoints only")
    print(
        f"resuming     : {header['kind']} checkpoint at "
        f"t={header['time_us'] / 1e6:.2f}s "
        f"({header['payload_bytes']} payload bytes)"
    )
    result = resume_checkpoint(args.checkpoint, strict_version=not args.allow_version_skew)
    if header["kind"] == "fleet":
        print(f"fleet        : {result.n_tenants} tenants, {result.n_regions} regions")
        print(f"final RSS    : {format_size(result.final_resident_bytes)}")
        print(f"digest       : {result.digest()}")
        if args.out:
            _write_output("out", args.out, result.canonical_json() + "\n")
            print(f"summary written to {args.out}")
    else:
        _print_run(result)
    return 0


def _cmd_tune(args) -> int:
    plan = load_fault_plan(args.faults) if args.faults else None
    with _trace_bus(args) as (bus, _):
        tuning, baseline, tuned = autotune_scheme(
            args.workload,
            nr_samples=args.samples,
            trace=bus,
            faults=plan,
            **_run_kwargs(args),
        )
        grid_x, grid_y = tuning.trend.grid(60)
        print(
            ascii_series(
                *zip(*tuning.samples),  # (min_age, score) pairs
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
        {"workload": workloads, "config": configs, "seed": args.seeds},
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
        status = "cached" if outcome.cached else "replay" if outcome.replayed else (
            "ran" if outcome.ok else "FAILED"
        )
        line = f"\rsweep [{done}/{total}] {status:6s} {outcome.point.label():<60.60s}"
        sys.stderr.write(line)
        sys.stderr.flush()

    plan = load_fault_plan(args.faults) if args.faults else None
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
    sys.stderr.write("\n")  # ends the progress line
    if args.out:  # before the tables: a reader that stops early keeps the file
        _write_output("out", args.out, report.canonical_json() + "\n")
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
        print(f"report written to {args.out}")
    if report.watchdog_failures():
        # The distinct exit code scripts key on: points died to the
        # supervisor's deadline, not to their own exceptions.
        return 3
    return 1 if report.n_failed else 0


def _cmd_fleet(args) -> int:
    """One fleet run: batched scheduler, sharded pools, or the naive loop."""
    # Deferred: of all the verbs only this one runs the fleet layer.
    from .fleet import FleetConfig, FleetScheduler, run_fleet, run_fleet_naive, run_fleet_sharded

    cfg = FleetConfig(
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
    sanitize = args.sanitize or default_enabled()
    plan = load_fault_plan(args.faults) if args.faults else None
    if args.naive:
        batched_only = [
            f"--{name}"
            for name in ("faults", "out", "checkpoint", "journal", "resume", "sanitize")
            if getattr(args, name)
        ] + (["--shards"] if args.shards > 1 else [])
        if batched_only:
            raise ConfigError(
                f"{', '.join(batched_only)}: batched scheduler only, not --naive"
            )
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
        injector = FaultInjector(plan) if plan is not None else None
        if args.checkpoint:
            scheduler = FleetScheduler(
                cfg, sanitize=True if sanitize else None, faults=injector
            )
            scheduler.start_loop()
            run_with_checkpoints(scheduler, args.checkpoint, every=args.checkpoint_every)
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
        _write_output("out", args.out, text + "\n")
        print(f"summary written to {args.out}")
    return 0


def _cmd_lint(args) -> int:
    diagnostics = []
    for scheme_file in args.schemes:
        diagnostics.extend(_read_schemes(scheme_file)[1])

    paths = args.paths
    if not paths and not args.schemes:
        # Default target: the installed repro package itself.
        paths = [Path(__file__).resolve().parent]
    if paths:
        diagnostics.extend(lint_paths(paths, relative_to=Path.cwd()))

    print(render_json(diagnostics) if args.format == "json" else render_text(diagnostics))
    return 1 if has_errors(diagnostics) else 0


_COMMANDS = {
    "workloads": _cmd_workloads,
    "run": _cmd_run,
    "report": _cmd_report,
    "tune": _cmd_tune,
    "sweep": _cmd_sweep,
    "fleet": _cmd_fleet,
    "resume": _cmd_resume,
    "lint": _cmd_lint,
}


#: The exit-code contract for a library error (module docstring), most
#: specific class first.  Usage/configuration problems get one line and
#: code 2; an untrustworthy checkpoint/journal is its own class (4), so
#: the operator can choose between re-running and skipping the version
#: check; anything that is not a DaosError is a bug and keeps its
#: traceback.
_ERROR_EXIT_CODES = ((WatchdogTimeout, 3), (CheckpointError, 4), (DaosError, 2))


def exit_code(exc: DaosError) -> int:
    """The exit code ``daos`` ends with when ``exc`` stops a command."""
    return next(code for cls, code in _ERROR_EXIT_CODES if isinstance(exc, cls))


#: Each verb's output-file options (``--<dest>``).  ``resume``'s
#: positional ``checkpoint`` is an input, so only its ``--out`` counts.
_OUTPUT_DESTS = {
    "run": ("trace", "profile", "record", "checkpoint"),
    "tune": ("trace",),
    "fleet": ("out", "checkpoint"),
    "sweep": ("out",),
    "resume": ("out",),
    "report": ("pgm",),
}


def _check_output_dirs(args) -> None:
    """Refuse an output file whose directory does not exist, or that is
    itself a directory, before the verb does any work (``-`` is stdout
    and always writable)."""
    for dest in _OUTPUT_DESTS.get(args.command, ()):
        path = getattr(args, dest)
        if not path or path == "-":
            continue
        try:
            parent_missing, is_dir = not Path(path).parent.is_dir(), Path(path).is_dir()
        except OSError as exc:  # e.g. a file name over the system's limit
            raise ConfigError(f"--{dest} {path}: {exc.strerror or exc}") from exc
        if parent_missing:
            raise ConfigError(f"--{dest} {path}: directory {Path(path).parent} does not exist")
        if is_dir:
            raise ConfigError(f"--{dest} {path}: is a directory, not a file")


@contextmanager
def _writing(dest: str, path: str) -> Iterator[None]:
    """Turn a failed write of the file an output flag names into a
    :class:`ConfigError` naming the flag and the path (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"--{dest} {path}: cannot write: {exc.strerror or exc}") from exc


def _write_output(dest: str, path: str, text: str) -> None:
    """Write ``text`` to the file an output flag names."""
    with _writing(dest, path):
        Path(path).write_text(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The CLI is the environment boundary (DT204): translate the ambient
    # switch into the sanitize module's process default exactly once.
    if os.environ.get("DAOS_SANITIZE") == "1":
        set_default_enabled(True)
    try:
        if getattr(args, "checkpoint_every", 0) and not args.checkpoint:
            raise ConfigError("--checkpoint-every needs --checkpoint FILE")
        _check_output_dirs(args)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed reader surfaces here, not at exit
        return code
    except DaosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code(exc)
    except BrokenPipeError:
        # The reader closed stdout (``daos ... | head -1``).  Point fd 1 at
        # devnull so the interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
