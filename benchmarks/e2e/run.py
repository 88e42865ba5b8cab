"""End-to-end host-time benchmark for ``daos run``, ``sweep`` and ``fleet``.

    python3 benchmarks/e2e/run.py --seed 0                 # every workload
    python3 benchmarks/e2e/run.py --workload run-prcl --traced
    python3 benchmarks/e2e/run.py --smoke                  # self-check, ~30 s
    python3 benchmarks/e2e/run.py --curve                  # scaling curves

Closed loop from this one driver: each repetition is a fresh child
process (``child.py``), started only after the previous one has exited.
The first child of every workload is a warm-up whose times are dropped;
the median over the timed children is what is reported.  Every child of
a workload, warm-up included, must report the same result digest, and
the timed children the same counts.

The gate drives one workload per call with
``--workload W --seed S --seconds T --trace 0|1`` and reads the last
line, a JSON object; names and units come from ``BENCHMARK.json`` at the
repository root, which is the single list of what this benchmark emits.
README.md next to this file says how to read the output.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Fewest timed repetitions a median is taken over.
MIN_REPS = 3
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: Counts that hold host time (or a file that embeds it) and so do not
#: repeat exactly; every other count must.
VOLATILE_COUNTS = {
    "sweep.point_wall_s",
    "sweep.children_cpu_s",
    "sweep.spawn_overhead_s",
    "sweep.cache_bytes",
}

#: Rates the issue names for single workloads, printed beside the gated
#: metrics: ``(workload, rate name, count it divides by wall_s)``.
DERIVED_RATES = [
    ("fleet-10k", "tenant_ticks_per_s", "fleet.tenant_ticks"),
    ("sweep-8pt-cold", "cold_points_per_s", "sweep.n_executed"),
    ("sweep-8pt-warm", "warm_points_per_s", "sweep.n_cached"),
]

#: ``--curve``: (workload, override key, values, fixed overrides, the
#: count that shows what the knob did).
CURVES = [
    # The monitor is attached (config rec) so that monitor.* is non-zero:
    # whether it stays flat as n_pages grows is the paper's Fig 7 claim.
    ("kernel-pressure", "gib", [1, 2, 4, 8], {"config": "rec"}, "sim.kernel.n_pages"),
    ("run-prcl", "max_nr_regions", [100, 1000, 10000], {}, "monitor.nr_regions_mean"),
    ("fleet-10k", "n_tenants", [1000, 10000, 30000], {}, "fleet.n_regions"),
]


def calibration_s() -> float:
    """A fixed pure-Python loop plus a fixed NumPy loop, about 0.3 s:
    how fast this host is right now, for comparing rows across hosts."""
    import numpy as np

    start = perf_counter_ns()
    total = 0
    for i in range(1_500_000):
        total += i * i
    values = np.arange(1_000_000, dtype=np.float64)
    for _ in range(60):
        values = np.sqrt(values * 1.0001 + 1.0)
    return (perf_counter_ns() - start) / 1e9


def launch(args: dict) -> dict:
    """Run one child to its end; its reading, or ``{"error": ...}``."""
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(args)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The child leads its own session, so its sweep workers go too.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if process.returncode != 0:
        return {"error": f"exit {process.returncode}: {err.strip()[-2000:]}"}
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"error": f"no reading on the last line: {out[-200:]!r}"}


class WorkloadRun:
    """All children of one workload in one call, and what they add up to."""

    def __init__(self, name, *, seed, smoke, out_dir, overrides=None):
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.out_dir = out_dir
        self.overrides = overrides or {}
        self.scratch = out_dir / f"scratch-{os.getpid()}"
        self.readings = []  # timed, untraced
        self.traced = None
        self.digests = set()
        self.code = None
        self.attempted = 0
        self.failures = []
        self._n_children = 0

    def child(self, *, warmup=False, traced=False) -> dict:
        """One fresh child.  Any failure is recorded, never raised."""
        rep_dir = self.scratch / "rep"
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep_dir.mkdir(parents=True)
        (self.scratch / "shared").mkdir(exist_ok=True)
        spans_out = self.out_dir / f"{self.name}-seed{self.seed}.spans.tsv"
        started = perf_counter_ns()
        reading = launch(
            {
                "workload": self.name,
                "seed": self.seed,
                "smoke": self.smoke,
                "warmup": warmup,
                "traced": traced,
                "scratch": str(rep_dir),
                "shared": str(self.scratch / "shared"),
                "overrides": self.overrides,
                "spans_out": str(spans_out) if traced else None,
            }
        )
        reading["child_s"] = (perf_counter_ns() - started) / 1e9
        self._n_children += 1
        label = "warm-up" if warmup else f"child {self._n_children}"
        if "error" in reading:
            self.attempted += 1
            self.failures.append(f"{label}: {reading['error']}")
            return reading
        self.attempted += reading["attempted"]
        self.failures += [f"{label}: {text}" for text in reading["failures"]]
        self.digests.add(reading["digest"])
        self.code = reading["code_version_tag"]
        if traced:
            self.traced = reading
        elif not warmup:
            self.readings.append(reading)
        return reading

    def close(self) -> None:
        """Output checks over the finished children; drops the scratch."""
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.attempted += 2  # the digest check and the counts check
        if len(self.digests) > 1:
            self.failures.append(f"result digests differ: {sorted(self.digests)}")
        counted = self.readings + ([self.traced] if self.traced else [])
        for key in sorted(counted[0]["counts"]) if counted else []:
            values = {json.dumps(r["counts"][key]) for r in counted}
            if key not in VOLATILE_COUNTS and len(values) > 1:
                self.failures.append(f"count {key} does not repeat: {sorted(values)}")

    # -- results -------------------------------------------------------
    def samples(self, metric: str):
        return [r["end_to_end"][metric] for r in self.readings]

    def per_layer(self) -> dict:
        """What the traced child measured, by metric name."""
        traced = self.traced
        values = dict(traced["counts"])
        for span, (self_s, calls) in traced["spans"].items():
            values[f"{span}.self_s"] = self_s
            values[f"{span}.calls"] = calls
        values["bench.unattributed_share"] = traced["unattributed_share"]
        values["bench.trace_overhead"] = traced["end_to_end"]["wall_s"] / statistics.median(
            self.samples("wall_s")
        )
        return values


def run_workload(name, opts) -> WorkloadRun:
    """Warm-up, timed children, then a traced one if asked for.

    Without ``--seconds`` there are ``--reps`` timed children.  With it
    they go on until the next would overrun the budget, and there are
    never fewer than :data:`MIN_REPS`; a traced child takes the place of
    one of those, so a traced call costs what an untraced one does.
    """
    started_ns = perf_counter_ns()
    run = WorkloadRun(name, seed=opts.seed, smoke=opts.smoke, out_dir=opts.out)
    last = run.child(warmup=True)
    if opts.seconds is None:
        for _ in range(opts.reps):
            run.child()
    else:
        floor = MIN_REPS - 1 if opts.traced else MIN_REPS
        while (
            len(run.readings) < floor
            or (perf_counter_ns() - started_ns) / 1e9 + last["child_s"] <= opts.seconds
        ) and not run.failures:
            last = run.child()
    if opts.traced:
        run.child(traced=True)
    run.close()
    return run


def show(run: WorkloadRun, spec: dict) -> None:
    """Print one workload's metrics by name, with units."""
    why = next(w["why"] for w in spec["workloads"] if w["name"] == run.name)
    print(f"\n== {run.name}: {why}")
    print(f"  digest {' '.join(sorted(run.digests)) or '-'} code_version_tag {run.code or '-'}")
    if run.readings:
        for metric in spec["end_to_end"]:
            values = run.samples(metric["name"])
            print(
                f"  {metric['name']:<22} {statistics.median(values):>14.4f} {metric['unit']:<6}"
                f" n={len(values)} min={min(values):.4f} max={max(values):.4f}"
            )
        wall = statistics.median(run.samples("wall_s"))
        for workload, rate, count in DERIVED_RATES:
            if workload == run.name:
                print(f"  {rate:<22} {run.readings[0]['counts'][count] / wall:>14.4f} 1/s")
    print(f"  {'fail_share':<22} {len(run.failures) / max(run.attempted, 1):>14.4f} ratio")
    if run.traced and run.readings:
        values = run.per_layer()
        for metric in spec["per_layer"]:
            if values.get(metric["name"]):
                print(f"  {metric['name']:<46} {values[metric['name']]:>18.6f} {metric['unit']}")
        print("  (per-layer metrics not listed read 0)")
    for text in run.failures:
        print(f"  FAILED {text}")


def curve(opts) -> int:
    """Per-layer self time against the knob that should drive it: one
    traced child per knob value, no repetitions, nothing gated."""
    failed = 0
    for workload, key, values, fixed, count in CURVES:
        columns = []
        for value in values:
            run = WorkloadRun(
                workload,
                seed=opts.seed,
                smoke=False,
                out_dir=opts.out,
                overrides={**fixed, key: value},
            )
            run.child(traced=True)
            run.close()
            failed += len(run.failures)
            for text in run.failures:
                print(f"FAILED {workload} {key}={value}: {text}")
            columns.append(run.traced or {"spans": {}, "counts": {}})
        print(f"\n== {workload}: self seconds against {key} = {values} {fixed or ''}")
        row = [column["counts"].get(count, 0) for column in columns]
        print(f"  {count:<42}" + "".join(f"{x:>12.0f}" for x in row))
        for name in sorted({n for column in columns for n in column["spans"]}):
            row = [column["spans"].get(name, (0.0, 0))[0] for column in columns]
            print(f"  {name:<42}" + "".join(f"{x:>12.4f}" for x in row))
        if count == "sim.kernel.n_pages":
            monitor = [
                sum(s for n, (s, _) in column["spans"].items() if n.startswith("monitor."))
                for column in columns
            ]
            ratio = monitor[-1] / monitor[0] if monitor[0] else float("nan")
            print(
                f"  monitor.*.self_s is {'flat' if ratio < 1.25 else 'NOT flat'} in n_pages: "
                f"x{ratio:.2f} while n_pages grew x{values[-1] // values[0]}"
            )
    return 1 if failed else 0


def smoke_check(runs, spec) -> list:
    """Names emitted == names in BENCHMARK.json, and all well formed."""
    problems = []
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    declared += [w["name"] for w in spec["workloads"]]
    problems += [f"bad name {n!r}" for n in declared if not NAME_RE.fullmatch(n)]
    from workloads import SPAN_NAMES, WORKLOADS

    if sorted(WORKLOADS) != sorted(w["name"] for w in spec["workloads"]):
        problems.append("workloads.py and BENCHMARK.json list different workloads")
    end_to_end, per_layer = set(), set()
    for run in runs:
        if run.traced and run.readings:
            end_to_end |= set(run.readings[0]["end_to_end"])
            per_layer |= set(run.per_layer())
    for span in SPAN_NAMES:
        per_layer |= {f"{span}.self_s", f"{span}.calls"}
    for layer, emitted in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        named = {m["name"] for m in spec[layer]}
        if emitted != named:
            problems.append(
                f"{layer} names differ: only emitted {sorted(emitted - named)}, "
                f"only in BENCHMARK.json {sorted(named - emitted)}"
            )
    return problems


def main(argv=None) -> int:
    started_ns = perf_counter_ns()  # for the smoke run's own time limit
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=5, help="timed repetitions (default 5)")
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--traced", action="store_true", help="add a traced repetition")
    parser.add_argument("--out", type=Path, default=HERE / "out", help="spans and scratch")
    parser.add_argument("--smoke", action="store_true", help="1/20 size self-check")
    parser.add_argument("--curve", action="store_true", help="scaling curves (not gated)")
    parser.add_argument("--seconds", type=float, help="gate: time budget of this call")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="gate: JSON last line")
    opts = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no src/repro to measure", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for name in opts.workload or []:
        if name not in names:
            parser.error(f"unknown workload {name!r} (one of {', '.join(names)})")
    if opts.reps < MIN_REPS and not opts.smoke:
        parser.error(f"--reps below {MIN_REPS}: a median needs {MIN_REPS} samples")
    if opts.trace is not None:
        opts.traced = bool(opts.trace)
        if len(opts.workload or []) != 1:
            parser.error("--trace takes exactly one --workload")
    if opts.smoke:
        opts.reps, opts.traced = 1, True
    opts.out.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(HERE))

    import numpy

    print(
        f"host: nproc={os.cpu_count()} python={sys.version.split()[0]} "
        f"numpy={numpy.__version__} calibration_s={calibration_s():.4f}"
    )
    if opts.curve:
        return curve(opts)

    runs = []
    for name in opts.workload or names:
        run = run_workload(name, opts)
        runs.append(run)
        show(run, spec)
    failed = sum(len(run.failures) for run in runs)
    attempted = sum(run.attempted for run in runs)

    if opts.smoke:
        problems = smoke_check(runs, spec)
        for text in problems:
            print(f"FAILED smoke: {text}")
        failed += len(problems)
        print(f"\nsmoke: {(perf_counter_ns() - started_ns) / 1e9:.1f} s")

    if opts.trace is not None:
        run = runs[0]
        if not run.readings or (opts.traced and not run.traced):
            print("error: no repetition completed, nothing to report", file=sys.stderr)
            return 1
        # A span that never opened, or a count this workload lacks, reads 0.
        if opts.traced:
            values = run.per_layer()
        else:
            values = {
                m["name"]: statistics.median(run.samples(m["name"])) for m in spec["end_to_end"]
            }
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {
                        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                        for m in spec["per_layer" if opts.traced else "end_to_end"]
                    },
                }
            )
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
