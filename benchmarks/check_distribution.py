"""Check that two source trees simulate the same distribution.

A change to a seeded random stream (for example, how LRU reclaim breaks
ties inside a scan bucket) moves every digest of the runs that draw from
it, so digest equality cannot vouch for it.  This checker runs the
golden matrix's reclaim cases (``tests/reclaim_cases.py``, from this
checkout, so both trees run the same shapes) at seeds 0-9 on both trees
and compares the resulting metrics:

* ``minor_faults`` and ``avg_rss_bytes`` must be equal seed by seed;
* the other metrics' means may differ by at most 4 standard errors of
  the difference of the two means.

Both tolerances are fixed here, before any result is read.  It prints
mean ± sd per tree, case and metric, and exits 1 on a breach.  Each
tree runs in its own interpreter, with ``<tree>/src`` first on
``sys.path``; the two run side by side.

Usage::

    python benchmarks/check_distribution.py SRC_A SRC_B

where ``SRC_A`` and ``SRC_B`` are repository roots (for example a
``git clone`` of the parent commit and this checkout).
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Seeds 0..SEEDS-1 per case and tree.
SEEDS = 10
#: A statistical metric's two means may differ by this many standard
#: errors of their difference.
MAX_SE = 4.0
#: Metrics that must match seed by seed.
EXACT = ("minor_faults", "avg_rss_bytes")
#: Metrics compared by their means.
STATISTICAL = (
    "major_faults",
    "reclaim_evictions",
    "pages_demoted",
    "pages_promoted",
    "shed_pages",
    "runtime_us",
)


def emit() -> dict:
    """Run every case at seeds ``0..SEEDS-1`` with the ``repro`` first on
    ``sys.path``; returns ``{case: {metric: [value per seed]}}``."""
    from repro.runner.experiment import run_experiment
    from tests.reclaim_cases import RECLAIM_CASES

    out = {}
    for name, kw in RECLAIM_CASES.items():
        rows = {m: [] for m in EXACT + STATISTICAL}
        for seed in range(SEEDS):
            result = run_experiment(**dict(kw, seed=seed))
            values = dict(
                result.breakdown, runtime_us=result.runtime_us, avg_rss_bytes=result.avg_rss_bytes
            )
            for metric, column in rows.items():
                column.append(values[metric])
        out[name] = rows
    return out


def _mean_sd(values):
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
    return mean, math.sqrt(var)


def compare(a: dict, b: dict) -> list:
    """Print the table; return the breaches as ``(case, metric, why)``."""
    breaches = []
    print(f"{'case':<22} {'metric':<18} {'A mean ± sd':>24} {'B mean ± sd':>24}  verdict")
    for case in a:
        for metric in EXACT + STATISTICAL:
            xa, xb = a[case][metric], b[case][metric]
            (ma, sa), (mb, sb) = _mean_sd(xa), _mean_sd(xb)
            if metric in EXACT:
                ok = xa == xb
                why = "equal per seed" if ok else "differs per seed"
            else:
                se = math.sqrt(sa**2 / len(xa) + sb**2 / len(xb))
                ok = abs(ma - mb) <= MAX_SE * se
                why = f"|diff| {abs(ma - mb):.4g} vs {MAX_SE:g} SE {MAX_SE * se:.4g}"
            print(
                f"{case:<22} {metric:<18} {f'{ma:.6g} ± {sa:.3g}':>24} "
                f"{f'{mb:.6g} ± {sb:.3g}':>24}  {'ok' if ok else 'BREACH'} ({why})"
            )
            if not ok:
                breaches.append((case, metric, why))
    return breaches


def _run_tree(tree: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, __file__, "--emit", str(tree)],
        stdout=subprocess.PIPE,
        text=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, help="SRC_A SRC_B: repository roots")
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit is not None:
        # The tree's ``repro`` first, the cases from this checkout.
        sys.path[:0] = [str(args.emit.resolve() / "src"), str(ROOT)]
        json.dump(emit(), sys.stdout)
        return 0
    if len(args.trees) != 2:
        parser.error("give two repository roots")
    for tree in args.trees:
        if not (tree / "src" / "repro").is_dir():
            parser.error(f"{tree} has no src/repro")
    procs = [_run_tree(tree) for tree in args.trees]
    outputs = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        print("error: a tree failed to run its cases", file=sys.stderr)
        return 2
    a, b = (json.loads(text) for text in outputs)
    print(f"A = {args.trees[0]}\nB = {args.trees[1]}\nseeds 0-{SEEDS - 1}\n")
    breaches = compare(a, b)
    print(f"\n{len(breaches)} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
