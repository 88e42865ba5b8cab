"""Gate a committed benchmark ratio against a fresh measurement.

A ratio bench (``bench_fleet_scale.py``, ``bench_tiering_placement.py``,
``bench_checkpoint_overhead.py``) times two policies in the same process
and writes ``benchmarks/out/BENCH_<name>.json`` with their ratio under
``"speedup"`` — machine-independent, unlike either time.  This checker
compares that fresh artifact against the committed baseline
(``benchmarks/baselines/BENCH_<name>.json``) and fails when the ratio
has regressed by more than the tolerance (default 20%).

First run (no baseline committed yet): the fresh result is installed as
the baseline and the check passes with a notice — commit the new file.

Usage::

    python benchmarks/check_bench_regression.py \
        --fresh benchmarks/out/BENCH_fleet_scale.json \
        --baseline benchmarks/baselines/BENCH_fleet_scale.json \
        [--tolerance 0.2]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh",
        type=Path,
        required=True,
        help="freshly measured benchmark artifact",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        required=True,
        help="committed baseline to compare against",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional speedup regression (default 0.2 = 20%%)",
    )
    args = parser.parse_args(argv)

    if not args.fresh.exists():
        print(
            f"error: no fresh benchmark result at {args.fresh} — run the "
            "bench that writes it first",
            file=sys.stderr,
        )
        return 2
    fresh = json.loads(args.fresh.read_text())

    if not args.baseline.exists():
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(
            json.dumps(fresh, indent=2, sort_keys=True) + "\n"
        )
        print(
            f"notice: no baseline at {args.baseline}; installed the fresh "
            f"result (speedup {fresh['speedup']:.2f}x) as the baseline — "
            "commit it to arm the gate"
        )
        return 0

    baseline = json.loads(args.baseline.read_text())
    floor = baseline["speedup"] * (1.0 - args.tolerance)
    print(
        f"{args.fresh.stem}: fresh {fresh['speedup']:.2f}x, "
        f"baseline {baseline['speedup']:.2f}x, floor {floor:.2f}x "
        f"(tolerance {args.tolerance:.0%})"
    )
    if fresh["speedup"] < floor:
        print(
            f"FAIL: ratio regressed more than "
            f"{args.tolerance:.0%} vs the committed baseline",
            file=sys.stderr,
        )
        return 1
    print("OK: within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
