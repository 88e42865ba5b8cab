"""Benchmark-suite helpers.

Every benchmark regenerates one of the paper's tables or figures and
writes the rows/series to ``benchmarks/out/<name>.txt`` (also echoed to
stdout, visible with ``pytest -s``).  Those committed files are made at
the default scale; a run at any other ``REPRO_BENCH_SCALE`` writes to
``benchmarks/out/scale-<value>/`` instead, which git ignores.

Scale knobs (environment variables):

* ``REPRO_BENCH_SCALE`` — time-scale factor applied to workload
  durations (default 0.15; the paper's full runs are 1.0);
* ``REPRO_BENCH_FULL=1`` — run the complete workload sets and parameter
  grids instead of the representative defaults;
* ``REPRO_BENCH_JOBS`` — worker processes for sweep-based benchmarks
  (default: up to 4, bounded by the CPU count);
* ``REPRO_BENCH_CACHE`` — sweep cache directory; unset (the default)
  disables caching so benchmarks always measure real simulation.

Absolute numbers will not match the paper (the substrate is a
simulator); the *shapes* — who wins, by what factor, where crossovers
fall — are the reproduction target.  See EXPERIMENTS.md for the
paper-vs-measured record.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

#: Default time scale for workload durations.
DEFAULT_SCALE = 0.15
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", str(DEFAULT_SCALE)))
#: Report directory: the committed outputs at the default scale only.
OUT_DIR = Path(__file__).parent / "out"
if SCALE != DEFAULT_SCALE:
    OUT_DIR = OUT_DIR / f"scale-{SCALE:g}"
#: Full grids instead of representative subsets.
FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
#: Worker processes for sweep-based benchmarks.
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", str(min(4, os.cpu_count() or 1))))
#: Sweep cache directory (None = caching off, measure real work).
BENCH_CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE") or None

#: Minimum effective duration so scheme ages up to tens of seconds stay
#: meaningful even under aggressive time scaling.
MIN_DURATION_S = 30.0


def effective_scale(spec, min_duration_s: float = MIN_DURATION_S) -> float:
    """Per-workload time scale: global SCALE, floored so the run lasts
    at least ``min_duration_s`` of virtual time."""
    nominal_s = spec.duration_us / 1e6
    if nominal_s <= min_duration_s:
        return 1.0
    return max(SCALE, min_duration_s / nominal_s)


class BenchReport:
    """Collects lines and writes them to ``OUT_DIR/<name>.txt``."""

    def __init__(self, name: str):
        self.name = name
        self.lines = []

    def add(self, text: str = "") -> None:
        for line in str(text).splitlines() or [""]:
            self.lines.append(line)

    def flush(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{self.name}.txt"
        body = "\n".join(self.lines) + "\n"
        path.write_text(body)
        print(f"\n=== {self.name} (saved to {path}) ===")
        print(body)


@pytest.fixture
def report(request):
    rep = BenchReport(request.node.name)
    yield rep
    rep.flush()


def pytest_addoption(parser):
    parser.addoption(
        "--fleet",
        type=int,
        default=200,
        metavar="N",
        help="fleet size for the fleet-scale benchmarks (default 200)",
    )


@pytest.fixture
def fleet_size(request):
    return request.config.getoption("--fleet")
