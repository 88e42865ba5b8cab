"""Golden identity matrix: every pinned behaviour as two digests.

Each case runs one small, seeded scenario through a real entry point
and pins, in ``tests/fixtures/goldens.json``, the
:func:`~repro.sweep.serialize.fingerprint` of its result (``RunResult``,
merged fleet summary or ``SweepReport``) and the SHA-256 of its
canonical JSONL trace (``null`` where it has none).  Only canonical
JSON is hashed, never a pickle, so the fixture holds on every supported
Python.  The cases in :data:`SAME_RESULT` must share one result digest:
checkpoint/restore against the uninterrupted run, spawn pool against
serial.  ``make test-sanitize`` checks the same fixture with the
sanitizer on.

After an intentional behaviour change, refresh the fixture with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_goldens.py

and commit the rewritten ``goldens.json`` on its own, saying why the
digests moved.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import partial
from pathlib import Path

import pytest

from repro.errors import CheckpointError
from repro.faults import load_fault_plan
from repro.fleet import FleetConfig, run_fleet, run_fleet_sharded
from repro.recovery import checkpoint_run
from repro.runner import restore_run, resume_checkpoint
from repro.runner.configs import PRCL_SCHEMES, ExperimentConfig
from repro.runner.experiment import ExperimentRun, run_experiment
from repro.sim.machine import scaled_instance
from repro.sweep.grid import SweepGrid
from repro.sweep.runner import SweepRunner
from repro.sweep.serialize import fingerprint
from repro.units import GIB, MIB, SEC
from repro.workloads.base import WorkloadSpec
from repro.workloads.patterns import CyclicSweep, Hotspot

from tests.helpers import traced_run

FIXTURES = Path(__file__).parent / "fixtures"
GOLDENS = FIXTURES / "goldens.json"
ROOT = Path(__file__).resolve().parents[1]

#: name → zero-argument function returning ``(value, trace_text | None)``.
CASES = {}


def case(name):
    def register(fn):
        CASES[name] = fn
        return fn

    return register


# ----------------------------------------------------------------------
# The kernel scenarios: Fig 3 pattern components through the registry
# workloads, plus pressure shapes that force sustained reclaim through
# both ``select_victims`` candidate routes (the sparse frame-table route,
# table ≫ DRAM, and the dense whole-table mask route, table ≈ DRAM).
# ----------------------------------------------------------------------
#: (workload, config) pairs spanning the Fig 3 pattern components and
#: every monitoring configuration family: plain LRU, DAMON_RECLAIM,
#: khugepaged under thp=always, and the prcl scheme (PAGEOUT actions).
REGISTRY_CASES = [
    ("parsec3/freqmine", "baseline"),
    ("splash2x/ocean_ncp", "rec"),
    ("parsec3/canneal", "thp"),
    ("parsec3/dedup", "prcl"),
]

for _workload, _config in REGISTRY_CASES:
    CASES[f"registry-{_workload}-{_config}"] = partial(
        traced_run, workload=_workload, config=_config, seed=3, time_scale=0.02
    )


def _pressure_spec(footprint: int, period_us: int, duration_us: int) -> WorkloadSpec:
    """A sweep that outgrows the guest's DRAM: sustained reclaim, every
    epoch, for the whole run."""
    return WorkloadSpec(
        name="pressure",
        suite="diff",
        footprint=footprint,
        duration_us=duration_us,
        components=(
            CyclicSweep(0, footprint - 16 * MIB, period_us=period_us, touches_per_sec=400),
            Hotspot(footprint - 4 * MIB, 4 * MIB),
        ),
    )


def _reclaiming(outcome):
    assert outcome[0].breakdown["reclaim_evictions"] > 0, "scenario never reclaimed"
    return outcome


@case("sparse-pressure")
def sparse_pressure():
    """Table ≫ DRAM: the reclaimer's frame-table candidate route."""
    return _reclaiming(
        traced_run(
            workload=_pressure_spec(512 * MIB, 2 * SEC, 6 * SEC),
            config="baseline",
            machine=scaled_instance("i3.metal", dram_scale=1 / 1024),
            seed=11,
        )
    )


@case("sparse-pressure-rec")
def sparse_pressure_with_monitor():
    """Same pressure under DAMON_RECLAIM: scheme pageouts interleave
    with watermark reclaim."""
    return traced_run(
        workload=_pressure_spec(512 * MIB, 2 * SEC, 6 * SEC),
        config="rec",
        machine=scaled_instance("i3.metal", dram_scale=1 / 1024),
        seed=11,
    )


@case("dense-pressure")
def dense_pressure():
    """Table ≈ DRAM: residency too dense for the frame route, so the
    whole-table mask route selects victims."""
    return _reclaiming(
        traced_run(
            workload=_pressure_spec(48 * MIB, 2 * SEC, 6 * SEC),
            config="baseline",
            machine=scaled_instance("i3.metal", dram_scale=1 / 8192),
            seed=11,
        )
    )


@case("thp-pressure")
def thp_pressure():
    """khugepaged bloat pushing against small DRAM: promotions, huge
    skips in reclaim, and shed-mode OOM handling."""
    fp = 192 * MIB
    spec = WorkloadSpec(
        name="thp-pressure",
        suite="diff",
        footprint=fp,
        duration_us=6 * SEC,
        components=(
            CyclicSweep(0, fp - 16 * MIB, period_us=4 * SEC, touches_per_sec=400),
            Hotspot(fp - 4 * MIB, 4 * MIB),
        ),
    )
    return traced_run(
        workload=spec,
        config="thp",
        machine=scaled_instance("i3.metal", dram_scale=1 / 2048),
        seed=7,
        oom_policy="shed",
    )


@case("file-swap")
def file_swap():
    """The big-table bench scenario shape (file swap, deep sweep), small."""
    return traced_run(
        workload=_pressure_spec(1 * GIB, 8 * SEC, 4 * SEC),
        config="baseline",
        machine=scaled_instance("i3.metal", dram_scale=1 / 2048),
        seed=5,
        swap="file",
    )


# ----------------------------------------------------------------------
# The paper's configurations on a flat machine, and one paddr scheme.
# ----------------------------------------------------------------------
for _config in ("prcl", "ethp", "prec"):
    CASES[f"flat-{_config}"] = partial(
        traced_run, workload="parsec3/freqmine", config=_config, seed=5, time_scale=0.02
    )
CASES["flat-paddr-prcl"] = partial(
    CASES["flat-prcl"],
    config=ExperimentConfig(name="paddr-prcl", monitor="paddr", schemes_text=PRCL_SCHEMES),
)

# ----------------------------------------------------------------------
# Slow memory tier: migrations both ways, first-touch spill, and ethp's
# NOHUGEPAGE freeing bloat that spilled into the tier.
# ----------------------------------------------------------------------
_TIERED = dict(
    machine=scaled_instance("i3.metal", dram_scale=1 / 256), tier="cxl-dram", time_scale=0.02
)
_TIERING = ExperimentConfig(
    name="tiering",
    monitor="vaddr",
    schemes_text="4K max 1 max min max migrate_hot\n4K max min min 500ms max migrate_cold\n",
)
for _policy in ("managed", "unmanaged"):
    CASES[f"tiered-{_policy}"] = partial(
        traced_run, workload="parsec3/blackscholes", config=_TIERING,
        tier_scale=0.01, tier_policy=_policy, seed=5, **_TIERED,
    )
CASES["thp-unmanaged"] = partial(
    traced_run,
    workload="splash2x/ocean_ncp",
    config=ExperimentConfig(
        name="ethp-unmanaged",
        monitor="vaddr",
        thp_mode="madvise",
        schemes_text="min max 1 max min max hugepage\n2M max min min 1s max nohugepage\n",
    ),
    tier_scale=0.02, tier_policy="unmanaged", seed=0, **_TIERED,
)

#: Every run-level fault kind at once.
CASES["chaos"] = partial(
    traced_run,
    workload="parsec3/swaptions",
    config="rec",
    faults=load_fault_plan(ROOT / "examples" / "faults" / "chaos.toml"),
    seed=7,
    time_scale=0.02,
)


# ----------------------------------------------------------------------
# Identity across execution paths: each pair in SAME_RESULT agrees.
# ----------------------------------------------------------------------
@case("registry-splash2x/ocean_ncp-rec-restored")
def restored():
    """Checkpoint at epoch 7, restore from the file, finish."""
    run = ExperimentRun("splash2x/ocean_ncp", config="rec", seed=3, time_scale=0.02)
    run.start()
    run.run_until(7 * run.spec.epoch_us)
    with tempfile.TemporaryDirectory() as scratch:
        path = str(Path(scratch) / "run.ckpt")
        checkpoint_run(run, path)
        resumed = restore_run(path)
    resumed.run_until(resumed.spec.duration_us)
    return resumed.finish(), None


_FLEET = FleetConfig(n_tenants=200, duration_s=60.0, arrival_window_s=10.0, seed=4)
_SWEEP = SweepGrid.from_axes(
    "experiment",
    {"config": ["baseline", "prcl"], "seed": [0, 1]},
    fixed={"workload": "parsec3/freqmine", "time_scale": 0.02},
)
for _jobs in (1, 2):
    CASES[f"fleet-200-jobs{_jobs}"] = lambda j=_jobs: (
        run_fleet_sharded(_FLEET, n_shards=4, jobs=j), None
    )
    CASES[f"sweep-4pt-jobs{_jobs}"] = lambda j=_jobs: (SweepRunner(_SWEEP, jobs=j).run(), None)

# ----------------------------------------------------------------------
# Checkpoints an older tree wrote.  The two files are committed once and
# never regenerated (REPRO_REGEN_GOLDEN refreshes the digests, not the
# files), so a change that stops old state from unpickling fails here.
# The tree at commit a8884e5 wrote both, with its code version tag
# pinned to "a8884e5" and the sanitizer on, from the specs below paused
# half way: the run at epoch 60 of 80 (past its first prcl pageout), the
# fleet at tick 30 of 60.
# ----------------------------------------------------------------------
PARENT_RUN = dict(
    workload=_pressure_spec(32 * MIB, 2 * SEC, 8 * SEC),
    config="prcl",
    machine=scaled_instance("i3.metal", dram_scale=1 / 8192),
    seed=11,
)
PARENT_FLEET = FleetConfig(n_tenants=20, duration_s=60.0, arrival_window_s=10.0, seed=4)

#: golden case -> (checkpoint file, the uninterrupted run it resumes).
PARENT_CHECKPOINTS = {
    "parent-run-checkpoint": ("parent-run.ckpt", lambda: run_experiment(**PARENT_RUN)),
    "parent-fleet-checkpoint": ("parent-fleet.ckpt", lambda: run_fleet(PARENT_FLEET)),
}
for _name, (_file, _) in PARENT_CHECKPOINTS.items():
    CASES[_name] = lambda f=_file: (
        resume_checkpoint(str(FIXTURES / f), strict_version=False), None
    )

SAME_RESULT = [
    ("registry-splash2x/ocean_ncp-rec", "registry-splash2x/ocean_ncp-rec-restored"),
    ("fleet-200-jobs1", "fleet-200-jobs2"),
    ("sweep-4pt-jobs1", "sweep-4pt-jobs2"),
]


# ----------------------------------------------------------------------
# The checks
# ----------------------------------------------------------------------
def _digests(name):
    value, trace = CASES[name]()
    return {
        "result": fingerprint(value),
        "trace": None if trace is None else hashlib.sha256(trace.encode("utf-8")).hexdigest(),
    }


def _table():
    return json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}


@pytest.mark.parametrize("name", list(CASES))
def test_case_matches_golden(name):
    got = _digests(name)
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":  # daos-lint: disable=DT204
        table = _table()
        table[name] = got
        GOLDENS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    assert _table().get(name) == got, (
        f"{name} moved; if the change is intended, refresh with "
        "REPRO_REGEN_GOLDEN=1 and commit the fixture on its own"
    )


def test_fixture_lists_exactly_the_cases():
    assert sorted(_table()) == sorted(CASES)


@pytest.mark.parametrize("name", list(PARENT_CHECKPOINTS))
def test_parent_checkpoint_resumes_to_the_uninterrupted_result(name):
    _, uninterrupted = PARENT_CHECKPOINTS[name]
    assert fingerprint(uninterrupted()) == _table()[name]["result"]


@pytest.mark.parametrize("name", list(PARENT_CHECKPOINTS))
def test_parent_checkpoint_fails_the_strict_version_check(name):
    path = str(FIXTURES / PARENT_CHECKPOINTS[name][0])
    with pytest.raises(CheckpointError, match="code version 'a8884e5'"):
        resume_checkpoint(path)


@pytest.mark.parametrize("pair", SAME_RESULT, ids="=".join)
def test_execution_paths_share_one_result(pair):
    table = _table()
    assert table[pair[0]]["result"] == table[pair[1]]["result"]
