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

import dataclasses
import hashlib
import io
import json
import os
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.clock import EventQueue
from repro.errors import CheckpointError
from repro.faults import FaultInjector, load_fault_plan
from repro.fleet import FleetConfig, run_fleet, run_fleet_sharded
from repro.modules.lru_sort import LruSortModule, LruSortParams
from repro.modules.reclaim import ReclaimModule, ReclaimParams
from repro.monitor.attrs import MonitorAttrs
from repro.recovery import checkpoint_run, restore, resume_checkpoint
from repro.runner.configs import PRCL_SCHEMES, ExperimentConfig
from repro.runner.experiment import ExperimentRun, run_experiment
from repro.schemes.filters import AddressFilter
from repro.schemes.quotas import Quota
from repro.sim.kernel import SimKernel
from repro.sim.machine import GuestSpec, get_instance, scaled_instance
from repro.sim.pagetable import PAGE_SIZE
from repro.sim.swap import ZramDevice
from repro.sim.thp import ThpPolicy
from repro.sweep.grid import SweepGrid
from repro.sweep.runner import SweepRunner
from repro.sweep.serialize import fingerprint
from repro.trace import JsonlTraceSink, TraceBus
from repro.units import MIB, MSEC, SEC
from repro.workloads.base import WorkloadSpec
from repro.workloads.patterns import ColdInit, Hotspot

from tests.helpers import BASE, WssEstimator, run_epochs, traced_run
from tests.reclaim_cases import RECLAIM_CASES, TIERED, pressure_spec

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


def _reclaiming(**kw):
    outcome = traced_run(**kw)
    assert outcome[0].breakdown["reclaim_evictions"] > 0, "scenario never reclaimed"
    return outcome


#: The runs that hang on LRU victim selection (``tests/reclaim_cases.py``);
#: every one of them on a pressure sweep must reclaim.
for _name, _kw in RECLAIM_CASES.items():
    _sweep = isinstance(_kw["workload"], WorkloadSpec)
    CASES[_name] = partial(_reclaiming if _sweep else traced_run, **_kw)

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
CASES["tiered-unmanaged"] = partial(
    traced_run, **dict(RECLAIM_CASES["tiered-managed"], tier_policy="unmanaged")
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
    tier_scale=0.02, tier_policy="unmanaged", seed=0, **TIERED,
)

# ----------------------------------------------------------------------
# Schemes-engine paths the configurations above never take: a quota
# that splits a region, address filters, the reclaim and LRU-sort
# modules (quota + watermarks; the physical LRU back-ends), WILLNEED
# and COLD, and a STAT scheme feeding a working-set estimator.
# ----------------------------------------------------------------------
#: A region-splitting budget: not a page multiple, so a region clipped
#: at the budget leaves a visible sub-page remainder in ``QuotaCharged``.
_SPLIT_QUOTA = Quota(size_bytes=10 * MIB + 1000, reset_interval_us=1 * SEC)


@case("schemes-quota-split")
def quota_split():
    """A pageout scheme under a quota below what it matches: regions are
    ranked by priority, charged one by one, and the one that outgrows
    what is left of the budget is split."""
    result, trace = traced_run(
        workload=pressure_spec(96 * MIB, 4 * SEC, 8 * SEC),
        config=ExperimentConfig(
            name="pageout-quota",
            monitor="vaddr",
            schemes_text="4K max min min 1s max pageout\n",
            quota=_SPLIT_QUOTA,
        ),
        seed=5,
    )
    charges = [json.loads(line) for line in trace.splitlines() if '"QuotaCharged"' in line]
    assert len({c["time_us"] for c in charges}) < len(charges), "one charge per window"
    assert any(c["remaining_bytes"] == 1000 for c in charges), "no region was split"
    return result, trace


def _tweaked_run(tweak, **kw):
    """``traced_run`` with ``tweak(run)`` applied between construction
    and the first epoch (installing what the scheme text cannot say)."""
    bus = TraceBus(ring_capacity=0)
    buffer = io.StringIO()
    bus.subscribe_all(JsonlTraceSink(buffer))
    run = ExperimentRun(trace=bus, **kw)
    extra = tweak(run)
    run.start()
    run.run_until(run.spec.duration_us)
    return {"result": fingerprint(run.finish()), "extra": extra()}, buffer.getvalue()


def _filter_heap(run):
    """Allow the prcl pageout on the first half of the largest VMA
    only, with a 4 MiB hole rejected in its middle."""
    vma = max(run.tenant.kernel.space.vmas, key=lambda v: v.size)
    half = vma.start + (vma.size // 2 & ~(MIB - 1))
    hole = vma.start + (vma.size // 4 & ~(MIB - 1))
    scheme = run.tenant.engine.schemes[0]
    scheme.filters = [
        AddressFilter(vma.start, half),
        AddressFilter(hole, hole + 4 * MIB, allow=False),
    ]
    return lambda: {"sz_applied": scheme.stats.sz_applied, "nr_applied": scheme.stats.nr_applied}


CASES["schemes-address-filter"] = partial(
    _tweaked_run,
    _filter_heap,
    workload="parsec3/freqmine",
    config="prcl",
    seed=5,
    time_scale=0.02,
)

def _stat_wss(run):
    """Record the hot-pattern STAT scheme's matched bytes per interval
    into a :class:`WssEstimator`."""
    scheme = run.tenant.engine.schemes[0]
    estimator = WssEstimator()
    seen = [0]

    def record(monitor, now):
        estimator.record(now, scheme.stats.sz_tried - seen[0])
        seen[0] = scheme.stats.sz_tried

    run.tenant.monitor.register_raw_callback(record)
    return lambda: {
        "points": len(estimator.points),
        "p50": estimator.percentile(50),
        "p90": estimator.percentile(90),
        "average": estimator.average(),
        "nr_tried": scheme.stats.nr_tried,
        "nr_applied": scheme.stats.nr_applied,
    }


CASES["schemes-stat-wss"] = partial(
    _tweaked_run,
    _stat_wss,
    workload="splash2x/ocean_ncp",
    config=ExperimentConfig(
        name="stat-wss", monitor="vaddr", schemes_text="4K max 5% max min max stat\n"
    ),
    seed=3,
    time_scale=0.02,
)

#: Monitoring fast enough for a few seconds of simulated time.
_MODULE_ATTRS = MonitorAttrs(
    sampling_interval_us=1 * MSEC,
    aggregation_interval_us=20 * MSEC,
    regions_update_interval_us=200 * MSEC,
    min_nr_regions=10,
    max_nr_regions=200,
)


def _module_story(make_module, *, dram_mib, n_epochs):
    """One module on a bare kernel under a 4 MiB hotspot over 64 MiB of
    once-touched memory; the value is the module's stats and the
    kernel's metrics."""
    queue = EventQueue()
    bus = TraceBus(queue.clock, ring_capacity=0)
    buffer = io.StringIO()
    bus.subscribe_all(JsonlTraceSink(buffer))
    guest = GuestSpec(host=get_instance("i3.metal"), vcpus=4, dram_bytes=dram_mib * MIB)
    kernel = SimKernel(guest, swap=ZramDevice(128 * MIB), seed=7, trace=bus)
    kernel.mmap(BASE, 64 * MIB)
    module = make_module(kernel, bus)
    module.start(queue)
    kernel.apply_access(BASE, BASE + 48 * MIB, now=0, epoch_us=100 * MSEC)
    run_epochs(
        kernel, queue, [dict(start=BASE, end=BASE + 4 * MIB, touches_per_page=2000)], n_epochs
    )
    value = {"module": module.stats(), "kernel": dataclasses.asdict(kernel.metrics)}
    return value, buffer.getvalue()


CASES["module-reclaim"] = partial(
    _module_story,
    lambda kernel, bus: ReclaimModule(
        kernel,
        ReclaimParams(min_age_us=200 * MSEC, quota_sz_bytes=6 * MIB + 512),
        _MODULE_ATTRS,
        trace=bus,
    ),
    dram_mib=64,
    n_epochs=30,
)
CASES["module-lru-sort-phys"] = partial(
    _module_story,
    lambda kernel, bus: LruSortModule(
        kernel,
        LruSortParams(cold_min_age_us=200 * MSEC, quota_sz_bytes=8 * MIB + 512),
        _MODULE_ATTRS,
        trace=bus,
    ),
    dram_mib=96,
    n_epochs=25,
)

# ----------------------------------------------------------------------
# Every way a page leaves residency, on one small shedding kernel: LRU
# reclaim, both PAGEOUT forms cut short by the free swap slots (the
# overflow no run above is known to reach), an allocation shed, a
# WILLNEED prefetch shed and a NOHUGEPAGE split freeing bloat.  The
# value hashes every page and chunk column, lru_gen, bloat and tier
# included, which the run digests above never see.
# ----------------------------------------------------------------------
_TABLE_COLUMNS = (
    "present", "swapped", "rate", "write_rate", "dirty", "last_touch", "touch_count",
    "frame", "bloat", "lru_gen", "tier", "chunk_huge", "chunk_promoted_at",
)


def _pageout_candidates(kernel, start, end, phys):
    """Present pages outside huge chunks a PAGEOUT of ``[start, end)``
    (frame addresses with ``phys``) would take if swap had room."""
    flat = kernel.space.flat
    if phys:
        idx = kernel.frames.owners(np.arange(start // PAGE_SIZE, end // PAGE_SIZE))
        idx = idx[idx >= 0]
    else:
        idx = np.concatenate([np.arange(lo, hi) for lo, hi in kernel.space.spans(start, end)])
    idx = idx[flat.present[idx]]
    return int(np.count_nonzero(~flat.huge_page_mask(idx)))


@case("kernel-residency-exits")
def residency_exits():
    bus = TraceBus(ring_capacity=0)
    buffer = io.StringIO()
    bus.subscribe_all(JsonlTraceSink(buffer))
    guest = GuestSpec(host=get_instance("i3.metal"), vcpus=4, dram_bytes=16 * MIB)
    kernel = SimKernel(
        guest, swap=ZramDevice(6 * MIB), thp=ThpPolicy(mode="always"), seed=7, trace=bus,
        oom_policy="shed",
    )
    a = kernel.mmap(BASE, 24 * MIB)
    b = kernel.mmap(BASE + 32 * MIB, 24 * MIB)
    metrics, epoch_us = kernel.metrics, 100 * MSEC
    clock = [0]

    def epoch():
        kernel.end_epoch(clock[0] + epoch_us, compute_us=70_000)
        kernel.begin_epoch()
        clock[0] += epoch_us

    def pageout(start, end, phys):
        candidates = _pageout_candidates(kernel, start, end, phys)
        paged = kernel.pageout(start, end, clock[0], phys=phys)
        assert 0 < paged < candidates, "the free swap slots did not cut the batch short"
        return paged

    def shed(action):
        before = metrics.shed_pages
        action()
        return metrics.shed_pages - before

    # Two huge chunks, mostly bloat, next to prioritised and dirty pages.
    kernel.apply_access(a.start, a.start + 8 * MIB, 0, epoch_us, write_fraction=0.5)
    kernel.apply_access(a.start + 12 * MIB, a.start + 16 * MIB, 0, epoch_us, stride=8)
    assert kernel.madvise_hugepage(a.start + 12 * MIB, a.start + 16 * MIB, 0) == 2
    kernel.lru_prioritize(a.start, a.start + 2 * MIB, 0)
    epoch()
    kernel.apply_access(b.start, b.start + 8 * MIB, clock[0], epoch_us, write_fraction=1.0)
    epoch()
    steps = {"reclaim_evictions": metrics.reclaim_evictions}
    steps["pageout_phys"] = pageout(0, 4 * MIB, True)
    kernel.apply_access(a.start, a.start + 2 * MIB, clock[0], epoch_us)
    epoch()
    steps["pageout"] = pageout(a.start, b.start + 4 * MIB, False)
    steps["shed_faults"] = shed(
        lambda: kernel.apply_access(
            a.start, a.start + 12 * MIB, clock[0], epoch_us, write_fraction=1.0
        )
    )
    steps["shed_willneed"] = shed(lambda: kernel.madvise_willneed(a.start, b.end, clock[0]))
    assert kernel.madvise_nohugepage(a.start + 12 * MIB, a.start + 16 * MIB, clock[0]) == 2
    steps["thp_freed_pages"] = metrics.thp_freed_pages
    epoch()
    assert all(steps.values()), steps
    flat = kernel.space.flat
    columns = {
        name: hashlib.sha256(getattr(flat, name).tobytes()).hexdigest() for name in _TABLE_COLUMNS
    }
    value = {"steps": steps, "columns": columns, "metrics": dataclasses.asdict(metrics)}
    return value, buffer.getvalue()


# ----------------------------------------------------------------------
# Sampling paths the paper's attributes never take: the dirty-bit write
# channel feeding a write-aware scheme, and epochs plus a regions update
# landing *inside* aggregation intervals (with the default attributes
# every epoch coincides with an aggregation).
# ----------------------------------------------------------------------
#: Read-warm and write-warm bands at the same touch rate, a hot band
#: that is partly written, and a cold-initialised tail.
_WRITE_MIX = WorkloadSpec(
    name="write-mix",
    suite="diff",
    footprint=128 * MIB,
    duration_us=8 * SEC,
    components=(
        Hotspot(0, 32 * MIB, touches_per_sec=20.0, write_fraction=1.0),
        Hotspot(32 * MIB, 32 * MIB, touches_per_sec=20.0),
        Hotspot(64 * MIB, 16 * MIB, touches_per_sec=2000.0, write_fraction=0.3),
        ColdInit(80 * MIB, 48 * MIB, init_us=1 * SEC),
    ),
)


def _clean_only(run):
    """Restrict the warm-pageout scheme to regions never seen written
    (``max_wfreq = 0``), as the write-awareness extension does."""
    scheme = run.tenant.engine.schemes[0]
    scheme.pattern = dataclasses.replace(scheme.pattern, max_wfreq=0.0)
    return lambda: {"sz_applied": scheme.stats.sz_applied, "nr_applied": scheme.stats.nr_applied}


CASES["track-writes-wfreq"] = partial(
    _tweaked_run,
    _clean_only,
    workload=_WRITE_MIX,
    config=ExperimentConfig(
        name="prcl-clean", monitor="vaddr", schemes_text="4K max min 20% 1s max pageout\n"
    ),
    attrs=MonitorAttrs(track_writes=True),
    seed=5,
)

#: 200 ms aggregations over 100 ms epochs, regions updates every 300 ms:
#: every other epoch and two of three updates fall inside an interval.
_OFFBEAT_ATTRS = MonitorAttrs(
    aggregation_interval_us=200 * MSEC, regions_update_interval_us=300 * MSEC
)
_OFFBEAT = dict(workload="parsec3/freqmine", config="prcl", attrs=_OFFBEAT_ATTRS, seed=5,
                time_scale=0.02)
CASES["offbeat-intervals"] = partial(traced_run, **_OFFBEAT)


@case("offbeat-intervals-restored")
def offbeat_restored():
    """Checkpoint at epoch 5 (500 ms, half way through the 400-600 ms
    aggregation interval), restore from the file, finish."""
    run = ExperimentRun(**_OFFBEAT)
    run.start()
    run.run_until(5 * run.spec.epoch_us)
    with tempfile.TemporaryDirectory() as scratch:
        path = str(Path(scratch) / "run.ckpt")
        checkpoint_run(run, path)
        resumed = restore(path)
    resumed.run_until(resumed.spec.duration_us)
    return resumed.finish(), None


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
        resumed = restore(path)
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
# The fleet's other paths, one single-pool run each on the same 200
# tenants: the shed grant, a swapless pool, the scheme off, file swap,
# and the chaos plan long enough for both its storm and its spike.
# ----------------------------------------------------------------------
def _fleet_case(check, **overrides):
    def run():
        result = run_fleet(dataclasses.replace(_FLEET, **overrides))
        check(result)
        return result, None

    return run


def _sheds(r):
    assert r.degraded_ticks > 0 and r.shed_pages > 0, "the pool never shed"


def _no_pageout_yet_degraded(r):
    assert r.pageout_pages == 0 and r.degraded_ticks > 0, "swapless pool paged out or never shed"


def _reclaims_without_scheme(r):
    assert r.pageout_pages == 0 and r.reclaim_passes > 0, "baseline paged out or never reclaimed"


def _file_swap_pages_out(r):
    assert r.pageout_pages > 0 and r.major_faults > 0, "file swap never paged out or faulted back"


CASES["fleet-shed"] = _fleet_case(_sheds, pool_ratio=0.1)
CASES["fleet-noswap"] = _fleet_case(_no_pageout_yet_degraded, swap="none")
CASES["fleet-baseline"] = _fleet_case(_reclaims_without_scheme, min_age_s=0)
CASES["fleet-file"] = _fleet_case(_file_swap_pages_out, swap="file", pool_ratio=0.2)


@case("fleet-chaos")
def fleet_chaos():
    injector = FaultInjector(load_fault_plan(ROOT / "examples" / "faults" / "fleet.toml"))
    result = run_fleet(dataclasses.replace(_FLEET, duration_s=160.0), faults=injector)
    assert all(injector.fire_counts), "the storm or the pressure spike never fired"
    return result, None


# ----------------------------------------------------------------------
# Checkpoints pinned as files.  The two v2 files are not regenerated
# with the digests (REPRO_REGEN_GOLDEN refreshes the digests, not the
# files), so a change that stops pinned state from unpickling fails
# here; a layout break bumps the format tag and re-pins them, it never
# adds a converter.  They were written from the specs below with the
# code version tag pinned to "daos-ckpt-v2-pin"
# (REPRO_SWEEP_VERSION_TAG) and the sanitizer on, paused half way: the
# run at epoch 60 of 80 (past its first prcl pageout;
# ``run_experiment(**PARENT_RUN, sanitize=True, checkpoint=...,
# checkpoint_every=60)``), the fleet at tick 30 of 60
# (``run_with_checkpoints`` on ``FleetScheduler(PARENT_FLEET,
# sanitize=True)`` after ``start_loop()``).  The run file was re-pinned,
# same spec and procedure, when LRU reclaim's tie-break became one draw
# from the boundary scan bucket: that changed the random stream of every
# reclaiming run, and a state paused under the old stream cannot resume
# to a result of the new one.  The fleet file was re-pinned, same spec
# and procedure, because restoring it rebuilt two attributes no current
# code writes (``FleetScheduler.machine``, a ``MachineBuild``, and
# ``SimSanitizer.raise_on_violation``): it restored to state digest
# 136bad121771d934 while a fresh fleet paused at tick 30 reads
# 44d6c175a35132ba, the digest its header now carries, and it was the
# last thing that still needed ``MachineBuild``.  The tree at commit
# a8884e5 wrote the same two states as daos-ckpt-v1 files; they stay to
# show an older format is refused, not read.
# ----------------------------------------------------------------------
PARENT_RUN = dict(
    workload=pressure_spec(32 * MIB, 2 * SEC, 8 * SEC),
    config="prcl",
    machine=scaled_instance("i3.metal", dram_scale=1 / 8192),
    seed=11,
)
PARENT_FLEET = FleetConfig(n_tenants=20, duration_s=60.0, arrival_window_s=10.0, seed=4)

#: golden case -> (checkpoint file, the uninterrupted run it resumes).
PARENT_CHECKPOINTS = {
    "parent-run-checkpoint": ("parent-run-v2.ckpt", lambda: run_experiment(**PARENT_RUN)),
    "parent-fleet-checkpoint": ("parent-fleet-v2.ckpt", lambda: run_fleet(PARENT_FLEET)),
}
V1_CHECKPOINTS = ["parent-run.ckpt", "parent-fleet.ckpt"]
for _name, (_file, _) in PARENT_CHECKPOINTS.items():
    CASES[_name] = lambda f=_file: (
        resume_checkpoint(str(FIXTURES / f), strict_version=False), None
    )

SAME_RESULT = [
    ("registry-splash2x/ocean_ncp-rec", "registry-splash2x/ocean_ncp-rec-restored"),
    ("offbeat-intervals", "offbeat-intervals-restored"),
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
    with pytest.raises(CheckpointError, match="code version 'daos-ckpt-v2-pin'"):
        resume_checkpoint(path)


@pytest.mark.parametrize("name", V1_CHECKPOINTS)
def test_v1_checkpoint_is_refused_naming_its_format(name, capsys):
    path = str(FIXTURES / name)
    with pytest.raises(CheckpointError, match="daos-ckpt-v1"):
        resume_checkpoint(path, strict_version=False)
    assert main(["resume", path]) == 4
    assert "daos-ckpt-v1" in capsys.readouterr().err


@pytest.mark.parametrize("pair", SAME_RESULT, ids="=".join)
def test_execution_paths_share_one_result(pair):
    table = _table()
    assert table[pair[0]]["result"] == table[pair[1]]["result"]
