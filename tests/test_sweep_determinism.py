"""Determinism of sweep points: the same (workload, machine, config,
seed) point must produce a byte-identical ``RunResult`` whether it runs
in-process or in a pool worker, and across consecutive runs.

"Byte-identical" is checked through
:func:`~repro.sweep.serialize.fingerprint` — the SHA-256 of the
canonical encoding with host-time fields stripped — the same identity
the result cache is addressed by.
"""

import pytest

from repro.runner.experiment import run_experiment
from repro.sweep.grid import SweepGrid
from repro.sweep.runner import SweepRunner
from repro.sweep.serialize import fingerprint

from tests.helpers import result_fields

#: Small and fast, but exercising monitor + schemes + quota-less prcl
#: path ("prcl") and the recording path with snapshots ("rec").
POINTS = [
    dict(
        workload="parsec3/swaptions",
        config="prcl",
        machine="i3.metal",
        seed=5,
        time_scale=0.02,
    ),
    dict(
        workload="parsec3/swaptions",
        config="rec",
        machine="i3.metal",
        seed=5,
        time_scale=0.02,
    ),
]


@pytest.fixture(scope="module")
def grid():
    return SweepGrid.from_points("experiment", POINTS)


@pytest.fixture(scope="module")
def in_process_results():
    return [run_experiment(p["workload"], **{k: v for k, v in p.items() if k != "workload"}) for p in POINTS]


def test_consecutive_runs_identical(in_process_results):
    again = [
        run_experiment(
            p["workload"], **{k: v for k, v in p.items() if k != "workload"}
        )
        for p in POINTS
    ]
    for first, second in zip(in_process_results, again):
        assert fingerprint(first) == fingerprint(second)


def test_serial_sweep_matches_in_process(grid, in_process_results):
    report = SweepRunner(grid, jobs=1).run()
    assert report.n_failed == 0
    for outcome, direct in zip(report.outcomes, in_process_results):
        assert fingerprint(outcome.value) == fingerprint(direct)


def test_pool_sweep_matches_in_process(grid, in_process_results):
    report = SweepRunner(grid, jobs=2).run()
    assert report.n_failed == 0
    for outcome, direct in zip(report.outcomes, in_process_results):
        assert fingerprint(outcome.value) == fingerprint(direct)
        # Beyond the hash: every non-volatile field must match exactly.
        for name, value in result_fields(direct).items():
            if name == "wall_clock_us":
                continue
            assert result_fields(outcome.value)[name] == value, f"field {name}"


def test_wall_clock_is_recorded_but_not_identity(in_process_results):
    result = in_process_results[0]
    assert result.wall_clock_us > 0  # the new timing metric is populated


def test_trace_summary_travels_through_sweep(grid, in_process_results):
    """Every sweep outcome carries the same trace roll-up the in-process
    run produced (the bus is deterministic), and the report can total
    event counts across points — yet the summary never enters the
    fingerprint (it is VOLATILE, like wall clock)."""
    report = SweepRunner(grid, jobs=1).run()
    totals = report.trace_event_totals()
    assert totals and all(v > 0 for v in totals.values())
    for outcome, direct in zip(report.outcomes, in_process_results):
        assert direct.trace_summary is not None
        assert outcome.value.trace_summary == direct.trace_summary
    # VOLATILE: fingerprints ignore it even when it differs.
    import copy

    mutated = copy.deepcopy(in_process_results[0])
    mutated.trace_summary = None
    assert fingerprint(mutated) == fingerprint(in_process_results[0])
