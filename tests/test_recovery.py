"""Crash consistency: the checkpoint codec, journal, and supervisor.

The recovery package's contract is byte-identity: a run interrupted at
*any* epoch and restored must be indistinguishable — state digest,
RunResult fields, canonical trace tail — from the run that was never
interrupted; a SIGKILLed sweep resumed from its write-ahead journal
must produce the same canonical report as an uninterrupted one, with
completed points *replayed*, not re-executed.  These tests pin that
contract, plus the failure-detection edges: corrupt checkpoints refuse
to restore (CLI exit 4), hung workers die to the watchdog (exit 3),
torn journal tails are repaired rather than replayed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CheckpointError, ConfigError, DaosError, WatchdogTimeout
from repro.faults import FaultPlan
from repro.recovery import SweepJournal, checkpoint_run, read_checkpoint_header, state_digest
from repro.recovery import codec
from repro.recovery.codec import CHECKPOINT_FORMAT, checkpoint_fleet_stepping
from repro.runner import restore_run, resume_checkpoint
from repro.runner.experiment import ExperimentRun, run_experiment
from repro.sim.physmem import FrameTable
from repro.sweep import PointSupervisor
from repro.sweep.grid import SweepGrid
from repro.sweep.points import register_point_function
from repro.sweep.presets import fig3_grid
from repro.sweep.runner import SweepRunner
from repro.sweep.serialize import _strip_volatile, encode_value
from repro.sweep.supervisor import execute_payload
from repro.trace import TraceBus
from repro.trace.events import CheckpointWritten, RunResumed, WorkerReaped
from tests.test_goldens import _SWEEP as GOLDEN_SWEEP

#: The smallest catalog workload — checkpoint tests re-run it a lot.
WORKLOAD = "splash2x/volrend"
SCALE = 0.05
SEED = 11

#: Trace kinds the recovery layer itself emits: present only on the
#: checkpointed side, so byte-identity comparisons filter them out.
RECOVERY_KINDS = {CheckpointWritten.kind, RunResumed.kind}


def canonical_result(result) -> object:
    """A RunResult as its volatile-free canonical encoding — the same
    stripping the sweep cache fingerprints with."""
    return _strip_volatile(encode_value(result))


def fresh_run(trace=None) -> ExperimentRun:
    run = ExperimentRun(
        WORKLOAD, config="rec", seed=SEED, time_scale=SCALE, trace=trace
    )
    run.start()
    return run


def write_unloadable_checkpoint(path: Path) -> None:
    """A well-formed checkpoint file (valid header, matching digest)
    whose graph pickles a class no tree has: what a checkpoint written
    before a class moved or lost a slot looks like to a later reader.
    The v2 writer pickles its opening rows (no periodics, no bus)."""
    writer = codec._Writer({})
    writer.dump(([], None))
    blob = writer.buffer.getvalue() + b"crepro.gone\nThing\n."
    header = {
        "format": CHECKPOINT_FORMAT,
        "kind": "run",
        "time_us": 0,
        "code_version": "older-tree",
        "payload_sha256": hashlib.sha256(blob).hexdigest(),
        "payload_bytes": len(blob),
        "pickle_bytes": len(blob),
    }
    path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + blob)


def filtered_counts(bus) -> dict:
    return {
        kind: count
        for kind, count in bus.summary().counts.items()
        if kind not in RECOVERY_KINDS
    }


# ----------------------------------------------------------------------
# Checkpoint codec
# ----------------------------------------------------------------------
class TestCheckpointCodec:
    def test_run_checkpoint_is_invisible(self, tmp_path):
        """Checkpointing mid-run changes neither the result nor the
        (recovery-filtered) trace stream."""
        plain_bus, ck_bus = TraceBus(ring_capacity=0), TraceBus(ring_capacity=0)
        plain = run_experiment(
            WORKLOAD, config="rec", seed=SEED, time_scale=SCALE, trace=plain_bus
        )
        ck = run_experiment(
            WORKLOAD,
            config="rec",
            seed=SEED,
            time_scale=SCALE,
            trace=ck_bus,
            checkpoint=str(tmp_path / "ck.bin"),
            checkpoint_every=3,
        )
        assert canonical_result(ck) == canonical_result(plain)
        assert ck_bus.summary().counts[CheckpointWritten.kind] > 0
        assert filtered_counts(ck_bus) == filtered_counts(plain_bus)

    def test_resume_completes_byte_identically(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        plain = run_experiment(WORKLOAD, config="rec", seed=SEED, time_scale=SCALE)
        run_experiment(
            WORKLOAD,
            config="rec",
            seed=SEED,
            time_scale=SCALE,
            checkpoint=path,  # checkpoint_every=0: once at the midpoint
        )
        resumed = resume_checkpoint(path)
        assert canonical_result(resumed) == canonical_result(plain)

    def test_header_describes_the_snapshot(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        run = fresh_run()
        run.run_until(3 * run.spec.epoch_us)
        digest = checkpoint_run(run, path)
        header = read_checkpoint_header(path)
        assert header["kind"] == "run"
        assert header["time_us"] == 3 * run.spec.epoch_us
        assert header["payload_sha256"].startswith(digest)
        assert header["payload_bytes"] > 0
        assert "code_version" in header

    def test_corrupt_payload_refuses_to_restore(self, tmp_path):
        path = tmp_path / "ck.bin"
        run = fresh_run()
        run.run_until(2 * run.spec.epoch_us)
        checkpoint_run(run, str(path))
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="digest mismatch"):
            restore_run(str(path))

    def test_truncated_payload_refuses_to_restore(self, tmp_path):
        path = tmp_path / "ck.bin"
        run = fresh_run()
        run.run_until(2 * run.spec.epoch_us)
        checkpoint_run(run, str(path))
        path.write_bytes(path.read_bytes()[:-64])
        with pytest.raises(CheckpointError):
            restore_run(str(path))

    def test_not_a_checkpoint_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(CheckpointError):
            read_checkpoint_header(str(path))
        with pytest.raises(CheckpointError):
            read_checkpoint_header(str(tmp_path / "missing.bin"))

    def test_version_skew_refused_unless_allowed(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ck.bin")
        monkeypatch.setenv("REPRO_SWEEP_VERSION_TAG", "writer-code")
        run = fresh_run()
        run.run_until(2 * run.spec.epoch_us)
        checkpoint_run(run, path)
        monkeypatch.setenv("REPRO_SWEEP_VERSION_TAG", "reader-code")
        with pytest.raises(CheckpointError, match="version"):
            restore_run(path)
        restored = restore_run(path, strict_version=False)
        assert restored.queue is not None  # restored and runnable

    def test_unloadable_payload_is_a_checkpoint_error(self, tmp_path, monkeypatch):
        """Version skew allowed, but the writer's classes are gone: the
        failure is typed and names the file and both code versions."""
        path = tmp_path / "old.bin"
        write_unloadable_checkpoint(path)
        monkeypatch.setenv("REPRO_SWEEP_VERSION_TAG", "reader-code")
        with pytest.raises(CheckpointError, match="cannot be loaded") as info:
            restore_run(str(path), strict_version=False)
        message = str(info.value)
        assert str(path) in message
        assert "older-tree" in message and "reader-code" in message
        assert isinstance(info.value.__cause__, ModuleNotFoundError)


class TestInterruptAnywhere:
    """The tentpole property: interrupt at *any* epoch, restore, and the
    final state digest matches the uninterrupted run's."""

    _uninterrupted: dict = {}

    @classmethod
    def _reference_digest(cls) -> str:
        if "digest" not in cls._uninterrupted:
            run = fresh_run()
            run.run_until(run.spec.duration_us)
            cls._uninterrupted["digest"] = state_digest(run)
            cls._uninterrupted["n_epochs"] = int(
                run.spec.duration_us // run.spec.epoch_us
            )
        return cls._uninterrupted["digest"]

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_state_digest_identity(self, data):
        reference = self._reference_digest()
        n_epochs = self._uninterrupted["n_epochs"]
        epoch = data.draw(
            st.integers(min_value=1, max_value=n_epochs - 1), label="epoch"
        )
        run = fresh_run()
        run.run_until(epoch * run.spec.epoch_us)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ck.bin")
            checkpoint_run(run, path)
            # announce=False: the RunResumed event is a deliberate
            # recovery-layer artifact in the trace counters; this test is
            # about *simulation* state identity.
            restored = restore_run(path, announce=False)
        restored.run_until(restored.spec.duration_us)
        assert state_digest(restored) == reference

    @pytest.mark.parametrize("ticks_in", [1, 7, 18])
    def test_state_digest_identity_inside_a_sampling_plan(self, ticks_in):
        """Interrupt between two sample ticks of one aggregation
        interval: the pause's deadline ends the sampling batch there, and
        the restored run serves the rest of the interval as the
        uninterrupted run would have."""
        reference = self._reference_digest()
        run = fresh_run()
        monitor = run.tenant.monitor
        run.run_until(
            2 * run.spec.epoch_us + ticks_in * monitor.attrs.sampling_interval_us
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ck.bin")
            checkpoint_run(run, path)
            restored = restore_run(path, announce=False)
        restored.run_until(restored.spec.duration_us)
        assert state_digest(restored) == reference
        # The interrupted run goes on to the same place (its own digest
        # now counts a CheckpointWritten event, so compare the monitor).
        run.run_until(run.spec.duration_us)
        ours, theirs = monitor, restored.tenant.monitor
        assert ours.rng.bit_generator.state == theirs.rng.bit_generator.state
        assert ours.total_checks == theirs.total_checks

    def test_monitor_pickle_carries_no_plan(self, tmp_path):
        """The monitor pickles as its plain attributes, through the
        checkpoint writer: no lookahead plan, and its tick handles by
        reference, bound again to live handles that call it."""
        run = fresh_run()
        monitor = run.tenant.monitor
        run.run_until(run.spec.epoch_us + 3 * monitor.attrs.sampling_interval_us)
        assert "__getstate__" not in vars(type(monitor))
        path = str(tmp_path / "ck.bin")
        checkpoint_run(run, path)
        restored = restore_run(path, announce=False).tenant.monitor
        assert set(vars(restored)) == set(vars(monitor))
        assert "_plan" not in vars(restored)
        assert [event.name for event in restored._events] == ["sample", "aggregate", "update"]
        assert all(event.callback.__self__ is restored for event in restored._events)


# ----------------------------------------------------------------------
# Fleet checkpoints under chaos
# ----------------------------------------------------------------------
class TestFleetCheckpoint:
    CFG = dict(
        n_tenants=40,
        duration_s=60.0,
        footprint_mib=32,
        pool_ratio=0.4,
        seed=13,
    )

    @staticmethod
    def _chaos_plan():
        return FaultPlan.build(
            [
                {"kind": "tenant_storm", "start": "5s", "end": "15s"},
                {
                    "kind": "pool_pressure_spike",
                    "start": "25s",
                    "end": "45s",
                    "magnitude": 200000,
                },
            ],
            seed=7,
            name="fleet-chaos",
        )

    def _run(self, *, checkpoint=None, every_ticks=5, resume_from=None):
        from repro.faults import FaultInjector
        from repro.fleet import FleetConfig, FleetScheduler

        if resume_from is not None:
            return resume_checkpoint(resume_from)
        cfg = FleetConfig(**self.CFG)
        scheduler = FleetScheduler(
            cfg, sanitize=True, faults=FaultInjector(self._chaos_plan())
        )
        if checkpoint is None:
            scheduler.start_loop().run_until(cfg.duration_us)
        else:
            checkpoint_fleet_stepping(
                scheduler, checkpoint, every_ticks=every_ticks
            )
        return scheduler.finish()

    def test_chaos_fleet_checkpoint_resume_identity(self, tmp_path):
        """Stepped + checkpointed + resumed chaos fleets all agree, under
        the sanitizer's runtime checks (DAOS_SANITIZE-equivalent)."""
        path = str(tmp_path / "fleet.bin")
        plain = self._run()
        stepped = self._run(checkpoint=path)
        assert stepped.digest() == plain.digest()
        assert stepped.canonical_json() == plain.canonical_json()
        resumed = self._run(resume_from=path)
        assert resumed.digest() == plain.digest()
        assert resumed.canonical_json() == plain.canonical_json()

    def test_chaos_actually_perturbs(self):
        """The fault plan must move the needle, or the identity test
        above proves nothing about chaos runs."""
        from repro.fleet import FleetConfig, run_fleet

        clean = run_fleet(FleetConfig(**self.CFG))
        chaotic = self._run()
        assert chaotic.digest() != clean.digest()


# ----------------------------------------------------------------------
# Write-ahead journal
# ----------------------------------------------------------------------
def _triple(params):
    return {"value": float(params["x"]) * 3.0}


register_point_function("recovery_triple", _triple)


@pytest.fixture
def journal_grid():
    return SweepGrid.from_axes("recovery_triple", {"x": [1, 2, 3, 4, 5]})


class TestSweepJournal:
    def test_resume_replays_journaled_points(
        self, journal_grid, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SWEEP_VERSION_TAG", "journal-test")
        reference = SweepRunner(journal_grid, jobs=1).run()
        first = SweepRunner(
            journal_grid, jobs=1, journal_dir=tmp_path / "j"
        ).run()
        assert first.canonical_json() == reference.canonical_json()
        resumed = SweepRunner(
            journal_grid, jobs=1, journal_dir=tmp_path / "j", resume=True
        ).run()
        assert resumed.n_replayed == 5
        assert resumed.n_executed == 0
        assert resumed.canonical_json() == reference.canonical_json()

    def test_resume_needs_a_journal_dir(self, journal_grid):
        with pytest.raises(ConfigError, match="journal"):
            SweepRunner(journal_grid, jobs=1, resume=True)

    def test_version_skew_replays_nothing(
        self, journal_grid, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SWEEP_VERSION_TAG", "code-A")
        SweepRunner(journal_grid, jobs=1, journal_dir=tmp_path / "j").run()
        monkeypatch.setenv("REPRO_SWEEP_VERSION_TAG", "code-B")
        resumed = SweepRunner(
            journal_grid, jobs=1, journal_dir=tmp_path / "j", resume=True
        ).run()
        # Keys embed the code-version tag: stale journals match nothing.
        assert resumed.n_replayed == 0
        assert resumed.n_executed == 5

    def test_torn_tail_is_dropped_and_repaired(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_VERSION_TAG", "torn-test")
        journal = SweepJournal(tmp_path / "j")
        with journal:
            journal.open(version_tag="torn-test", grid_digest="d", n_points=2)
            journal.record(index=0, key="k0", encoded="{}", attempts=1, wall_s=0.1)
            journal.record(index=1, key="k1", encoded="{}", attempts=1, wall_s=0.1)
        # Tear the final line mid-write, as a crash would.
        raw = journal.path.read_bytes()
        journal.path.write_bytes(raw[:-9])
        assert set(journal.load()) == {"k0"}
        # Appending after the tear must not concatenate records.
        with journal:
            journal.open(version_tag="torn-test", grid_digest="d", n_points=2)
            journal.record(index=1, key="k1", encoded="{}", attempts=1, wall_s=0.2)
        assert set(journal.load()) == {"k0", "k1"}

    def test_duplicate_keys_keep_the_last_record(self, tmp_path):
        journal = SweepJournal(tmp_path / "j")
        with journal:
            journal.open(version_tag="t", grid_digest="d", n_points=1)
            journal.record(index=0, key="k", encoded="1", attempts=1, wall_s=0.1)
            journal.record(index=0, key="k", encoded="2", attempts=2, wall_s=0.2)
        assert journal.load()["k"]["encoded"] == "2"

    def test_foreign_file_raises_checkpoint_error(self, tmp_path):
        journal = SweepJournal(tmp_path / "j")
        journal.path.parent.mkdir(parents=True)
        journal.path.write_text('{"format": "not-a-journal"}\n')
        with pytest.raises(CheckpointError):
            journal.load()


class TestSigkilledSweepResumes:
    """The acceptance-criterion crash: SIGKILL a journaled sweep mid-run,
    resume, and get the uninterrupted report byte for byte — with the
    completed points replayed from the journal, not re-executed."""

    DRIVER = """\
import sys
import time

from repro.sweep.grid import SweepGrid
from repro.sweep.points import register_point_function
from repro.sweep.runner import SweepRunner


def _slow_triple(params):
    time.sleep(0.35)
    return {"value": float(params["x"]) * 3.0}


register_point_function("recovery_slow_triple", _slow_triple)

if __name__ == "__main__":
    grid = SweepGrid.from_axes(
        "recovery_slow_triple", {"x": [1, 2, 3, 4, 5, 6]}
    )
    SweepRunner(grid, jobs=1, journal_dir=sys.argv[1]).run()
    print("UNINTERRUPTED", flush=True)
"""

    def test_sigkill_then_resume_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_VERSION_TAG", "sigkill-test")
        driver = tmp_path / "drive.py"
        driver.write_text(self.DRIVER)
        journal_dir = tmp_path / "journal"
        env = dict(os.environ, REPRO_SWEEP_VERSION_TAG="sigkill-test")  # daos-lint: disable=DT204 (child-process env, not library behaviour)
        src = Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")

        child = subprocess.Popen(
            [sys.executable, str(driver), str(journal_dir)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            journal = SweepJournal(journal_dir)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if journal.path.exists() and len(journal.load()) >= 2:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("journal never reached two completed points")
            child.send_signal(signal.SIGKILL)
        finally:
            child.wait()

        completed = len(journal.load())
        assert 2 <= completed < 6, "the kill must land mid-grid"

        register_point_function(
            "recovery_slow_triple", lambda p: {"value": float(p["x"]) * 3.0}
        )
        grid = SweepGrid.from_axes(
            "recovery_slow_triple", {"x": [1, 2, 3, 4, 5, 6]}
        )
        reference = SweepRunner(grid, jobs=1).run()
        resumed = SweepRunner(
            grid, jobs=1, journal_dir=journal_dir, resume=True
        ).run()
        assert resumed.n_replayed == completed  # replay, not re-execution
        assert resumed.n_executed == 6 - completed
        assert resumed.canonical_json() == reference.canonical_json()


# ----------------------------------------------------------------------
# Supervisor: watchdog, reaping, reassignment
# ----------------------------------------------------------------------
class TestSupervisor:
    @staticmethod
    def _hang_plan(probability):
        return FaultPlan.build(
            [{"kind": "worker_hang", "probability": probability}], seed=3
        )

    def test_hang_without_watchdog_is_a_config_error(self):
        with pytest.raises(ConfigError, match="watchdog"):
            SweepRunner(fig3_grid(n_points=5), jobs=2, faults=self._hang_plan(0.5))

    def test_hung_workers_reaped_and_retried_to_identity(self):
        """Every point's first attempt hangs; the watchdog reaps it and
        the retry succeeds — producing the serial report byte for byte,
        with the reaps visible as WorkerReaped events."""
        grid = fig3_grid(n_points=5)
        serial = SweepRunner(grid, jobs=1).run()
        bus = TraceBus(ring_capacity=0)
        report = SweepRunner(
            grid,
            jobs=3,
            faults=self._hang_plan(1.0),
            point_timeout_s=3.0,
            retries=1,
            trace=bus,
        ).run()
        assert report.n_failed == 0
        assert report.canonical_json() == serial.canonical_json()
        assert bus.summary().counts[WorkerReaped.kind] == report.n_total

    def test_watchdog_timeout_is_a_distinct_failure_class(self):
        grid = fig3_grid(n_points=5)
        report = SweepRunner(
            grid,
            jobs=3,
            faults=self._hang_plan(1.0),
            point_timeout_s=1.5,
            retries=0,
        ).run()
        assert report.n_failed == report.n_total
        assert len(report.watchdog_failures()) == report.n_total
        for outcome in report.failures():
            assert outcome.error_type == "WatchdogTimeout"
            assert "watchdog deadline" in outcome.error


class TestWorkerPool:
    """The supervisor's persistent workers: bounded, replaced when
    killed, and all joined by the time ``run()`` returns or raises."""

    def test_jobs_bound_the_worker_processes(self):
        grid = SweepGrid.from_axes("tests.helpers:pid_point", {"x": list(range(6))})
        report = SweepRunner(grid, jobs=2).run()
        assert report.n_failed == 0
        assert len({value["pid"] for value in report.values()}) <= 2

    def test_sigkilled_worker_is_reaped_and_replaced(self, tmp_path):
        grid = SweepGrid.from_axes(
            "tests.helpers:sleepy_point",
            {"x": [1, 2, 3, 4]},
            fixed={"dir": str(tmp_path), "sleep_s": 0.6},
        )
        killed = []

        def kill_first_worker():
            deadline = time.monotonic() + 60.0
            while not killed and time.monotonic() < deadline:
                for marker in tmp_path.iterdir():
                    pid = int(marker.name.split("-")[0])
                    assert pid in {p.pid for p in multiprocessing.active_children()}
                    os.kill(pid, signal.SIGKILL)
                    killed.append((pid, marker.name.split("-")[1]))
                    break
                time.sleep(0.01)

        events = []
        bus = TraceBus(ring_capacity=0)
        bus.subscribe(WorkerReaped, events.append)
        killer = threading.Thread(target=kill_first_worker)
        killer.start()
        try:
            report = SweepRunner(grid, jobs=2, retries=1, trace=bus).run()
        finally:
            killer.join(timeout=60.0)
        assert not killer.is_alive()
        assert killed, "no worker ever started a point"
        pid, x = killed[0]
        assert [(e.reason, e.will_retry) for e in events] == [("crashed", True)]
        retried = [m.name for m in tmp_path.iterdir() if m.name.endswith(f"-{x}")]
        assert len(retried) == 2  # the killed attempt and its reassignment
        assert f"{pid}-{x}" in retried
        serial = SweepRunner(grid, jobs=1).run()
        assert report.canonical_json() == serial.canonical_json()

    def test_no_worker_outlives_the_run(self):
        grid = SweepGrid.from_axes("tests.helpers:pid_point", {"x": list(range(4))})
        SweepRunner(grid, jobs=2).run()
        assert multiprocessing.active_children() == []

        def explode(done, total, outcome):
            raise RuntimeError("progress callback failed")

        with pytest.raises(RuntimeError, match="progress callback"):
            SweepRunner(grid, jobs=2, progress=explode).run()
        assert multiprocessing.active_children() == []


class TestWorkerIsolation:
    """Nothing a point leaves behind reaches the next point in a worker."""

    def test_reverse_order_in_one_worker_matches_fresh_processes(self):
        points = GOLDEN_SWEEP.points()

        def make_payload(index, attempt):
            return (index, points[index].fn, points[index].items, False)

        def values(order, supervisor):
            got = {}
            supervisor.execute(
                order, make_payload, lambda raw, attempts: got.__setitem__(raw[0], raw)
            )
            assert supervisor.reaped == []
            assert all(raw[2] is None for raw in got.values())
            return {i: _strip_volatile(json.loads(raw[1])) for i, raw in got.items()}

        one_worker = values(list(reversed(range(len(points)))), PointSupervisor(jobs=1))
        fresh = {}
        for index in range(len(points)):
            fresh.update(values([index], PointSupervisor(jobs=1)))
        assert one_worker == fresh

    def test_no_frame_table_survives_a_point(self):
        def live_frame_tables():
            return sum(isinstance(o, FrameTable) for o in gc.get_objects())

        gc.collect()
        before = live_frame_tables()
        point = GOLDEN_SWEEP.points()[0]
        raw = execute_payload((0, point.fn, point.items, False))
        assert raw[2] is None
        assert live_frame_tables() == before


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory):
    """One intact run checkpoint, shared by the header-damage cases."""
    path = tmp_path_factory.mktemp("ck") / "ck.bin"
    run = fresh_run()
    run.run_until(2 * run.spec.epoch_us)
    checkpoint_run(run, str(path))
    return path


class TestExitCodes:
    """Exit 3 (watchdog) and 4 (untrusted checkpoint) vs the generic 2."""

    @pytest.mark.parametrize(
        "exc,code",
        [
            (WatchdogTimeout("deadline"), 3),
            (CheckpointError("digest mismatch"), 4),
            (ConfigError("bad flag"), 2),
            (DaosError("generic"), 2),
        ],
    )
    def test_error_class_to_exit_code(self, exc, code, monkeypatch, capsys):
        import repro.cli as cli

        def explode(args):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "workloads", explode)
        assert cli.main(["workloads"]) == code
        assert "error:" in capsys.readouterr().err

    def test_corrupt_checkpoint_exits_4(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "ck.bin"
        run = fresh_run()
        run.run_until(2 * run.spec.epoch_us)
        checkpoint_run(run, str(path))
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert main(["resume", str(path)]) == 4
        assert "refusing to restore" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field", ["kind", "time_us", "code_version", "payload_sha256", "payload_bytes"]
    )
    @pytest.mark.parametrize("damage", ["missing", "wrong type"])
    def test_malformed_header_field_exits_4(
        self, field, damage, checkpoint_file, tmp_path, capsys
    ):
        """A header that parses but lacks a field, or carries it as the
        wrong type, is a CheckpointError naming the field — never a
        TypeError or KeyError out of the reader."""
        from repro.cli import main

        line, _, payload = checkpoint_file.read_bytes().partition(b"\n")
        header = json.loads(line)
        if damage == "missing":
            del header[field]
        else:
            header[field] = [header[field]]  # a list is no field's type
        path = tmp_path / "ck.bin"
        path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)
        with pytest.raises(CheckpointError, match=f"field '{field}'"):
            read_checkpoint_header(str(path))
        assert main(["resume", str(path)]) == 4
        assert f"field '{field}'" in capsys.readouterr().err

    def test_unloadable_checkpoint_exits_4(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "old.bin"
        write_unloadable_checkpoint(path)
        assert main(["resume", str(path), "--allow-version-skew"]) == 4
        assert "cannot be loaded" in capsys.readouterr().err

    def test_watchdogged_sweep_exits_3(self, tmp_path, capsys):
        from repro.cli import main

        plan = tmp_path / "hang.json"
        plan.write_text(
            json.dumps(
                {
                    "seed": 3,
                    "faults": [{"kind": "worker_hang", "probability": 1.0}],
                }
            )
        )
        rc = main(
            [
                "sweep",
                "--grid",
                "fig3",
                "-j",
                "3",
                "--no-cache",
                "--point-timeout",
                "1.5",
                "--retries",
                "0",
                "--faults",
                str(plan),
            ]
        )
        assert rc == 3

    def test_resume_roundtrip_exits_0(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "ck.bin"
        run = fresh_run()
        run.run_until(2 * run.spec.epoch_us)
        checkpoint_run(run, str(path))
        assert main(["resume", str(path)]) == 0
        assert "runtime" in capsys.readouterr().out
