"""The ``daos`` command-line interface."""

import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli
from repro.analysis.recording import save_record
from repro.cli import build_parser, main
from repro.monitor.snapshot import Snapshot

REPO = Path(__file__).resolve().parent.parent
CHAOS_PLAN = REPO / "examples" / "faults" / "chaos.toml"
SMOKE_PLAN = REPO / "examples" / "faults" / "smoke.toml"


class TestParser:
    def test_workloads_subcommand(self):
        args = build_parser().parse_args(["workloads"])
        assert args.command == "workloads"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "parsec3/freqmine"])
        assert args.config == "baseline"
        assert args.machine == "i3.metal"

    def test_global_options(self):
        args = build_parser().parse_args(
            ["--machine", "z1d.metal", "--seed", "9", "--time-scale", "0.1",
             "run", "parsec3/freqmine", "-c", "prcl"]
        )
        assert args.machine == "z1d.metal"
        assert args.seed == 9
        assert args.time_scale == 0.1
        assert args.config == "prcl"

    def test_unknown_config_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "w", "-c", "warp"])

    def test_tune_samples(self):
        args = build_parser().parse_args(["tune", "parsec3/raytrace", "-n", "6"])
        assert args.samples == 6

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_workloads_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "parsec3/freqmine" in out
        assert "splash2x/ocean_ncp" in out

    def test_unknown_workload_is_clean_error(self, capsys):
        rc = main(["--time-scale", "0.05", "run", "parsec3/doom"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_run_baseline(self, capsys):
        rc = main(["--time-scale", "0.05", "run", "splash2x/volrend"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "runtime" in out
        assert "avg RSS" in out

    def test_run_prcl_prints_normalised(self, capsys):
        rc = main(["--time-scale", "0.1", "run", "splash2x/volrend", "-c", "prcl"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scheme" in out
        assert "S/volrend" in out

    def test_record_prints_heatmap(self, capsys):
        rc = main(["--time-scale", "0.1", "run", "splash2x/volrend", "-c", "rec"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "monitor CPU" in out
        assert "addr [" in out

    def test_wss(self, capsys):
        rc = main(["--time-scale", "0.1", "run", "splash2x/volrend", "-c", "prec"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "working set" in out
        assert "p50" in out

    def test_fleet_smoke(self, capsys, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        argv = ["fleet", "-n", "30", "--duration", "60", "--sanitize"]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        out = capsys.readouterr().out
        assert "30 tenants" in out
        assert "digest" in out

    def test_fleet_sharded_smoke(self, capsys):
        rc = main(["fleet", "-n", "30", "--duration", "60", "--shards", "3"])
        assert rc == 0
        assert "3 pool(s)" in capsys.readouterr().out

    def test_tune_smoke(self, capsys):
        # Tiny scale: the tuned value is meaningless, but the whole
        # sample→fit→peak→report pipeline must run.
        rc = main(["--time-scale", "0.05", "tune", "splash2x/volrend", "-n", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best min_age" in out

    def test_schemes_from_file(self, capsys, tmp_path):
        scheme_file = tmp_path / "my.schemes"
        scheme_file.write_text("4K max min min 2s max pageout\n")
        rc = main(
            ["--time-scale", "0.1", "run", "splash2x/volrend", "--schemes", str(scheme_file)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "pageout" in out
        assert "custom" in out  # the normalised row against the baseline


class _Captured(Exception):
    """Carries the keywords a patched run entry point was called with."""


_GLOBAL_ARGV = [
    "--machine", "z1d.metal", "--seed", "9", "--time-scale", "0.1",
    "--tier", "cxl-dram", "--tier-scale", "0.01", "--tier-policy", "unmanaged",
]
_GLOBAL_KWARGS = dict(
    machine="z1d.metal", seed=9, time_scale=0.1,
    tier="cxl-dram", tier_scale=0.01, tier_policy="unmanaged",
)


class TestGlobalFlagsReachEveryVerb:
    # The ids name the verbs these spellings replaced: each case is how
    # that verb's experiment is run now.
    @pytest.mark.parametrize(
        "verb_argv, entry_point",
        [
            pytest.param(
                ["run", "parsec3/swaptions", "-c", "rec", "--record", "OUT"],
                "run_experiment",
                id="record-run_experiment",
            ),
            pytest.param(
                ["run", "parsec3/swaptions", "-c", "prcl"],
                "run_experiment",
                id="run-run_experiment",
            ),
            pytest.param(
                ["run", "parsec3/swaptions", "--schemes", "SCHEME_FILE"],
                "run_experiment",
                id="schemes-run_experiment",
            ),
            pytest.param(
                ["tune", "parsec3/swaptions"], "autotune_scheme", id="tune-autotune_scheme"
            ),
            pytest.param(
                ["run", "parsec3/swaptions", "-c", "rec"],
                "run_experiment",
                id="wss-run_experiment",
            ),
            pytest.param(
                ["run", "parsec3/swaptions", "-c", "rec", "--trace", "OUT"],
                "run_experiment",
                id="trace-run_experiment",
            ),
            pytest.param(
                ["run", "parsec3/swaptions", "-c", "rec", "--faults", str(CHAOS_PLAN)],
                "run_experiment",
                id="chaos-run_experiment",
            ),
            pytest.param(
                ["run", "parsec3/swaptions", "-c", "rec", "--profile", "OUT"],
                "profile_run",
                id="perf-profile_run",
            ),
        ],
    )
    def test_all_six_arrive(self, monkeypatch, tmp_path, verb_argv, entry_point):
        scheme_file = tmp_path / "my.schemes"
        scheme_file.write_text("4K max min min 2s max pageout\n")
        placeholders = {"SCHEME_FILE": str(scheme_file), "OUT": str(tmp_path / "out")}
        verb_argv = [placeholders.get(a, a) for a in verb_argv]

        def capture(workload, **kwargs):
            raise _Captured(kwargs)

        monkeypatch.setattr(repro.cli, entry_point, capture)
        with pytest.raises(_Captured) as caught:
            main(_GLOBAL_ARGV + verb_argv)
        kwargs = caught.value.args[0]
        assert {k: kwargs.get(k) for k in _GLOBAL_KWARGS} == _GLOBAL_KWARGS


class TestSharedFlagsDeclaredOnce:
    @pytest.mark.parametrize(
        "flag",
        ["--trace", "--faults", "--sanitize", "--checkpoint",
         "--checkpoint-every", "--journal", "--resume", "--jobs"],
    )
    def test_one_add_argument_per_flag(self, flag):
        # A new verb inherits a shared flag through parents=[...];
        # re-declaring it is how the help texts and defaults drifted.
        assert inspect.getsource(repro.cli).count(f'"{flag}"') == 1


def _readme_daos_commands():
    """Every ``daos ...`` command line in README.md's fenced blocks."""
    text = (REPO / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```[a-z]*\n(.*?)^```", text, flags=re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            line = re.split(r"\s#|[|>]", line, maxsplit=1)[0].strip()
            if line.startswith("daos "):
                commands.append(line)
    return commands


class TestReadmeCommandsParse:
    def test_every_readme_command_parses(self, capsys):
        # One test over all commands (not parametrised): README edits
        # must not rename tests.  argparse exits 2 on e.g. a global flag
        # placed after the verb.
        commands = _readme_daos_commands()
        assert len(commands) >= 35
        rejected = []
        for command in commands:
            try:
                build_parser().parse_args(shlex.split(command)[1:])
            except SystemExit:
                rejected.append(command)
        assert rejected == [], capsys.readouterr().err


def _exit_code(argv) -> int:
    """``main``'s exit code, argparse's ``SystemExit`` included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _write_trace(path):
    from repro.trace import AccessSampled, JsonlTraceSink

    with JsonlTraceSink(path) as sink:
        sink(AccessSampled(time_us=1, nr_regions=10, checked=10, hits=4))
        sink(AccessSampled(time_us=2, nr_regions=10, checked=10, hits=2))
    return str(path)


class TestRunAttachments:
    @pytest.mark.parametrize("verb", ["schemes", "trace", "chaos", "perf", "record", "wss"])
    def test_removed_verbs_are_invalid_choices(self, verb, capsys):
        assert _exit_code([verb, "parsec3/swaptions"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_help_lists_exactly_eight_verbs(self):
        usage = build_parser().format_usage()
        assert "{workloads,run,report,tune,sweep,fleet,resume,lint}" in usage

    def test_trace_to_stdout_moves_the_report_to_stderr(self, capsys):
        argv = ["--seed", "5", "--time-scale", "0.02", "run", "parsec3/swaptions",
                "-c", "rec", "--trace", "-"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines and all(line.startswith('{"') for line in lines)
        assert "runtime" in captured.err
        assert "EpochEnd.rss_bytes distribution" in captured.err

    def test_trace_and_profile_cannot_share_stdout(self, capsys):
        argv = ["run", "parsec3/swaptions", "--trace", "-", "--profile", "-"]
        assert main(argv) == 2
        assert "stdout" in capsys.readouterr().err

    def test_record_needs_a_recording_config(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["run", "parsec3/swaptions", "-c", "prcl", "--record", str(out)]) == 2
        assert "recording config" in capsys.readouterr().err
        assert not out.exists()

    def test_faults_print_the_damage_block(self, capsys):
        argv = ["--seed", "3", "--time-scale", "0.02", "run", "parsec3/swaptions",
                "-c", "rec", "--faults", str(SMOKE_PLAN)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for line in ("faults       : plan smoke", "faults fired", "retries", "degradation"):
            assert line in out

    def test_report_summarises_a_trace(self, tmp_path, capsys):
        trace = _write_trace(tmp_path / "t.jsonl")
        assert main(["report", trace]) == 0
        out = capsys.readouterr().out
        assert "valid trace" in out
        assert "AccessSampled" in out


class TestUnreadableInputs:
    """Each input a verb reads ends in one ``error:`` line and exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "parsec3/swaptions", "--schemes", "MISSING"],
            ["lint", "--schemes", "MISSING"],
        ],
        ids=["run", "lint"],
    )
    def test_missing_scheme_file(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "nope.schemes")
        assert main([missing if a == "MISSING" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope.schemes" in err

    def test_missing_record(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "missing.rec")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.rec" in err

    def test_trace_is_not_read_as_a_record(self, tmp_path, capsys):
        trace = _write_trace(tmp_path / "trace.jsonl")
        assert main(["report", trace]) == 0
        assert "valid trace" in capsys.readouterr().out

    def test_neither_record_nor_trace(self, tmp_path, capsys):
        junk = tmp_path / "junk.txt"
        junk.write_text("hello\nworld\n")
        assert main(["report", str(junk)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: neither a record nor a valid trace")
        assert "junk.txt" in err and len(err.splitlines()) == 1

    def test_empty_file(self, tmp_path, capsys):
        """Every traced run writes at least its ``EpochEnd`` events, so an
        empty file is neither a record nor a trace."""
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", str(empty)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: neither a record nor a valid trace")
        assert "empty.jsonl" in err and len(err.splitlines()) == 1

    def test_missing_trace(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "missing.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.jsonl" in err


class TestOutputDirectoryChecked:
    """An output file in a missing directory, or one that is an existing
    directory, is refused before the verb runs: one ``error:`` line
    naming the flag, exit 2, no simulation."""

    CASES = [
        (["run", "parsec3/swaptions", "--trace", "OUT"], "--trace"),
        (["run", "parsec3/swaptions", "--profile", "OUT"], "--profile"),
        (["run", "parsec3/swaptions", "-c", "rec", "--record", "OUT"], "--record"),
        (["run", "parsec3/swaptions", "--checkpoint", "OUT"], "--checkpoint"),
        (["tune", "parsec3/swaptions", "--trace", "OUT"], "--trace"),
        (["fleet", "-n", "2", "-o", "OUT"], "--out"),
        (["fleet", "-n", "2", "--checkpoint", "OUT"], "--checkpoint"),
        (["sweep", "--grid", "fig3", "-o", "OUT"], "--out"),
        (["resume", "run.ckpt", "-o", "OUT"], "--out"),
        (["report", "run.rec", "--pgm", "OUT"], "--pgm"),
    ]

    @pytest.mark.parametrize(
        "argv, flag", CASES, ids=[f"{argv[0]}{flag}" for argv, flag in CASES]
    )
    def test_missing_directory(self, argv, flag, tmp_path, monkeypatch, capsys):
        def forbidden(args):
            raise AssertionError("the verb ran despite a bad output path")

        monkeypatch.setitem(repro.cli._COMMANDS, argv[0], forbidden)
        out = str(tmp_path / "missing" / "out.file")
        assert main([out if a == "OUT" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {out}: directory ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, flag", CASES, ids=[f"{argv[0]}{flag}" for argv, flag in CASES]
    )
    def test_existing_directory(self, argv, flag, tmp_path, monkeypatch, capsys):
        def forbidden(args):
            raise AssertionError("the verb ran despite a bad output path")

        monkeypatch.setitem(repro.cli._COMMANDS, argv[0], forbidden)
        out = str(tmp_path)
        assert main([out if a == "OUT" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {flag} {out}: is a directory, not a file\n"

    @pytest.mark.parametrize(
        "argv, flag", CASES, ids=[f"{argv[0]}{flag}" for argv, flag in CASES]
    )
    def test_name_too_long(self, argv, flag, tmp_path, monkeypatch, capsys):
        def forbidden(args):
            raise AssertionError("the verb ran despite a bad output path")

        monkeypatch.setitem(repro.cli._COMMANDS, argv[0], forbidden)
        out = str(tmp_path / ("x" * 300))
        assert main([out if a == "OUT" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {flag} {out}: File name too long\n"


class TestOutputWriteFails:
    """A write that fails after the verb ran ends in the exit-code
    contract with one ``error:`` line naming the flag and the path, not
    a traceback, and leaves no temp file."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            pytest.param(["--time-scale", "0.01", "run", "splash2x/volrend", "--profile", "OUT"],
                         "--profile", id="run--profile"),
            pytest.param(["fleet", "-n", "10", "--duration", "2", "-o", "OUT"], "--out",
                         id="fleet--out"),
            pytest.param(["--time-scale", "0.01", "sweep", "--workloads", "splash2x/volrend",
                          "--configs", "baseline", "--no-cache", "-o", "OUT"], "--out",
                         id="sweep--out"),
        ],
    )
    def test_output_flag(self, argv, flag, tmp_path, monkeypatch, capsys):
        out = str(tmp_path / "out.file")
        write_text = Path.write_text

        def refusing(self, *args, **kwargs):
            if str(self) == out:
                raise PermissionError(13, "Permission denied")
            return write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", refusing)
        assert main([out if a == "OUT" else a for a in argv]) == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == f"error: {flag} {out}: cannot write: Permission denied"
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint(self, tmp_path, monkeypatch, capsys):
        def failing_fsync(fd):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        out = str(tmp_path / "run.ckpt")
        argv = ["--time-scale", "0.01", "run", "splash2x/volrend", "--checkpoint", out]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err == f"error: cannot write checkpoint {out!r}: Input/output error\n"
        assert list(tmp_path.iterdir()) == []

    def _dangling(self, tmp_path):
        """A symlink whose target lies in a directory that does not exist."""
        link = tmp_path / "out.file"
        link.symlink_to(tmp_path / "missing" / "out.file")
        return str(link)

    def _assert_refused(self, flag, out, tmp_path, capsys, *inputs):
        err = capsys.readouterr().err
        expected = f"error: {flag} {out}: cannot write: No such file or directory"
        assert err.splitlines()[-1] == expected
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["out.file", *inputs])

    def test_trace(self, tmp_path, capsys):
        out = self._dangling(tmp_path)
        argv = ["--time-scale", "0.01", "run", "splash2x/volrend", "--trace", out]
        assert main(argv) == 2
        self._assert_refused("--trace", out, tmp_path, capsys)

    def test_pgm(self, tmp_path, capsys):
        record = tmp_path / "run.rec"
        rows = [(0, 8 * 4096, 5, 1, 0), (8 * 4096, 64 * 4096, 0, 1, 0)]
        save_record([Snapshot.from_rows(t, rows, 20) for t in (0, 1)], record)
        out = self._dangling(tmp_path)
        assert main(["report", str(record), "--pgm", out]) == 2
        self._assert_refused("--pgm", out, tmp_path, capsys, "run.rec")

    def test_record(self, tmp_path, capsys):
        out = self._dangling(tmp_path)
        argv = ["--time-scale", "0.01", "run", "splash2x/volrend", "-c", "rec", "--record", out]
        assert main(argv) == 2
        self._assert_refused("--record", out, tmp_path, capsys)


class TestFleetFloatsChecked:
    """A non-finite or negative float reaches ``FleetConfig`` and is
    refused there: one ``error:`` line naming the field, exit 2."""

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--duration", "nan", "duration_s"),
            ("--min-age", "nan", "min_age_s"),
            ("--pool-ratio", "inf", "pool_ratio"),
            ("--pool-gib", "-1", "pool_gib"),
        ],
    )
    def test_rejected(self, flag, value, field, capsys):
        assert main(["fleet", "-n", "10", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be finite and non-negative")
        assert len(err.splitlines()) == 1


class TestIgnoredFlagsRejected:
    @pytest.mark.parametrize(
        "flag",
        [["--out", "OUT"], ["--shards", "3"], ["--checkpoint", "OUT"],
         ["--journal", "DIR"], ["--resume"], ["--sanitize"]],
        ids=lambda flag: flag[0],
    )
    def test_naive_fleet(self, flag, tmp_path, capsys):
        out = tmp_path / "f.json"
        flag = [{"OUT": str(out), "DIR": str(tmp_path)}.get(a, a) for a in flag]
        argv = ["fleet", "--naive", "-n", "2", "--duration", "5"] + flag
        assert main(argv) == 2
        assert "--naive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["run", "parsec3/swaptions"], ["fleet", "-n", "2", "--duration", "5"]],
        ids=["run", "fleet"],
    )
    def test_checkpoint_every_without_checkpoint(self, argv, capsys):
        assert main(argv + ["--checkpoint-every", "5"]) == 2
        assert "--checkpoint FILE" in capsys.readouterr().err

    def test_resume_out_on_a_run_checkpoint(self, tmp_path, capsys):
        ckpt = str(tmp_path / "run.ckpt")
        assert main(["--time-scale", "0.02", "run", "splash2x/volrend",
                     "--checkpoint", ckpt]) == 0
        capsys.readouterr()
        assert main(["resume", ckpt, "--out", str(tmp_path / "f.json")]) == 2
        captured = capsys.readouterr()
        assert "fleet checkpoints only" in captured.err
        assert "runtime" not in captured.out


class TestNumericFlagsChecked:
    """An out-of-range numeric flag is an argparse usage error: exit 2,
    one ``error:`` line naming the flag, no simulation."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--seed", "-1", "run", "parsec3/swaptions"], "--seed"),
            (["--seed", "-1", "fleet", "-n", "2"], "--seed"),
            (["fleet", "-n", "2", "--shards", "0"], "--shards"),
            (["fleet", "-n", "2", "-j", "0"], "-j/--jobs"),
            (["sweep", "--grid", "fig3", "-j", "0"], "-j/--jobs"),
            (["run", "parsec3/swaptions", "--checkpoint", "OUT", "--checkpoint-every", "-3"],
             "--checkpoint-every"),
            (["fleet", "-n", "2", "--checkpoint", "OUT", "--checkpoint-every", "x"],
             "--checkpoint-every"),
            (["--time-scale", "nan", "run", "parsec3/swaptions"], "--time-scale"),
            (["--time-scale", "inf", "run", "parsec3/swaptions"], "--time-scale"),
            (["--time-scale", "-1", "sweep", "--workloads", "parsec3/swaptions"], "--time-scale"),
            (["--time-scale", "nan", "sweep", "--workloads", "parsec3/swaptions"], "--time-scale"),
            (["--tier-scale", "0", "run", "parsec3/swaptions"], "--tier-scale"),
            (["--tier-scale", "inf", "fleet", "-n", "2"], "--tier-scale"),
            (["sweep", "--workloads", "parsec3/swaptions", "--seeds", "-3"], "--seeds"),
            (["sweep", "--workloads", "parsec3/swaptions", "--seeds", "0,x"], "--seeds"),
            (["sweep", "--grid", "fig3", "-j", "2", "--point-timeout", "nan"], "--point-timeout"),
            (["sweep", "--grid", "fig3", "-j", "2", "--point-timeout", "0"], "--point-timeout"),
            (["report", "f.rec", "--min-freq", "nan"], "--min-freq"),
            (["report", "f.rec", "--min-freq", "-1"], "--min-freq"),
            (["report", "f.rec", "--min-freq", "1.5"], "--min-freq"),
            (["tune", "parsec3/swaptions", "-n", "0"], "-n/--samples"),
            (["tune", "parsec3/swaptions", "-n", "1"], "-n/--samples"),
        ],
        ids=["run-seed", "fleet-seed", "shards", "fleet-jobs", "sweep-jobs",
             "checkpoint-every", "checkpoint-every-not-int", "time-scale-nan",
             "time-scale-inf", "sweep-time-scale-negative", "sweep-time-scale-nan",
             "tier-scale-zero", "fleet-tier-scale-inf", "sweep-seeds-negative",
             "sweep-seeds-not-int", "point-timeout-nan", "point-timeout-zero",
             "min-freq-nan", "min-freq-negative", "min-freq-above-one",
             "tune-samples-zero", "tune-samples-one"],
    )
    def test_rejected(self, argv, flag, tmp_path, monkeypatch, capsys):
        def forbidden(args):
            raise AssertionError("the verb ran despite a bad numeric flag")

        verb = next(a for a in argv if a in repro.cli._COMMANDS)
        monkeypatch.setitem(repro.cli._COMMANDS, verb, forbidden)
        out = tmp_path / "f.ckpt"
        assert _exit_code([str(out) if a == "OUT" else a for a in argv]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {flag}:" in errors[0]
        assert "Traceback" not in err and not out.exists()

    def test_checkpoint_every_zero_is_the_midpoint(self):
        args = build_parser().parse_args(
            ["run", "parsec3/swaptions", "--checkpoint", "f", "--checkpoint-every", "0"]
        )
        assert args.checkpoint_every == 0


class TestExitCodes:
    """The contract in the module docstring and the README, by case."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            pytest.param(["report", "TRACE"], 0, id="0-success"),
            pytest.param(
                ["sweep", "--grid", "fig3", "--no-cache", "--retries", "0",
                 "--faults", "CRASH_PLAN"],
                1,
                id="1-sweep-failed-points",
            ),
            pytest.param(
                ["run", "no/such-workload", "--schemes", "BAD_SCHEMES"],
                1,
                id="1-scheme-file-errors",
            ),
            pytest.param(["run", "parsec3/swaptions", "-c", "warp"], 2, id="2-argparse"),
            pytest.param(["run", "parsec3/swaptions", "--faults", "BAD_PLAN"], 2,
                         id="2-daos-error"),
        ],
    )
    def test_exit_code(self, argv, code, tmp_path):
        crash = tmp_path / "crash.json"
        crash.write_text('{"seed": 1, "faults": [{"kind": "worker_crash", "probability": 1.0}]}')
        bad_plan = tmp_path / "bad.json"
        bad_plan.write_text('{"faults": [{"kind": "gamma_ray"}]}')
        bad_schemes = tmp_path / "bad.schemes"
        bad_schemes.write_text("min max 80% max min max pageout\n")
        paths = {
            "TRACE": _write_trace(tmp_path / "t.jsonl"),
            "CRASH_PLAN": str(crash),
            "BAD_PLAN": str(bad_plan),
            "BAD_SCHEMES": str(bad_schemes),
        }
        assert _exit_code([paths.get(a, a) for a in argv]) == code


class TestClosedStdout:
    """``daos ... | head -1``: a reader that goes away ends the verb with
    exit 1 (README "Exit codes") and no traceback, and a file the verb
    writes is written in full.  The child's stdout is a pipe whose read
    end is closed before the child's first line: the verbs print only
    after simulating, so the broken pipe is certain, where a reader that
    leaves after some lines races the child's remaining writes."""

    @staticmethod
    def _daos(argv, cwd, *, close_stdout):
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "--time-scale", "0.02", *argv],
            cwd=cwd,
            env={"PYTHONPATH": str(REPO / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        if close_stdout:
            child.stdout.close()
            child.stdout = None
        _, err = child.communicate(timeout=300)
        return child.returncode, err.decode()

    def test_run(self, tmp_path):
        code, err = self._daos(
            ["run", "parsec3/swaptions", "-c", "rec"], tmp_path, close_stdout=True
        )
        assert "Traceback" not in err and "Exception ignored" not in err, err
        assert code == 1

    def test_run_trace_to_stdout(self, tmp_path):
        """``--trace -`` streams into the closed pipe mid-run: the run
        ends there, with no detached-subscriber warning and no
        event-count line."""
        code, err = self._daos(
            ["run", "parsec3/swaptions", "-c", "rec", "--trace", "-"], tmp_path, close_stdout=True
        )
        assert "Traceback" not in err and "Exception ignored" not in err, err
        assert "detached" not in err and "events written" not in err, err
        assert code == 1

    def test_sweep_writes_out_first(self, tmp_path):
        argv = ["sweep", "--workloads", "parsec3/swaptions", "--configs", "baseline,rec",
                "--no-cache", "--out"]
        code, err = self._daos([*argv, "closed.json"], tmp_path, close_stdout=True)
        assert "Traceback" not in err and "Exception ignored" not in err, err
        assert code == 1
        assert self._daos([*argv, "intact.json"], tmp_path, close_stdout=False)[0] == 0
        closed = (tmp_path / "closed.json").read_bytes()
        assert closed == (tmp_path / "intact.json").read_bytes()
