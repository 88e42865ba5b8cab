"""The ``daos`` command-line interface."""

import inspect
import re
import shlex
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser, main


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
        rc = main(["--time-scale", "0.1", "record", "splash2x/volrend"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "monitor:" in out
        assert "addr [" in out

    def test_wss(self, capsys):
        rc = main(["--time-scale", "0.1", "wss", "splash2x/volrend"])
        assert rc == 0
        out = capsys.readouterr().out
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
            ["--time-scale", "0.1", "schemes", "splash2x/volrend", "-f", str(scheme_file)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "pageout" in out


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
    @pytest.mark.parametrize(
        "verb_argv, entry_point",
        [
            (["record", "parsec3/swaptions"], "run_experiment"),
            (["run", "parsec3/swaptions", "-c", "prcl"], "run_experiment"),
            (["schemes", "parsec3/swaptions", "-f", "SCHEME_FILE"], "run_experiment"),
            (["tune", "parsec3/swaptions"], "autotune_scheme"),
            (["wss", "parsec3/swaptions"], "run_experiment"),
            (["trace", "parsec3/swaptions"], "run_experiment"),
            (["chaos"], "run_experiment"),
            (["perf", "parsec3/swaptions"], "profile_run"),
        ],
        ids=lambda value: value[0] if isinstance(value, list) else None,
    )
    def test_all_six_arrive(self, monkeypatch, tmp_path, verb_argv, entry_point):
        scheme_file = tmp_path / "my.schemes"
        scheme_file.write_text("4K max min min 2s max pageout\n")
        verb_argv = [str(scheme_file) if a == "SCHEME_FILE" else a for a in verb_argv]

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
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
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
