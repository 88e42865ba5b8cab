"""``daos lint`` end to end, plus the fail-fast integration points.

The analyzer is only useful if it actually stands between a bad scheme
set and a burned simulation run, so these tests drive the real entry
points: the CLI subcommand, ``run_experiment``, and the sweep preflight.
"""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.errors import SchemeError
from repro.runner.configs import CONFIGS, ExperimentConfig
from repro.runner.experiment import run_experiment
from repro.sweep.grid import SweepGrid
from repro.sweep.points import register_point_function
from repro.sweep.runner import SweepRunner
from repro.trace import TraceBus

FIXTURES = Path(__file__).parent / "fixtures"
BAD = str(FIXTURES / "bad.schemes")
WARN = str(FIXTURES / "warn.schemes")

THRASH = "min max 80% max min max pageout"


class TestParser:
    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.command == "lint"
        assert args.paths == []
        assert args.schemes == []
        assert args.format == "text"

    def test_lint_options(self):
        args = build_parser().parse_args(
            ["lint", "src", "tests", "--schemes", "a.schemes",
             "--schemes", "b.schemes", "--format", "json"]
        )
        assert args.paths == ["src", "tests"]
        assert args.schemes == ["a.schemes", "b.schemes"]
        assert args.format == "json"


class TestLintCommand:
    def test_bad_schemes_fail_with_all_seeded_codes(self, capsys):
        assert main(["lint", "--schemes", BAD]) == 1
        out = capsys.readouterr().out
        for code in ("DS130", "DS120", "DS103", "DS150"):
            assert code in out, f"missing {code} in:\n{out}"
        assert "6 error(s)" in out

    def test_warning_only_schemes_pass(self, capsys):
        assert main(["lint", "--schemes", WARN]) == 0
        out = capsys.readouterr().out
        assert "DS110" in out and "warning" in out

    def test_json_format_roundtrips(self, capsys):
        assert main(["lint", "--schemes", BAD, "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        diags = document["diagnostics"]
        assert sorted(d["code"] for d in diags) == [
            "DS103", "DS120", "DS120", "DS120", "DS130", "DS150",
        ]
        assert all(
            set(d) == {"code", "severity", "message", "file", "line", "column", "source"}
            for d in diags
        )
        assert document["format"] == "daos-lint-v1"

    def test_default_target_source_tree_is_clean(self, capsys):
        """`daos lint` with no arguments lints the shipped package —
        and the shipped package must pass its own linter."""
        assert main(["lint"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("target", ["missing.py", "missing_dir/"])
    def test_missing_path_is_a_usage_error(self, target, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["lint", target]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "missing" in err and "no such file or directory" in err

    def test_undecodable_file_is_dt200(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "latin1.py").write_bytes(b"name = '\xe9t\xe9'\n")
        assert main(["lint", "latin1.py"]) == 1
        out = capsys.readouterr().out
        assert "latin1.py: error DT200: file does not parse: not UTF-8" in out


class TestSchemesCommandAnalysis:
    def test_refuses_error_schemes_before_running(self, capsys):
        # Never reaches the simulator: the workload name is not even
        # resolved, so a bogus one proves the analysis gate came first.
        rc = main(["run", "no/such-workload", "--schemes", BAD])
        assert rc == 1
        err = capsys.readouterr().err
        assert "DS130" in err and "error-severity" in err

    def test_prints_warnings_and_still_runs(self, capsys):
        rc = main(
            ["--time-scale", "0.05", "run", "splash2x/volrend", "--schemes", WARN]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "DS110" in captured.err
        assert "runtime" in captured.out


class TestRunnerFailFast:
    def test_run_experiment_rejects_bad_schemes(self):
        cfg = ExperimentConfig(name="bad", monitor="vaddr", schemes_text=THRASH)
        with pytest.raises(SchemeError, match="DS150"):
            run_experiment("parsec3/freqmine", config=cfg, time_scale=0.05)

    def test_sweep_preflight_rejects_before_any_execution(self, monkeypatch):
        executed = []

        def probe(params):
            executed.append(params)
            return {"ok": True}

        register_point_function("lint_probe", probe)
        monkeypatch.setitem(
            CONFIGS,
            "bad_lint_cfg",
            ExperimentConfig(name="bad_lint_cfg", monitor="vaddr", schemes_text=THRASH),
        )
        grid = SweepGrid.from_axes("lint_probe", {"config": ["bad_lint_cfg"]})
        with pytest.raises(SchemeError, match="DS150"):
            SweepRunner(grid, jobs=1).run()
        assert executed == []  # failed in preflight, not per point

    def test_sweep_preflight_ignores_unknown_config_names(self):
        register_point_function("lint_probe_ok", lambda params: {"ok": True})
        grid = SweepGrid.from_axes("lint_probe_ok", {"config": ["not-a-config"]})
        report = SweepRunner(grid, jobs=1).run()
        assert report.n_failed == 0


class TestPaddrActionFailFast:
    """An action with no physical form is refused where bad scheme sets
    are, not at the first matching region some simulated seconds in."""

    MATCH = "action hugepage is not supported on physical-address targets"

    @pytest.fixture(autouse=True)
    def paddr_thp(self, monkeypatch):
        cfg = ExperimentConfig(
            name="paddr_thp", monitor="paddr", schemes_text="4K max min min 1s max hugepage"
        )
        monkeypatch.setitem(CONFIGS, cfg.name, cfg)
        return cfg

    def test_run_experiment_rejects_before_the_first_epoch(self, paddr_thp):
        bus = TraceBus()
        with pytest.raises(SchemeError, match=self.MATCH):
            run_experiment("parsec3/swaptions", config=paddr_thp, time_scale=0.05, trace=bus)
        assert bus.counts.get("EpochEnd", 0) == 0

    def test_sweep_preflight_rejects_before_any_execution(self):
        executed = []
        register_point_function("paddr_probe", lambda params: executed.append(params) or {})
        grid = SweepGrid.from_axes("paddr_probe", {"config": ["paddr_thp"]})
        with pytest.raises(SchemeError, match=self.MATCH):
            SweepRunner(grid, jobs=1).run()
        assert executed == []

    def test_cli_exits_2(self, capsys):
        assert main(["--time-scale", "0.05", "run", "parsec3/swaptions", "-c", "paddr_thp"]) == 2
        assert self.MATCH in capsys.readouterr().err
