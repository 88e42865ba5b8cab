"""Runner: configurations, normalisation, and the experiment driver."""

import pytest

from repro.errors import ConfigError
from repro.runner.configs import (
    CONFIGS,
    ETHP_SCHEMES,
    PRCL_SCHEMES,
    ExperimentConfig,
    get_config,
    prcl_config,
)
from repro.runner.experiment import run_experiment
from repro.runner.results import NormalizedResult, RunResult, average_rows, normalize
from repro.schemes.actions import Action
from repro.schemes.parser import parse_schemes
from repro.sim.machine import scaled_instance
from repro.units import MIB, SEC
from repro.workloads.serverless import serverless_spec


class TestConfigs:
    def test_six_paper_configurations(self):
        assert sorted(CONFIGS) == ["baseline", "ethp", "prcl", "prec", "rec", "thp"]

    def test_baseline_has_nothing_enabled(self):
        cfg = get_config("baseline")
        assert cfg.monitor is None
        assert cfg.thp_mode == "never"
        assert cfg.schemes_text is None

    def test_rec_prec_monitor_targets(self):
        assert get_config("rec").monitor == "vaddr"
        assert get_config("prec").monitor == "paddr"

    def test_thp_config(self):
        assert get_config("thp").thp_mode == "always"

    def test_ethp_is_listing3_lines_2_3(self):
        schemes = parse_schemes(ETHP_SCHEMES)
        assert [s.action for s in schemes] == [Action.HUGEPAGE, Action.NOHUGEPAGE]
        assert schemes[1].pattern.min_size == 2 * MIB
        assert schemes[1].pattern.min_age_us == 7 * SEC

    def test_prcl_is_listing3_line_5(self):
        (scheme,) = parse_schemes(PRCL_SCHEMES)
        assert scheme.action is Action.PAGEOUT
        assert scheme.pattern.min_size == 4096
        assert scheme.pattern.min_age_us == 5 * SEC
        assert scheme.pattern.max_freq == 0.0

    def test_prcl_config_custom_age(self):
        cfg = prcl_config(17 * SEC)
        (scheme,) = parse_schemes(cfg.schemes_text)
        assert scheme.pattern.min_age_us == 17 * SEC

    def test_schemes_require_monitor(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(name="bad", schemes_text="4K max min min 5s max pageout")

    def test_quota_requires_schemes(self):
        from repro.schemes.quotas import Quota

        with pytest.raises(ConfigError):
            ExperimentConfig(name="bad", monitor="vaddr", quota=Quota(size_bytes=MIB))

    def test_config_quota_reaches_engine(self):
        from repro.schemes.quotas import Quota

        config = ExperimentConfig(
            name="q",
            monitor="vaddr",
            schemes_text="4K max min min 1s max pageout\n",
            quota=Quota(size_bytes=MIB, reset_interval_us=SEC),
        )
        result = run_experiment(SMALL, config=config, seed=0)
        stats = next(iter(result.scheme_stats.values()))
        unrestricted = run_experiment(SMALL, config="prcl", seed=0)
        stats_free = next(iter(unrestricted.scheme_stats.values()))
        assert stats["sz_applied"] < stats_free["sz_applied"]

    def test_unknown_config_rejected(self):
        with pytest.raises(ConfigError):
            get_config("turbo")


class TestNormalize:
    def _result(self, runtime, rss, workload="w", config="c"):
        return RunResult(
            workload=workload,
            config=config,
            machine="i3.metal",
            seed=0,
            duration_us=1000,
            runtime_us=runtime,
            avg_rss_bytes=rss,
            peak_rss_bytes=rss,
            avg_system_bytes=rss,
        )

    def test_identity(self):
        base = self._result(100.0, 100.0)
        n = normalize(base, base)
        assert n.performance == 1.0
        assert n.memory_efficiency == 1.0
        assert n.memory_saving == 0.0
        assert n.slowdown == 0.0

    def test_slower_and_leaner(self):
        base = self._result(100.0, 100.0)
        run = self._result(125.0, 50.0)
        n = normalize(run, base)
        assert n.performance == pytest.approx(0.8)
        assert n.memory_efficiency == pytest.approx(2.0)
        assert n.memory_saving == pytest.approx(0.5)
        assert n.slowdown == pytest.approx(0.25)

    def test_workload_mismatch_rejected(self):
        base = self._result(100.0, 100.0, workload="a")
        run = self._result(100.0, 100.0, workload="b")
        with pytest.raises(ConfigError):
            normalize(run, base)

    def test_degenerate_baseline_rejected(self):
        base = self._result(0.0, 100.0)
        with pytest.raises(ConfigError):
            normalize(self._result(1.0, 1.0), base)

    def test_average_rows(self):
        rows = [
            NormalizedResult("a", "c", "m", 1.0, 2.0, 0.5, 0.0, 1.0),
            NormalizedResult("b", "c", "m", 0.5, 1.0, 0.0, 1.0, 1.0),
        ]
        avg = average_rows(rows, "c", "m")
        assert avg.workload == "average"
        assert avg.performance == pytest.approx(0.75)
        assert avg.memory_efficiency == pytest.approx(1.5)

    def test_average_empty_rejected(self):
        with pytest.raises(ConfigError):
            average_rows([], "c", "m")

    def test_monitor_cpu_share(self):
        result = self._result(100.0, 100.0)
        result.monitor_cpu_us = 10.0
        assert result.monitor_cpu_share == pytest.approx(10.0 / 1000)


SMALL = serverless_spec(footprint_mib=96, cold_share=0.8, duration_s=20)


class TestRunExperiment:
    def test_baseline_runs(self):
        result = run_experiment(SMALL, config="baseline", seed=0)
        assert result.runtime_us > 0
        assert result.avg_rss_bytes > 0
        assert result.config == "baseline"
        assert result.monitor_checks == 0

    def test_rec_records_snapshots(self):
        result = run_experiment(SMALL, config="rec", seed=0)
        assert result.monitor_checks > 0
        assert result.snapshots
        assert result.monitor_cpu_share < 0.05

    def test_prcl_saves_memory_on_cold_workload(self):
        base = run_experiment(SMALL, config="baseline", seed=0)
        prcl = run_experiment(SMALL, config="prcl", seed=0)
        n = normalize(prcl, base)
        assert n.memory_saving > 0.3
        assert n.slowdown < 0.10

    def test_scheme_stats_exported(self):
        result = run_experiment(SMALL, config="prcl", seed=0)
        assert any("pageout" in key for key in result.scheme_stats)

    def test_deterministic(self):
        a = run_experiment(SMALL, config="prcl", seed=3)
        b = run_experiment(SMALL, config="prcl", seed=3)
        assert a.runtime_us == b.runtime_us
        assert a.avg_rss_bytes == b.avg_rss_bytes

    def test_seed_changes_results(self):
        a = run_experiment(SMALL, config="rec", seed=1)
        b = run_experiment(SMALL, config="rec", seed=2)
        # Monitoring sampling is randomised, so check counts differ
        # somewhere down the line.
        assert (a.runtime_us, a.monitor_checks) != (b.runtime_us, b.monitor_checks)

    def test_machine_affects_runtime(self):
        slow = run_experiment(SMALL, config="baseline", machine="i3.metal", seed=0)
        fast = run_experiment(SMALL, config="baseline", machine="z1d.metal", seed=0)
        assert fast.runtime_us < slow.runtime_us

    def test_swap_kind_none(self):
        result = run_experiment(SMALL, config="prcl", swap="none", seed=0)
        # Nothing can be paged out without swap.
        base = run_experiment(SMALL, config="baseline", swap="none", seed=0)
        assert result.avg_rss_bytes == pytest.approx(base.avg_rss_bytes, rel=0.02)

    def test_swap_kind_file_saves_more_system_memory_than_zram(self):
        zram = run_experiment(SMALL, config="prcl", swap="zram", seed=0)
        file_ = run_experiment(SMALL, config="prcl", swap="file", seed=0)
        assert file_.avg_system_bytes < zram.avg_system_bytes

    def test_unknown_swap_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(SMALL, config="baseline", swap="tape")

    def test_final_memory_fields(self):
        result = run_experiment(SMALL, config="prcl", seed=0)
        assert result.final_rss_bytes > 0
        assert result.final_system_bytes >= result.final_rss_bytes
        # The scheme keeps reclaiming, so the end state is leaner than
        # the time-weighted average (which includes the warm-up).
        assert result.final_rss_bytes <= result.avg_rss_bytes * 1.05

    def test_time_scale(self):
        full = run_experiment(SMALL, config="baseline", seed=0)
        half = run_experiment(SMALL, config="baseline", seed=0, time_scale=0.5)
        assert half.duration_us == full.duration_us // 2


class TestAutotune:
    def test_a_session_simulates_each_point_once(self, monkeypatch):
        """Baseline, ten samples, one validation: the tuned run is the
        tuner's own measurement of the point it chose, not a repeat."""
        from repro.runner import experiment

        calls = []

        def counting(workload, **kwargs):
            calls.append(kwargs["config"])
            return run_experiment(workload, **kwargs)

        monkeypatch.setattr(experiment, "run_experiment", counting)
        tiny = serverless_spec(footprint_mib=8, cold_share=0.8, duration_s=2)
        tuning, baseline, tuned = experiment.autotune_scheme(
            tiny,
            nr_samples=10,
            min_age_range_s=(0.0, 2.0),
            machine=scaled_instance("i3.metal", dram_scale=1 / 1024),
        )
        assert len(calls) <= 12
        assert calls[0] == "baseline" and baseline.config == "baseline"
        assert tuned.config == f"prcl@{int(tuning.best_param * 1e6) / 1e6:g}s"
