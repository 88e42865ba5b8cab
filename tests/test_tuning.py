"""The auto-tuning runtime: score, sampler, fitting, tuner."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TuningError
from repro.tuning.fit import estimate_trend, find_peaks, fit_degree
from repro.tuning.runtime import AutoTuner
from repro.tuning.sampler import (
    GLOBAL_SHARE,
    SamplePlan,
    nr_samples_for_budget,
)
from repro.tuning.score import ScoreFunction, default_score_function


class TestScoreFunction:
    """Paper Listing 2 semantics."""

    def test_no_change_scores_zero(self):
        score = default_score_function()
        assert score(100.0, 100.0, 100.0, 100.0) == 0.0

    def test_memory_saving_scores_positive(self):
        score = default_score_function()
        # Same runtime, half the RSS: mscore = 0.5, even weights -> 25.
        assert score(100.0, 50.0, 100.0, 100.0) == pytest.approx(25.0)

    def test_slowdown_scores_negative(self):
        score = default_score_function()
        assert score(105.0, 100.0, 100.0, 100.0) == pytest.approx(-2.5)

    def test_sla_violation_returns_worst_so_far(self):
        score = default_score_function()
        first = score(100.0, 80.0, 100.0, 100.0)  # +10
        second = score(102.0, 60.0, 100.0, 100.0)  # +19
        violating = score(150.0, 10.0, 100.0, 100.0)  # 50% slowdown
        assert violating == min(first, second)

    def test_sla_violation_with_no_history_returns_floor(self):
        score = default_score_function()
        assert score(150.0, 10.0, 100.0, 100.0) == score.floor

    def test_sla_boundary_exclusive(self):
        # pscore must be strictly greater than -max_slowdown.
        score = default_score_function()
        exactly_ten = score(110.0, 50.0, 100.0, 100.0)
        assert exactly_ten == score.floor  # 10% drop violates "more than 10%"? paper: pscore > -0.1 fails at exactly -0.1

    def test_weights(self):
        score = ScoreFunction(perf_weight=1.0, memory_weight=0.0)
        assert score(100.0, 10.0, 100.0, 100.0) == 0.0  # memory ignored

    def test_reset_clears_history(self):
        score = default_score_function()
        score(100.0, 80.0, 100.0, 100.0)
        score.reset()
        assert score(150.0, 10.0, 100.0, 100.0) == score.floor

    def test_invalid_construction(self):
        with pytest.raises(TuningError):
            ScoreFunction(perf_weight=-1)
        with pytest.raises(TuningError):
            ScoreFunction(perf_weight=0, memory_weight=0)
        with pytest.raises(TuningError):
            ScoreFunction(max_slowdown=-0.1)

    def test_degenerate_baseline_rejected(self):
        with pytest.raises(TuningError):
            default_score_function()(100.0, 100.0, 0.0, 100.0)


class TestSampler:
    def test_budget_division(self):
        assert nr_samples_for_budget(100 * 60, 10 * 60) == 10

    def test_budget_too_small_rejected(self):
        with pytest.raises(TuningError):
            nr_samples_for_budget(10, 10)

    def test_zero_unit_work_rejected(self):
        with pytest.raises(TuningError):
            nr_samples_for_budget(100, 0)

    def test_global_local_split_60_40(self):
        plan = SamplePlan(lo=0.0, hi=60.0, nr_samples=10, rng=np.random.default_rng(0))
        assert plan.nr_global == 6
        assert plan.nr_local == 4

    def test_points_within_range(self):
        rng = np.random.default_rng(0)
        plan = SamplePlan(lo=5.0, hi=25.0, nr_samples=10, rng=rng)
        for p in plan.global_points():
            assert 5.0 <= p <= 25.0
        for p in plan.local_points(best=24.9):
            assert 5.0 <= p <= 25.0

    def test_local_points_near_best(self):
        rng = np.random.default_rng(0)
        plan = SamplePlan(lo=0.0, hi=100.0, nr_samples=10, rng=rng)
        for p in plan.local_points(best=50.0):
            assert 35.0 <= p <= 65.0  # within the 15% window

    def test_best_outside_range_rejected(self):
        plan = SamplePlan(lo=0.0, hi=1.0, nr_samples=4, rng=np.random.default_rng(0))
        with pytest.raises(TuningError):
            plan.local_points(best=2.0)

    def test_empty_range_rejected(self):
        with pytest.raises(TuningError):
            SamplePlan(lo=1.0, hi=1.0, nr_samples=4, rng=np.random.default_rng(0))

    def test_global_share_constant(self):
        assert GLOBAL_SHARE == pytest.approx(0.6)


class TestFit:
    def test_degree_rule(self):
        """Paper: degree = nr_samples / 3 to avoid over-fitting."""
        assert fit_degree(10) == 3
        assert fit_degree(30) == 10
        assert fit_degree(2) == 1

    def test_fit_recovers_linear_trend(self):
        xs = np.linspace(0, 10, 12)
        ys = 2 * xs + 1
        trend = estimate_trend(xs, ys, 0, 10)
        assert trend(5.0) == pytest.approx(11.0, abs=0.1)

    def test_fit_recovers_parabola_peak(self):
        xs = np.linspace(0, 10, 15)
        ys = -((xs - 4.0) ** 2)
        trend = estimate_trend(xs, ys, 0, 10)
        peaks = find_peaks(trend)
        best_x, best_y = peaks[0]
        assert best_x == pytest.approx(4.0, abs=0.3)

    def test_peaks_include_endpoints(self):
        # Monotonic increasing: peak must be the right endpoint.
        xs = np.linspace(0, 10, 9)
        ys = xs * 3.0
        trend = estimate_trend(xs, ys, 0, 10)
        best_x, _ = find_peaks(trend)[0]
        assert best_x == pytest.approx(10.0)

    def test_fit_with_noise_still_finds_peak(self):
        rng = np.random.default_rng(0)
        xs = np.linspace(0, 60, 20)
        ys = -((xs - 16.0) ** 2) / 20 + rng.normal(0, 2.0, xs.size)
        trend = estimate_trend(xs, ys, 0, 60)
        best_x, _ = find_peaks(trend)[0]
        assert 10 < best_x < 24

    def test_too_few_samples_rejected(self):
        with pytest.raises(TuningError):
            estimate_trend([1.0], [1.0], 0, 10)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(TuningError):
            estimate_trend([1.0, 2.0], [1.0], 0, 10)

    def test_grid(self):
        trend = estimate_trend([0, 5, 10], [0, 5, 10], 0, 10)
        xs, ys = trend.grid(11)
        assert xs[0] == 0 and xs[-1] == 10
        assert len(ys) == 11


def make_tuner(score_shape, seed=1, noise=0.0):
    """Build a tuner over a synthetic score landscape.

    ``score_shape(x)`` gives the *score*; we invert it into
    (runtime, rss) pairs that the Listing 2 function maps back onto it:
    runtime fixed at baseline, rss = baseline * (1 - 2*score/100).
    """
    rng = np.random.default_rng(seed)

    def evaluate(x):
        score = score_shape(x) + (rng.normal(0, noise) if noise else 0.0)
        rss = 100.0 * (1.0 - 2.0 * score / 100.0)
        return 100.0, max(1.0, rss)

    return AutoTuner(evaluate, (100.0, 100.0), 0.0, 60.0, seed=seed)


class TestAutoTuner:
    def test_finds_interior_peak(self):
        tuner = make_tuner(lambda x: -((x - 16.0) ** 2) / 30.0 + 20.0)
        result = tuner.tune(nr_samples=12)
        assert 10 < result.best_param < 24

    def test_finds_monotonic_max_at_edge(self):
        """Figure 3 pattern 1: efficiency dominates everywhere."""
        tuner = make_tuner(lambda x: (60.0 - x) / 3.0)
        result = tuner.tune(nr_samples=10)
        assert result.best_param < 10

    def test_noise_tolerated(self):
        tuner = make_tuner(lambda x: -((x - 30.0) ** 2) / 50.0 + 15.0, noise=1.5)
        result = tuner.tune(nr_samples=15)
        assert 20 < result.best_param < 40

    def test_sample_split_matches_plan(self):
        tuner = make_tuner(lambda x: 0.0)
        result = tuner.tune(nr_samples=10)
        assert len(result.global_samples) == 6
        assert len(result.local_samples) == 4

    def test_budget_interface(self):
        tuner = make_tuner(lambda x: -abs(x - 20.0))
        result = tuner.tune(nr_samples_for_budget(time_limit_us=100, unit_work_us=10))
        assert len(result.samples) == 10

    def test_deterministic_given_seed(self):
        shape = lambda x: -((x - 16.0) ** 2) / 30.0
        a = make_tuner(shape, seed=5).tune(10)
        b = make_tuner(shape, seed=5).tune(10)
        assert a.best_param == b.best_param
        assert a.samples == b.samples

    def test_empty_range_rejected(self):
        with pytest.raises(TuningError):
            AutoTuner(lambda x: (1.0, 1.0), (100.0, 100.0), 5.0, 5.0)

    def test_bad_baseline_rejected(self):
        with pytest.raises(TuningError):
            AutoTuner(lambda x: (1.0, 1.0), (0.0, 100.0), 0.0, 60.0)

    @settings(max_examples=15, deadline=None)
    @given(peak=st.floats(min_value=10.0, max_value=50.0))
    def test_peak_recovery_property(self, peak):
        tuner = make_tuner(lambda x, p=peak: -((x - p) ** 2) / 40.0 + 10.0)
        result = tuner.tune(nr_samples=15)
        assert abs(result.best_param - peak) < 12.0
