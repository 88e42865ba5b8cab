"""SweepRunner: cache resume, pool execution, failure isolation."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sweep.grid import SweepGrid
from repro.sweep.points import get_point_function, register_point_function
from repro.sweep.presets import fig3_grid
from repro.sweep.runner import SweepRunner


def _square(params):
    if params.get("explode"):
        raise ValueError("boom")
    return {"value": float(params["x"]) ** 2}


register_point_function("test_square", _square)


@pytest.fixture
def square_grid():
    return SweepGrid.from_axes("test_square", {"x": [1, 2, 3, 4]})


class TestSerialExecution:
    def test_results_in_grid_order(self, square_grid):
        report = SweepRunner(square_grid, jobs=1).run()
        assert [o.value["value"] for o in report.outcomes] == [1.0, 4.0, 9.0, 16.0]
        assert report.n_executed == 4
        assert report.n_cached == 0
        assert report.n_failed == 0

    def test_progress_called_once_per_point(self, square_grid):
        calls = []
        SweepRunner(
            square_grid, jobs=1, progress=lambda d, t, o: calls.append((d, t))
        ).run()
        assert calls == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_failed_point_isolated(self):
        grid = SweepGrid.from_points(
            "test_square", [{"x": 1}, {"x": 2, "explode": True}, {"x": 3}]
        )
        report = SweepRunner(grid, jobs=1).run()
        assert report.n_failed == 1
        assert report.n_executed == 2
        failure = report.failures()[0]
        assert "ValueError: boom" in failure.error
        assert [o.value["value"] for o in report.outcomes if o.ok] == [1.0, 9.0]

    def test_unknown_point_function_is_a_point_failure(self):
        grid = SweepGrid.from_points("no_such_fn", [{"x": 1}])
        report = SweepRunner(grid, jobs=1).run()
        assert report.n_failed == 1

    def test_jobs_validation(self, square_grid):
        with pytest.raises(ConfigError):
            SweepRunner(square_grid, jobs=0)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0.0, -1.0])
    def test_point_timeout_must_be_finite_and_positive(self, square_grid, timeout):
        with pytest.raises(ConfigError, match="finite and positive"):
            SweepRunner(square_grid, point_timeout_s=timeout)


class TestCacheResume:
    def test_second_run_fully_cached(self, square_grid, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_VERSION_TAG", "resume-test")
        first = SweepRunner(square_grid, jobs=1, cache_dir=tmp_path).run()
        assert (first.n_cached, first.n_executed) == (0, 4)
        second = SweepRunner(square_grid, jobs=1, cache_dir=tmp_path).run()
        assert (second.n_cached, second.n_executed) == (4, 0)
        assert [o.value for o in second.outcomes] == [o.value for o in first.outcomes]

    def test_failed_points_are_not_cached(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_VERSION_TAG", "fail-test")
        grid = SweepGrid.from_points(
            "test_square", [{"x": 1}, {"x": 2, "explode": True}]
        )
        SweepRunner(grid, jobs=1, cache_dir=tmp_path).run()
        again = SweepRunner(grid, jobs=1, cache_dir=tmp_path).run()
        assert again.n_cached == 1  # the good point resumed
        assert again.n_failed == 1  # the bad one re-ran (and failed again)

    def test_version_change_invalidates(self, square_grid, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_VERSION_TAG", "v1")
        SweepRunner(square_grid, jobs=1, cache_dir=tmp_path).run()
        monkeypatch.setenv("REPRO_SWEEP_VERSION_TAG", "v2")
        report = SweepRunner(square_grid, jobs=1, cache_dir=tmp_path).run()
        assert report.n_cached == 0
        assert report.n_executed == 4

    def test_no_cache_dir_disables_caching(self, square_grid):
        report = SweepRunner(square_grid, jobs=1, cache_dir=None).run()
        assert report.n_cached == 0


class TestPoolExecution:
    """Pool workers must produce exactly what the serial path produces.

    Uses the built-in ``score_curve`` function — registered at import
    time in every worker — rather than this module's test function,
    which spawn-started workers would not have."""

    def test_pool_matches_serial(self):
        grid = fig3_grid(n_points=11)
        serial = SweepRunner(grid, jobs=1).run()
        pooled = SweepRunner(grid, jobs=2).run()
        assert pooled.n_executed == 6
        assert pooled.n_failed == 0
        for a, b in zip(serial.outcomes, pooled.outcomes):
            assert a.point == b.point  # grid order preserved
            np.testing.assert_array_equal(a.value["scores"], b.value["scores"])

    def test_pool_resumes_from_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_VERSION_TAG", "pool-cache")
        grid = fig3_grid(n_points=11)
        SweepRunner(grid, jobs=2, cache_dir=tmp_path).run()
        second = SweepRunner(grid, jobs=2, cache_dir=tmp_path).run()
        assert (second.n_cached, second.n_executed) == (6, 0)


class TestRegistry:
    def test_module_path_resolution(self):
        fn = get_point_function("tests.test_sweep_runner:_square")
        assert fn({"x": 3})["value"] == 9.0

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError):
            get_point_function("definitely_missing")
