"""Analysis: heatmaps, WSS, ASCII plotting, report tables."""

import pytest

from repro.analysis.ascii_plot import ascii_series, ascii_table
from repro.analysis.heatmap import build_heatmap, render_heatmap
from repro.analysis.report import fig7_table, format_normalized_rows, short_label
from repro.analysis.wss import wss_from_snapshots
from repro.errors import ConfigError
from repro.monitor.snapshot import RegionSnapshot, Snapshot
from repro.runner.results import NormalizedResult
from repro.units import MIB, SEC

from tests.helpers import hottest_bucket

BASE = 0x7F00_0000_0000


def snap(time_us, regions, max_nr=20):
    """A snapshot of ``(start, end, nr_accesses, age)`` rows, no writes."""
    return Snapshot.from_rows(time_us, [(*r, 0) for r in regions], max_nr)


def hot_cold_snapshots(n=10):
    """Hot low half, cold high half, over n aggregation instants."""
    out = []
    for i in range(n):
        out.append(
            snap(
                i * SEC,
                [
                    (BASE, BASE + 32 * MIB, 18, i),
                    (BASE + 32 * MIB, BASE + 64 * MIB, 0, i),
                ],
            )
        )
    return out


class TestSnapshotType:
    def test_frequency(self):
        region = RegionSnapshot(0, 4096, 10, 0)
        assert region.frequency(20) == 0.5
        assert region.frequency(0) == 0.0

    def test_hot_bytes(self):
        s = hot_cold_snapshots(1)[0]
        assert s.hot_bytes(0.5) == 32 * MIB
        assert s.hot_bytes(0.0) == 64 * MIB

    def test_total_size(self):
        s = hot_cold_snapshots(1)[0]
        assert sum(s.end) - sum(s.start) == 64 * MIB

    def test_matching(self):
        # The row view rebuilds each region from the columns.
        s = hot_cold_snapshots(1)[0]
        hot = [r for r in s.regions if r.nr_accesses > 0]
        assert hot == [RegionSnapshot(BASE, BASE + 32 * MIB, 18, 0, 0)]


class TestHeatmap:
    def test_hot_region_dominates_grid(self):
        heatmap = build_heatmap(hot_cold_snapshots(), time_bins=10, addr_bins=10)
        # Low-address half (rows 0-4) hot, high half cold.
        assert heatmap.grid[:, :5].mean() > 10 * heatmap.grid[:, 5:].mean() + 1e-12

    def test_grid_values_are_frequencies(self):
        heatmap = build_heatmap(hot_cold_snapshots(), time_bins=5, addr_bins=4)
        assert heatmap.grid.min() >= 0.0
        assert heatmap.grid.max() <= 1.0

    def test_active_span_skips_layout_gaps(self):
        # Data span plus a far-away stack span; the data span is hotter.
        snaps = []
        for i in range(5):
            snaps.append(
                snap(
                    i * SEC,
                    [
                        (BASE, BASE + 64 * MIB, 15, 0),
                        (BASE + 1 << 40, (BASE + 1 << 40) + MIB, 20, 0),
                    ],
                )
            )
        heatmap = build_heatmap(snaps)
        assert heatmap.addr_lo == BASE
        assert heatmap.addr_hi == BASE + 64 * MIB

    def test_empty_snapshots_rejected(self):
        with pytest.raises(ConfigError):
            build_heatmap([])

    def test_render_contains_ramp(self):
        heatmap = build_heatmap(hot_cold_snapshots(), time_bins=20, addr_bins=10)
        text = render_heatmap(heatmap, title="demo")
        assert "demo" in text
        assert "@" in text  # the hottest ramp step appears
        assert text.count("|") >= 20

    def test_hottest_bucket(self):
        heatmap = build_heatmap(hot_cold_snapshots(), time_bins=4, addr_bins=4)
        _, y = hottest_bucket(heatmap)
        assert y < 2  # in the hot (low-address) half


class TestWss:
    def test_constant_wss(self):
        stats = wss_from_snapshots(hot_cold_snapshots(), min_frequency=0.5)
        assert stats["p50"] == 32 * MIB
        assert stats["mean"] == 32 * MIB

    def test_threshold_changes_estimate(self):
        loose = wss_from_snapshots(hot_cold_snapshots(), min_frequency=0.0)
        tight = wss_from_snapshots(hot_cold_snapshots(), min_frequency=0.9)
        assert loose["mean"] > tight["mean"]

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            wss_from_snapshots([])

    def test_bad_threshold_rejected(self):
        with pytest.raises(ConfigError):
            wss_from_snapshots(hot_cold_snapshots(), min_frequency=2.0)


class TestAsciiPlots:
    def test_series_renders(self):
        text = ascii_series([0, 1, 2, 3], [0, 1, 4, 9], title="squares")
        assert "squares" in text
        assert "*" in text

    def test_series_with_overlay(self):
        text = ascii_series([0, 1, 2], [0, 1, 2], overlay=([0, 1, 2], [2, 1, 0], "."))
        assert "*" in text and "." in text

    def test_series_validation(self):
        with pytest.raises(ConfigError):
            ascii_series([1], [1, 2])
        with pytest.raises(ConfigError):
            ascii_series([], [])

    def test_table_renders(self):
        text = ascii_table(["a", "b"], [["x", 1.5], ["y", 2.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.500" in text

    def test_table_validation(self):
        with pytest.raises(ConfigError):
            ascii_table([], [])
        with pytest.raises(ConfigError):
            ascii_table(["a"], [["x", "y"]])


class TestReport:
    def _rows(self, config):
        return [
            NormalizedResult("parsec3/freqmine", config, "i3.metal", 0.99, 5.0, 0.8, 0.01, 0.5),
            NormalizedResult("splash2x/fft", config, "i3.metal", 1.0, 1.0, 0.0, 0.0, 1.0),
        ]

    def test_short_label(self):
        assert short_label("parsec3/freqmine") == "P/freqmine"
        assert short_label("splash2x/fft") == "S/fft"
        assert short_label("average") == "average"

    def test_format_rows(self):
        text = format_normalized_rows(self._rows("prcl"))
        assert "P/freqmine" in text
        assert "prcl" in text

    def test_format_empty_rejected(self):
        with pytest.raises(ConfigError):
            format_normalized_rows([])

    def test_fig7_table_has_average(self):
        table = fig7_table({"rec": self._rows("rec"), "prcl": self._rows("prcl")}, "i3.metal")
        assert "average" in table
        assert "rec:perf" in table
        assert "prcl:memeff" in table

    def test_fig7_mismatched_workloads_rejected(self):
        bad = {"rec": self._rows("rec"), "prcl": self._rows("prcl")[:1]}
        with pytest.raises(ConfigError):
            fig7_table(bad, "i3.metal")
