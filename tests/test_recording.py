"""Monitoring record files and heatmap image export."""

import json
from pathlib import Path

import pytest

from repro.analysis.heatmap import build_heatmap
from repro.analysis.recording import (
    heatmap_to_pgm,
    load_record,
    read_record,
    save_record,
)
from repro.errors import ConfigError, ParseError
from repro.monitor.snapshot import Snapshot
from repro.units import MIB, SEC

BASE = 0x7F00_0000_0000


def snapshots(n=6):
    out = []
    for i in range(n):
        out.append(
            Snapshot.from_rows(
                i * SEC,
                [
                    (BASE, BASE + 8 * MIB, 15 + i % 3, i, 0),
                    (BASE + 8 * MIB, BASE + 64 * MIB, 0, i, 0),
                ],
                20,
            )
        )
    return out


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.record"
        save_record(snapshots(), path, workload="w", machine="i3.metal")
        loaded = load_record(path)
        original = snapshots()
        assert len(loaded) == len(original)
        for a, b in zip(loaded, original):
            assert a.time_us == b.time_us
            assert a.max_nr_accesses == b.max_nr_accesses
            assert a.regions == b.regions

    def test_metadata(self, tmp_path):
        path = tmp_path / "run.record"
        save_record(
            snapshots(), path, workload="parsec3/x", machine="z1d.metal",
            extra={"seed": 3},
        )
        meta, _ = read_record(path)
        assert meta["workload"] == "parsec3/x"
        assert meta["machine"] == "z1d.metal"
        assert meta["extra"] == {"seed": 3}
        assert meta["nr_snapshots"] == 6

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            save_record([], tmp_path / "x.record")

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ParseError):
            load_record(path)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "corrupt.record"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_record(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_record(tmp_path / "nope.record")

    def test_failed_write_keeps_previous_record(self, tmp_path, monkeypatch):
        """A write that fails after the open (a full disk) leaves the
        previous record loadable and no temp file behind."""
        path = tmp_path / "run.record"
        save_record(snapshots(), path, workload="old")
        real_open = Path.open

        class FailingWrite:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                raise OSError(28, "No space left on device")

        def open_failing(self, mode="r", *args, **kwargs):
            handle = real_open(self, mode, *args, **kwargs)
            return FailingWrite(handle) if "w" in mode else handle

        monkeypatch.setattr(Path, "open", open_failing)
        with pytest.raises(OSError, match="No space left"):
            save_record(snapshots(3), path, workload="new")
        monkeypatch.undo()
        meta, loaded = read_record(path)
        assert meta["workload"] == "old"
        assert len(loaded) == 6
        assert [p.name for p in tmp_path.iterdir()] == ["run.record"]

    def test_loaded_record_feeds_heatmap(self, tmp_path):
        path = tmp_path / "run.record"
        save_record(snapshots(), path)
        heatmap = build_heatmap(load_record(path), time_bins=6, addr_bins=8)
        assert heatmap.grid.max() > 0


class TestPgmExport:
    def test_valid_pgm(self, tmp_path):
        heatmap = build_heatmap(snapshots(), time_bins=10, addr_bins=5)
        path = heatmap_to_pgm(heatmap, tmp_path / "map.pgm", scale=2)
        data = path.read_bytes()
        assert data.startswith(b"P5\n20 10\n255\n")
        header_len = len(b"P5\n20 10\n255\n")
        assert len(data) == header_len + 20 * 10

    def test_intensity_scaling(self, tmp_path):
        heatmap = build_heatmap(snapshots(), time_bins=4, addr_bins=4)
        path = heatmap_to_pgm(heatmap, tmp_path / "map.pgm", scale=1)
        body = path.read_bytes().split(b"255\n", 1)[1]
        assert max(body) == 255  # normalised so the hottest cell is white

    def test_bad_scale_rejected(self, tmp_path):
        heatmap = build_heatmap(snapshots())
        with pytest.raises(ConfigError):
            heatmap_to_pgm(heatmap, tmp_path / "x.pgm", scale=0)


class TestCliIntegration:
    def test_record_then_report(self, tmp_path, capsys):
        from repro.cli import main

        record = tmp_path / "volrend.record"
        rc = main(
            ["--time-scale", "0.1", "run", "splash2x/volrend", "-c", "rec",
             "--record", str(record)]
        )
        assert rc == 0
        assert record.exists()
        capsys.readouterr()
        pgm = tmp_path / "volrend.pgm"
        rc = main(["report", str(record), "--pgm", str(pgm)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "from record" in out
        assert "working set" in out
        assert pgm.read_bytes().startswith(b"P5")
