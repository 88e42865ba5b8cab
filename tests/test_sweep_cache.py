"""Sweep cache: canonical serialization, content addressing, resume.

The golden tests pin the *exact* canonical encoding of a ``RunResult``
— silent schema drift (a renamed field, a changed float format, a
reordered key) must fail loudly here rather than poison caches.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.monitor.snapshot import RegionSnapshot, Snapshot
from repro.runner.results import RunResult
from repro.sweep.cache import ResultCache, point_key
from repro.sweep.grid import SweepPoint
from repro.sweep.serialize import (
    canonical_json,
    decode_value,
    encode_value,
    fingerprint,
)

from tests.helpers import result_fields


def full_result() -> RunResult:
    """A RunResult with every field set to a distinctive value."""
    return RunResult(
        workload="parsec3/example",
        config="prcl",
        machine="i3.metal",
        seed=3,
        duration_us=1_000_000,
        runtime_us=1_234_567.875,
        avg_rss_bytes=12345.5,
        peak_rss_bytes=23456.0,
        avg_system_bytes=34567.25,
        final_rss_bytes=45678.0,
        final_system_bytes=56789.0,
        breakdown={"runtime": {"compute_us": 1.5}, "memory": 2.25},
        monitor_checks=42,
        monitor_cpu_us=77.5,
        scheme_stats={"0:pageout": {"nr_tried": 3, "sz_tried": 4096}},
        snapshots=[
            Snapshot.from_rows(100, [(0, 4096, 5, 2, 1), (4096, 16384, 0, 9, 0)], 20)
        ],
        wall_clock_us=98765.4321,
    )


class TestSerializationRoundTrip:
    def test_golden_field_by_field(self):
        original = full_result()
        decoded = decode_value(json.loads(canonical_json(encode_value(original))))
        assert isinstance(decoded, RunResult)
        original_fields = result_fields(original)
        decoded_fields = result_fields(decoded)
        assert set(original_fields) == set(decoded_fields)
        for name, value in original_fields.items():
            assert decoded_fields[name] == value, f"field {name} drifted"
        # Snapshots must come back as real Snapshot objects, not rows.
        assert isinstance(decoded.snapshots[0], Snapshot)
        assert decoded.snapshots[0].regions[1] == RegionSnapshot(4096, 16384, 0, 9, 0)

    def test_ndarray_and_tuple_round_trip(self):
        value = {
            "curve": np.linspace(0.0, 1.0, 5),
            "pair": (1, "two"),
            "grid": np.arange(6, dtype=np.int64).reshape(2, 3),
        }
        decoded = decode_value(json.loads(canonical_json(encode_value(value))))
        np.testing.assert_array_equal(decoded["curve"], value["curve"])
        np.testing.assert_array_equal(decoded["grid"], value["grid"])
        assert decoded["grid"].dtype == np.int64
        assert decoded["pair"] == (1, "two")

    def test_fingerprint_ignores_wall_clock_only(self):
        a, b = full_result(), full_result()
        b.wall_clock_us = 1.0  # a different host, a different day
        assert fingerprint(a) == fingerprint(b)
        b.runtime_us += 1.0  # any simulated difference must show
        assert fingerprint(a) != fingerprint(b)

    def test_encoding_is_canonical(self):
        assert canonical_json(encode_value(full_result())) == canonical_json(
            encode_value(full_result())
        )


def reference_snapshot_encoding(snapshot):
    """The row-object encoder that predates the column layout, kept
    verbatim (over the row view) as the cache format's reference."""
    return {
        "__daos__": "Snapshot",
        "time_us": snapshot.time_us,
        "max_nr_accesses": snapshot.max_nr_accesses,
        "regions": [
            [r.start, r.end, r.nr_accesses, r.age, r.nr_writes]
            for r in snapshot.regions
        ],
    }


_COUNT = st.integers(min_value=0, max_value=2**31)
_ADDR = st.integers(min_value=0, max_value=2**57)


@st.composite
def snapshots(draw):
    """Random snapshots through the monitor's column constructor: empty
    tables, and a ``nr_writes`` column of zeros half of the time."""
    rows = draw(st.lists(st.tuples(_ADDR, _ADDR, _COUNT, _COUNT, _COUNT), max_size=12))
    if draw(st.booleans()):
        rows = [(s, e, n, a, 0) for s, e, n, a, _ in rows]
    columns = np.array(rows, dtype=np.int64).reshape(len(rows), 5).T
    return Snapshot.from_columns(draw(_COUNT), *columns, draw(_COUNT))


class TestSnapshotColumns:
    @settings(max_examples=200)
    @given(snapshots())
    def test_encoding_matches_row_reference_and_round_trips(self, snapshot):
        encoded = encode_value(snapshot)
        text = canonical_json(encoded)
        assert text == canonical_json(reference_snapshot_encoding(snapshot))
        decoded = decode_value(json.loads(text))
        assert decoded == snapshot
        assert decoded.regions == snapshot.regions
        assert all(isinstance(c, tuple) for c in (decoded.start, decoded.nr_writes))


class TestGoldenEncoding:
    """Pin the canonical text itself — the cache file format."""

    def test_small_result_exact_encoding(self):
        result = RunResult(
            workload="w",
            config="c",
            machine="m",
            seed=1,
            duration_us=10,
            runtime_us=2.5,
            avg_rss_bytes=3.0,
            peak_rss_bytes=4.0,
            avg_system_bytes=5.0,
        )
        expected = (
            '{"__daos__":"RunResult","fields":{'
            '"avg_rss_bytes":3.0,"avg_system_bytes":5.0,"breakdown":{},'
            '"config":"c","duration_us":10,"final_rss_bytes":0.0,'
            '"final_system_bytes":0.0,"machine":"m","monitor_checks":0,'
            '"monitor_cpu_us":0.0,"peak_rss_bytes":4.0,"runtime_us":2.5,'
            '"scheme_stats":{},"seed":1,"snapshots":null,'
            '"trace_summary":null,"wall_clock_us":0.0,"workload":"w"}}'
        )
        assert canonical_json(encode_value(result)) == expected

    def test_point_key_pinned(self):
        point = SweepPoint.make(
            "experiment", {"workload": "w", "config": "c", "seed": 0}
        )
        key = point_key(point, version_tag="test-tag")
        assert key == (
            "134f526fafe31d744bfeddaa22feb12c72492d5c9479a990e6f8750e"
            "cc4074ff"
        )


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = SweepPoint.make("experiment", {"workload": "w"})
        key = point_key(point, version_tag="t")
        result = full_result()
        cache.put(key, encode_value(result), point=point, meta={"wall_s": 1.5})
        value, meta = cache.get(key)
        assert result_fields(value) == result_fields(result)
        assert meta["wall_s"] == 1.5
        assert key in cache
        assert cache.count() == 1

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert "0" * 64 not in cache

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("{ not json")
        assert cache.get(key) is None

    def test_wrong_key_in_payload_treated_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key_a = "aa" + "0" * 62
        key_b = "aa" + "1" * 62
        cache.put(key_a, encode_value(1.0))
        # A file renamed to the wrong address must not be trusted.
        cache.path_for(key_a).rename(cache.path_for(key_b))
        assert cache.get(key_b) is None

    def test_version_tag_changes_key(self):
        point = SweepPoint.make("experiment", {"workload": "w"})
        assert point_key(point, "v1") != point_key(point, "v2")

    def test_params_change_key(self):
        a = SweepPoint.make("experiment", {"workload": "w", "seed": 0})
        b = SweepPoint.make("experiment", {"workload": "w", "seed": 1})
        assert point_key(a, "v") != point_key(b, "v")
