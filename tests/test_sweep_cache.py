"""Sweep cache: canonical serialization, content addressing, resume.

The golden tests pin the *exact* canonical encoding of a ``RunResult``
— silent schema drift (a renamed field, a changed float format, a
reordered key) must fail loudly here rather than poison caches — and
the layout of a stored entry (header line plus int64 column block).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ParseError
from repro.monitor.snapshot import RegionSnapshot, Snapshot
from repro.runner.results import RunResult
from repro.sweep.cache import ResultCache, point_key
from repro.sweep.grid import SweepGrid, SweepPoint
from repro.sweep.points import register_point_function
from repro.sweep.runner import SweepRunner
from repro.sweep.serialize import (
    canonical_json,
    decode_value,
    encode_value,
    fingerprint,
)

from tests.helpers import cache_files, result_fields


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
    """Pin the canonical text itself (the identity form) and the layout
    of a stored cache entry."""

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


    def test_stored_entry_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        value = {
            "snaps": [
                Snapshot.from_rows(100, [(0, 4096, 5, 2, 1), (4096, 8192, 0, 9, 0)], 20),
                Snapshot.from_rows(200, [], 20),
                Snapshot.from_rows(300, [(8192, 12288, 7, 1, 3)], 20),
            ]
        }
        cache.put(key, value, meta={"wall_s": 0.5})
        header = (
            '{"format":"daos-sweep-v2","key":"' + key + '","fn":null,"params":null,'
            '"meta":{"wall_s":0.5},"block_bytes":120,"result":{"snaps":['
            '{"__daos__":"Snapshot","time_us":100,"max_nr_accesses":20,"rows":[0,2]},'
            '{"__daos__":"Snapshot","time_us":200,"max_nr_accesses":20,"rows":[2,0]},'
            '{"__daos__":"Snapshot","time_us":300,"max_nr_accesses":20,"rows":[2,1]}]}}'
        )
        block = np.array(
            [[0, 4096, 8192], [4096, 8192, 12288], [5, 0, 7], [2, 9, 1], [1, 0, 3]],
            dtype="<i8",
        ).tobytes()
        assert cache.path_for(key).read_bytes() == header.encode("ascii") + b"\n" + block


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = SweepPoint.make("experiment", {"workload": "w"})
        key = point_key(point, version_tag="t")
        result = full_result()
        cache.put(key, result, point=point, meta={"wall_s": 1.5})
        value, meta = cache.get(key)
        assert result_fields(value) == result_fields(result)
        assert meta["wall_s"] == 1.5
        assert cache_files(cache) == [cache.path_for(key)]

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache_files(cache) == []

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
        cache.put(key_a, 1.0)
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


def _rec_shaped(params):
    """A recorded run's shape without the simulation: a ``RunResult``
    whose snapshots (empty region tables included) come from a seeded
    generator; ``huge`` adds a region end outside int64."""
    rng = np.random.default_rng(params["seed"])
    snapshots = [
        Snapshot.from_columns(
            100 * index, *rng.integers(0, 2**40, size=(5, int(rng.integers(0, 9)))), 20
        )
        for index in range(6)
    ]
    if params.get("huge"):
        snapshots.append(Snapshot.from_rows(700, [(0, 2**64, 1, 1, 0)], 20))
    return RunResult(
        workload="parsec3/example",
        config="rec",
        machine="i3.metal",
        seed=params["seed"],
        duration_us=600,
        runtime_us=612.5,
        avg_rss_bytes=4096.0,
        peak_rss_bytes=8192.0,
        avg_system_bytes=4096.0,
        scheme_stats={"0:stat": {"nr_tried": 3}},
        snapshots=snapshots,
    )


register_point_function("test_rec_shaped", _rec_shaped)


def _split(data):
    newline = data.index(b"\n")
    return json.loads(data[:newline]), data[newline + 1 :]


def _join(header, block):
    return json.dumps(header, separators=(",", ":")).encode("ascii") + b"\n" + block


def _wrong_block_count(data, value, draw):
    header, block = _split(data)
    header["block_bytes"] = draw(st.integers(0, 2 * len(block) + 80).filter(
        lambda n: n != len(block)
    ))
    return _join(header, block)


def _row_past_end(data, value, draw):
    header, block = _split(data)
    n_rows = len(block) // 40
    snapshot = draw(st.sampled_from(header["result"]["fields"]["snapshots"]))
    first = draw(st.integers(0, n_rows))
    snapshot["rows"] = [first, n_rows - first + draw(st.integers(1, 5))]
    return _join(header, block)


def _v1_document(data, value, draw):
    # What the previous layout wrote: one JSON document, rows inline.
    header, _ = _split(data)
    del header["block_bytes"]
    header.update(format="daos-sweep-v1", result=encode_value(value))
    return json.dumps(header, separators=(",", ":")).encode("ascii")


def _offset(draw, n):
    # An offset below n whose draw does not depend on n: the header
    # holds a host-time ``wall_s``, so the entry's length varies by run.
    return draw(st.integers(0, 2**20)) % n


#: Ways to break a stored entry: ``(entry bytes, its value, draw) -> bytes``.
CORRUPTIONS = {
    "truncated": lambda data, value, draw: data[: _offset(draw, len(data))],
    "appended": lambda data, value, draw: data + draw(st.binary(min_size=1, max_size=64)),
    "non-utf8-header": lambda data, value, draw: (
        lambda at: data[:at] + b"\xff" + data[at:]
    )(_offset(draw, data.index(b"\n") + 1)),
    "no-newline": lambda data, value, draw: data.replace(b"\n", b"", 1),
    "wrong-block-count": _wrong_block_count,
    "row-past-end": _row_past_end,
    "v1-document": _v1_document,
}


#: Cache values: scalars, snapshots (empty tables included), ndarrays and
#: results with zero or more snapshots, nested in lists, tuples and dicts.
_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | snapshots()
    | hnp.arrays(
        st.sampled_from([np.int64, np.float64]),
        hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3),
    )
    | st.lists(snapshots(), max_size=3).map(
        lambda snaps: RunResult("w", "rec", "m", 0, 1, 1.0, 1.0, 1.0, 1.0, snapshots=snaps)
    ),
    lambda children: st.lists(children, max_size=3)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(
        st.text(max_size=4).filter(lambda k: k != "__daos__"), children, max_size=3
    ),
    max_leaves=10,
)


class TestStoredEntries:
    """The cache's storage form: a broken entry is a miss the runner
    re-executes, and any value round-trips to its canonical identity."""

    @settings(max_examples=60)
    @given(corruption=st.sampled_from(sorted(CORRUPTIONS)), seed=st.integers(0, 3), data=st.data())
    def test_corrupt_entry_is_a_miss_and_reruns(self, corruption, seed, data, tmp_path_factory):
        root = tmp_path_factory.mktemp("cache")
        grid = SweepGrid.from_points("test_rec_shaped", [{"seed": seed}])
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_SWEEP_VERSION_TAG", "corrupt-test")
            cold = SweepRunner(grid, cache_dir=root).run()
            cache = ResultCache(root)
            key = cold.outcomes[0].key
            (path,) = cache_files(cache)
            assert cache.get(key) is not None
            broken = CORRUPTIONS[corruption](path.read_bytes(), cold.values()[0], data.draw)
            path.write_bytes(broken)
            assert cache.get(key) is None
            warm = SweepRunner(grid, cache_dir=root).run()
            assert (warm.n_cached, warm.n_executed, warm.n_failed) == (0, 1, 0)
            assert warm.canonical_json() == cold.canonical_json()
            assert cache.get(key) is not None  # the re-run overwrote the entry

    @settings(max_examples=150)
    @given(value=_VALUES)
    def test_round_trip_matches_canonical_identity(self, value, tmp_path_factory):
        cache = ResultCache(tmp_path_factory.mktemp("cache"))
        key = "ab" + "0" * 62
        cache.put(key, value, meta={"wall_s": 1.0})
        stored, meta = cache.get(key)
        canonical = decode_value(json.loads(canonical_json(encode_value(value))))
        assert fingerprint(stored) == fingerprint(canonical) == fingerprint(value)
        assert meta == {"wall_s": 1.0}

    def test_int64_extremes_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        value = [Snapshot.from_rows(1, [(-(2**63), 2**63 - 1, 0, 1, 2)], 20)]
        cache.put("ab" + "0" * 62, value)
        assert cache.get("ab" + "0" * 62)[0] == value

    @pytest.mark.parametrize("huge", [2**63, -(2**63) - 1, 2**64])
    def test_int_outside_int64_is_refused_before_writing(self, huge, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ParseError, match="int64"):
            cache.put("ab" + "0" * 62, [Snapshot.from_rows(1, [(0, huge, 1, 1, 0)], 20)])
        assert cache_files(cache) == []

    def test_unstorable_point_still_reports(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_VERSION_TAG", "huge-test")
        grid = SweepGrid.from_points("test_rec_shaped", [{"seed": 1, "huge": True}])
        first = SweepRunner(grid, cache_dir=tmp_path).run()
        second = SweepRunner(grid, cache_dir=tmp_path).run()
        assert (first.n_failed, second.n_cached, second.n_executed) == (0, 0, 1)
        assert second.values()[0].snapshots[-1].end == (2**64,)
        assert second.canonical_json() == first.canonical_json()
        assert cache_files(ResultCache(tmp_path)) == []
