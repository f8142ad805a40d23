"""Cache admission from snapshots, and the snapshot codec."""

import pytest
from conftest import rejections

from ced.coherence import CloudCache, decode_snapshot, encode_snapshot
from ced.tsstore import DataPoint, SeriesPath, SeriesStore, ValueType


# --- admission and lookup ----------------------------------------------------------------

class Harness:
    """Edge store + cache wired directly (no simulator)."""

    def __init__(self, tmp_path):
        self.edge = SeriesStore(tmp_path / "edge")
        self.mirror = SeriesStore(tmp_path / "cloud")
        self.cache = CloudCache(self.mirror)

    def series(self, name):
        return SeriesPath.parse(f"root.ln.edge1.device1.{name}")

    def seed_series(self, name, rows=10):
        s = self.series(name)
        start = self.edge.total_rows(s) if self.edge.has_series(s) else 0
        for i in range(rows):
            self.edge.append(s, DataPoint(start + i, float(i)))
        return s

    def ship_snapshot(self, series):
        self.cache.admit_snapshot(self.edge.export_snapshot(series))


def test_admitted_series_hit_and_others_miss(tmp_path):
    h = Harness(tmp_path)
    t1 = h.seed_series("t1", rows=30)
    h.edge.flush(t1, chunk_target_rows=10)
    h.seed_series("t1", rows=5)                 # rows left in the memtable ship too
    t2 = h.seed_series("t2")
    h.ship_snapshot(t1)
    assert h.mirror.content_fingerprint(t1) == h.edge.content_fingerprint(t1)
    assert h.cache.cache_lookup(t1)
    assert not h.cache.cache_lookup(t2)
    h.ship_snapshot(t2)
    assert h.mirror.content_fingerprint(t2) == h.edge.content_fingerprint(t2)
    assert h.cache.cache_lookup(t1) and h.cache.cache_lookup(t2)
    assert h.cache.entries == {str(t1), str(t2)}
    assert (h.cache.lookups, h.cache.hits) == (4, 3)


def test_never_accessed_series_misses(tmp_path):
    h = Harness(tmp_path)
    s = h.seed_series("t1")
    assert not h.cache.cache_lookup(s)


# --- snapshot codec -------------------------------------------------------------------------

def test_snapshot_codec_roundtrip(tmp_path):
    h = Harness(tmp_path)
    s = h.seed_series("t1", rows=30)
    h.edge.flush(s, chunk_target_rows=10)
    for i in range(30, 35):
        h.edge.append(s, DataPoint(i, float(i)))
    snap = h.edge.export_snapshot(s)
    decoded = decode_snapshot(encode_snapshot(snap))
    assert decoded["series"] == snap["series"]
    assert decoded["mem_ts"] == snap["mem_ts"]
    assert decoded["value_type"] == snap["value_type"]
    assert [n for n, _ in decoded["files"]] == [n for n, _ in snap["files"]]
    assert all(bytes(a) == bytes(b) for (_, a), (_, b) in zip(decoded["files"], snap["files"]))


# --- pinned and malformed snapshot bytes ---------------------------------------------------

_SERIES = "1000 726f6f742e6c6e2e65312e64312e7431"      # series_len u16 | "root.ln.e1.d1.t1"


def _snapshot(value_type, values, files=(("f.cedf", b"\x01\x02\x03"),)):
    return {
        "series": "root.ln.e1.d1.t1",
        "files": list(files),
        "mem_ts": [1000, 2000][:len(values)],
        "mem_values": list(values),
        "value_type": value_type,
        "last_ts": 2000 if values else None,
        "file_counter": len(files),
    }


@pytest.mark.parametrize("value_type,values,rows", [
    (ValueType.BOOL, [True, False], "00 01 | d007000000000000 00 00"),
    (ValueType.INT64, [7, -(2**40)], "01 0700000000000000 | d007000000000000 01 0000000000ffffff"),
    (ValueType.FLOAT64, [1.5, -0.25],
     "02 000000000000f83f | d007000000000000 02 000000000000d0bf"),
    (ValueType.STRING, ["v1", "ü"], "03 02000000 7631 | d007000000000000 03 02000000 c3bc"),
])
def test_snapshot_bytes_are_pinned(value_type, values, rows):
    # series | seq 0 | 1 | vt u8 | 1 | last_ts i64 | file_counter u32 | file_count u32
    # | name_len u16 | "f.cedf" | blob_len u32 | blob | mem_count u32 | (ts i64 | typed scalar)*
    expected = bytes.fromhex((
        f"{_SERIES} 0000000000000000 01 {int(value_type):02x} 01 d007000000000000 01000000 "
        f"01000000 0600 662e63656466 03000000 010203 02000000 e803000000000000 {rows}"
    ).replace("|", ""))
    snapshot = _snapshot(value_type, values)
    assert encode_snapshot(snapshot) == expected
    assert decode_snapshot(expected) == snapshot


def test_snapshot_bytes_without_value_type_or_last_ts_are_pinned():
    # series | seq 0 | absent vt | absent last_ts | file_counter 0 | no files | no rows
    expected = bytes.fromhex(f"{_SERIES} 0000000000000000 00 00 00000000 00000000 00000000")
    snapshot = _snapshot(None, [], files=())
    assert encode_snapshot(snapshot) == expected
    assert decode_snapshot(expected) == snapshot


@pytest.mark.parametrize("value_type,values", [
    (ValueType.STRING, ["v1", "ü"]),
    (ValueType.INT64, [7, -(2**40)]),
], ids=["string", "int64"])
def test_malformed_snapshot_is_rejected(value_type, values):
    sample = encode_snapshot(_snapshot(value_type, values))
    # seq after series (18), which must be 0; value type byte after seq (8) +
    # presence; first scalar tag after last_ts (9) + counters (8) + file (8 + 7)
    # + mem_count (4) + ts (8)
    seq_at = 18
    vt_at = seq_at + 8 + 1
    tag_at = vt_at + 1 + 9 + 8 + 8 + 7 + 4 + 8
    assert rejections(decode_snapshot, sample, [seq_at, vt_at, tag_at]) == []
