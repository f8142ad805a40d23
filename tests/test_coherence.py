"""Cache admission from snapshots, and the snapshot codec."""

import pytest
from conftest import content_fingerprint, rejections, total_rows

from ced.coherence import CloudCache, decode_snapshot, encode_snapshot
from ced.errors import MalformedMessage
from ced.tsstore import SeriesPath, SeriesStore, ValueType


# --- admission and lookup ----------------------------------------------------------------

class Harness:
    """Edge store + cache wired directly (no simulator)."""

    def __init__(self, tmp_path):
        self.edge = SeriesStore(tmp_path / "edge")
        self.mirror = SeriesStore(tmp_path / "cloud")
        self.cache = CloudCache(self.mirror)

    def series(self, name):
        return SeriesPath.parse(f"root.ln.edge1.device1.{name}")

    def seed_series(self, name, rows=10, chunk_target_rows=None):
        s = self.series(name)
        start = total_rows(self.edge, s) if self.edge.has_series(s) else 0
        self.edge.flush(s, range(start, start + rows), [float(i) for i in range(rows)], chunk_target_rows)
        return s

    def ship_snapshot(self, series):
        self.cache.admit_snapshot(self.edge.export_snapshot(series))


def test_admitted_series_hit_and_others_miss(tmp_path):
    h = Harness(tmp_path)
    t1 = h.seed_series("t1", rows=30, chunk_target_rows=10)
    h.seed_series("t1", rows=5, chunk_target_rows=10)
    t2 = h.seed_series("t2")
    assert not h.mirror.series_names()
    h.ship_snapshot(t1)
    assert content_fingerprint(h.mirror, t1) == content_fingerprint(h.edge, t1)
    assert h.cache.cache_lookup(t1)
    assert not h.cache.cache_lookup(t2)
    h.ship_snapshot(t2)
    assert content_fingerprint(h.mirror, t2) == content_fingerprint(h.edge, t2)
    assert h.cache.cache_lookup(t1) and h.cache.cache_lookup(t2)
    assert h.mirror.series_names() == sorted([str(t1), str(t2)])
    assert (h.cache.lookups, h.cache.hits) == (4, 3)


def test_never_accessed_series_misses(tmp_path):
    h = Harness(tmp_path)
    s = h.seed_series("t1")
    assert not h.cache.cache_lookup(s)


# --- snapshot codec -------------------------------------------------------------------------

def test_snapshot_codec_roundtrip(tmp_path):
    h = Harness(tmp_path)
    s = h.seed_series("t1", rows=30, chunk_target_rows=10)
    snap = h.edge.export_snapshot(s)
    decoded = decode_snapshot(encode_snapshot(snap))
    assert decoded["series"] == snap["series"]
    assert decoded["value_type"] == snap["value_type"]
    assert [n for n, _ in decoded["files"]] == [n for n, _ in snap["files"]]
    assert all(bytes(a) == bytes(b) for (_, a), (_, b) in zip(decoded["files"], snap["files"]))


# --- pinned and malformed snapshot bytes ---------------------------------------------------

_SERIES = "1000 726f6f742e6c6e2e65312e64312e7431"      # series_len u16 | "root.ln.e1.d1.t1"


def _snapshot(value_type, last_ts=2000, files=(("f.cedf", b"\x01\x02\x03"),)):
    return {
        "series": "root.ln.e1.d1.t1",
        "files": list(files),
        "value_type": value_type,
        "last_ts": last_ts,
        "file_counter": len(files),
    }


@pytest.mark.parametrize("value_type", list(ValueType), ids=lambda vt: vt.name)
def test_snapshot_bytes_are_pinned(value_type):
    # series | seq 0 | 1 | vt u8 | 1 | last_ts i64 | file_counter u32 | file_count u32
    # | name_len u16 | "f.cedf" | blob_len u32 | blob | mem_count u32 (always 0)
    expected = bytes.fromhex(
        f"{_SERIES} 0000000000000000 01 {int(value_type):02x} 01 d007000000000000 01000000 "
        f"01000000 0600 662e63656466 03000000 010203 00000000"
    )
    snapshot = _snapshot(value_type)
    assert encode_snapshot(snapshot) == expected
    assert decode_snapshot(expected) == snapshot


def test_snapshot_bytes_without_value_type_or_last_ts_are_pinned():
    # series | seq 0 | absent vt | absent last_ts | file_counter 0 | no files | mem_count 0
    expected = bytes.fromhex(f"{_SERIES} 0000000000000000 00 00 00000000 00000000 00000000")
    snapshot = _snapshot(None, None, files=())
    assert encode_snapshot(snapshot) == expected
    assert decode_snapshot(expected) == snapshot


@pytest.mark.parametrize("value_type", [ValueType.STRING, ValueType.INT64], ids=["string", "int64"])
def test_malformed_snapshot_is_rejected(value_type):
    sample = encode_snapshot(_snapshot(value_type))
    # seq after series (18), which must be 0; value type byte after seq (8) +
    # presence; mem_count, which must be 0, after last_ts (9) + counters (8)
    # + file (8 + 7)
    seq_at = 18
    vt_at = seq_at + 8 + 1
    mem_count_at = vt_at + 1 + 9 + 8 + 8 + 7
    assert rejections(decode_snapshot, sample, [seq_at, vt_at, mem_count_at]) == []


@pytest.mark.parametrize("name", ["../escaped.cedf", "sub/f.cedf", "/abs.cedf", "..\\f.cedf",
                                  "f\0.cedf", "", ".", ".."])
def test_a_snapshot_file_name_that_is_not_one_path_component_is_rejected(name):
    buf = encode_snapshot(_snapshot(ValueType.FLOAT64, files=((name, b"\x01\x02\x03"),)))
    with pytest.raises(MalformedMessage, match="not one path component"):
        decode_snapshot(buf)


@pytest.mark.parametrize("series", ["", "root.ln", "top.ln.e1.d1.t1", "root..e1.d1.t1"])
def test_a_snapshot_series_that_does_not_parse_is_rejected(series):
    buf = encode_snapshot(dict(_snapshot(ValueType.FLOAT64), series=series))
    with pytest.raises(MalformedMessage, match="snapshot series"):
        decode_snapshot(buf)


def test_a_snapshot_naming_a_file_outside_the_mirror_writes_nothing(tmp_path):
    cache = CloudCache(SeriesStore(tmp_path / "cloud"))
    buf = encode_snapshot(_snapshot(ValueType.FLOAT64, files=(("../escaped.cedf", b"\x01"),)))
    with pytest.raises(MalformedMessage):
        cache.admit_snapshot(decode_snapshot(buf))
    assert [p.name for p in tmp_path.iterdir()] == ["cloud"]
    assert not cache.mirror.series_names()
