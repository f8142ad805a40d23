"""Cache admission from snapshots, the snapshot codec, and shipping a snapshot."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from conftest import content_fingerprint, rejections, total_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from ced import coherence
from ced.coherence import CloudCache, decode_snapshot, encode_snapshot
from ced.errors import CorruptChunk, MalformedMessage
from ced.harness.workload import WorkloadConfig, generate
from ced.tsstore import SeriesPath, SeriesStore, ValueType, _derived

# runs a script against this checkout's ``ced``
_ENV = {**os.environ, "PYTHONPATH": str(Path(coherence.__file__).parents[1])}


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


# --- shipping a snapshot: two copies of the file bytes ----------------------------------------

def _ship(edge, mirror, series):
    """Export ``series`` from ``edge``, send it through the codec and import it
    into ``mirror``; the snapshot, the payload and the decoded snapshot."""
    snapshot = edge.export_snapshot(series)
    payload = encode_snapshot(snapshot)
    decoded = decode_snapshot(payload)
    mirror.import_snapshot(decoded)
    return snapshot, payload, decoded


def _files(store, series):
    return [(h.path.name, h.path.read_bytes()) for h in store._files(series)]


def test_a_shipped_snapshot_peaks_at_its_payload_and_lands_byte_identical(tmp_path):
    h = Harness(tmp_path)
    s = h.series("t3")
    h.edge.flush(s, range(50_000), [i / 7 for i in range(50_000)])
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        snapshot, payload, decoded = _ship(h.edge, h.mirror, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the file bytes are copied into the payload and into the mirror's file, nowhere else
    assert len(payload) > 50_000 * 16
    assert peak - base <= len(payload) + 64 * 1024
    assert _files(h.mirror, s) == _files(h.edge, s)
    for (_, exported), (_, received) in zip(snapshot["files"], decoded["files"]):
        assert exported == received
        assert received.obj is payload
        for blob in (exported, received):
            with pytest.raises(TypeError):
                blob[0] = 0


@pytest.mark.parametrize("size", [0, 10], ids=["empty", "truncated"])
def test_an_empty_or_truncated_store_file_exports_and_its_import_changes_nothing(tmp_path, size):
    h = Harness(tmp_path)
    s = h.seed_series("t1", rows=30, chunk_target_rows=10)
    h.seed_series("t1", rows=5)
    h.ship_snapshot(s)
    before = _files(h.mirror, s)
    broken = h.edge._files(s)[1].path
    broken.write_bytes(broken.read_bytes()[:size])
    snapshot = h.edge.export_snapshot(s)
    assert bytes(snapshot["files"][1][1]) == broken.read_bytes()
    with pytest.raises(CorruptChunk, match="bad magic"):
        h.cache.admit_snapshot(decode_snapshot(encode_snapshot(snapshot)))
    assert _files(h.mirror, s) == before


def test_a_snapshot_imports_into_a_store_sharing_the_exporters_directory(tmp_path):
    """The import writes each file anew, so a file that a live export maps is
    never truncated under it (reading a truncated map kills the process)."""
    script = (
        "import sys\n"
        "from ced.tsstore import SeriesPath, SeriesStore\n"
        "S = SeriesPath.parse('root.ln.e1.d1.t1')\n"
        "edge, twin = SeriesStore(sys.argv[1]), SeriesStore(sys.argv[1])\n"
        "edge.flush(S, range(5000), [float(t) for t in range(5000)])\n"
        "snapshot = edge.export_snapshot(S)\n"
        "twin.import_snapshot(snapshot)\n"
        "assert [bytes(b) for _, b in snapshot['files']] == [h.path.read_bytes() for h in twin._files(S)]\n"
    )
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=_ENV, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_an_exported_snapshot_and_its_decoded_copy_in_a_cycle_are_collected(tmp_path):
    script = (
        "import gc, sys\n"
        "from ced.coherence import decode_snapshot, encode_snapshot\n"
        "from ced.tsstore import SeriesPath, SeriesStore\n"
        "S = SeriesPath.parse('root.ln.e1.d1.t1')\n"
        "edge = SeriesStore(sys.argv[1])\n"
        "for start in (0, 3000):\n"
        "    edge.flush(S, range(start, start + 3000), [float(t) for t in range(3000)])\n"
        "snapshot = edge.export_snapshot(S)\n"
        "decoded = decode_snapshot(encode_snapshot(snapshot))\n"
        "cycle = [snapshot, decoded, snapshot['files'], decoded['files'],\n"
        "         [blob[1:9] for _, blob in snapshot['files'] + decoded['files']]]\n"
        "cycle.append(cycle)\n"
        "snapshot['cycle'] = decoded['cycle'] = cycle\n"
        "del snapshot, decoded, cycle\n"
        "edge.remove_series(S)\n"
        "assert gc.collect() > 0\n"
    )
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=_ENV, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "Exception ignored" not in done.stderr


@st.composite
def _workloads(draw):
    """Four sensors (every value type) in several files of random chunk and page sizes."""
    total = draw(st.integers(1, 3000))
    return WorkloadConfig(
        sensor_count=4,
        sampling_interval_ms=draw(st.integers(1, 5000)),
        total_rows=total,
        seed=draw(st.integers(0, 2**16)),
        chunk_target_rows=draw(st.integers(1, 1500)),
        page_rows=draw(st.sampled_from([1, 7, 250, 1000, 1300])),
        flush_every_rows=draw(st.integers(max(1, total // 6), total)),
    )


@settings(deadline=None)
@given(config=_workloads())
def test_a_shipped_snapshot_rebuilds_the_series_in_the_mirror(tmp_path_factory, config):
    root = tmp_path_factory.mktemp("ship")
    edge = SeriesStore(root / "edge", page_rows=config.page_rows)
    mirror = SeriesStore(root / "cloud")
    dataset = generate(edge, config)
    for s in (dataset.device.child(name) for name, _ in dataset.sensors):
        snapshot, _, decoded = _ship(edge, mirror, s)
        assert {k: v for k, v in decoded.items() if k != "files"} == \
            {k: v for k, v in snapshot.items() if k != "files"}
        assert _derived(mirror._files(s)) == _derived(edge._files(s))
        assert _files(mirror, s) == _files(edge, s) == [(n, bytes(b)) for n, b in decoded["files"]]
        assert len(edge._files(s)) == -(-config.total_rows // config.flush_every_rows)
        assert _scan(mirror, s) == _scan(edge, s)


def _scan(store, series):
    """Every (ts, value) of ``series``, loaded chunk by chunk."""
    return [row for meta in store.chunk_metas(series) for block in store.load_chunk_pages(meta)
            for row in zip(block.timestamps, block.values)]
