"""LRU cache admission and delta-pipe replay."""

import random

import pytest
from conftest import rejections

from ced.coherence import (
    ChangeLog,
    CloudCache,
    DeltaPublisher,
    decode_snapshot,
    encode_snapshot,
)
from ced.errors import SequenceGap
from ced.tsstore import DataPoint, SeriesPath, SeriesStore, ValueType
from ced.wire import ChangeBatch, decode_batch

T1 = SeriesPath.parse("root.ln.edge1.device1.t1")


# --- change log + publisher ----------------------------------------------------

def make_edge(tmp_path):
    log = ChangeLog()
    store = SeriesStore(tmp_path / "edge", change_listener=log.on_store_change)
    return store, log


def test_log_assigns_gapless_seqs(tmp_path):
    store, log = make_edge(tmp_path)
    for i in range(5):
        store.append(T1, DataPoint(i, float(i)))
    assert log.current_seq(str(T1)) == 5
    assert [r.seq for r in log.pending(str(T1))] == [1, 2, 3, 4, 5]


def test_publish_batching_arithmetic(tmp_path):
    store, log = make_edge(tmp_path)
    sent = []
    publisher = DeltaPublisher(log, send=lambda series, payload: sent.append(payload), batch_size=100)
    for i in range(1000):
        store.append(T1, DataPoint(i, float(i)))
    assert publisher.capture_and_publish(str(T1)) == 10
    assert len(sent) == 10
    firsts = [decode_batch(p).first_seq for p in sent]
    assert firsts == [1 + 100 * k for k in range(10)]


def test_publish_ordered_queue(tmp_path):
    store, log = make_edge(tmp_path)
    sent = []
    publisher = DeltaPublisher(log, send=lambda s, p: sent.append(decode_batch(p)), batch_size=5)
    for i in range(10):
        store.append(T1, DataPoint(i, float(i)))
    publisher.capture_and_publish(str(T1))
    assert [(b.first_seq, b.last_seq) for b in sent] == [(1, 5), (6, 10)]


def test_publish_gap_detected(tmp_path):
    store, log = make_edge(tmp_path)
    publisher = DeltaPublisher(log, send=lambda s, p: None, batch_size=10)
    for i in range(12):
        store.append(T1, DataPoint(i, float(i)))
    records = log.pending(str(T1))
    with pytest.raises(SequenceGap):
        publisher.capture_and_publish(str(T1), records[1:])      # starts at 2, expected 1
    with pytest.raises(SequenceGap):
        publisher.capture_and_publish(str(T1), records[:3] + records[5:])


# --- cache admission / LRU ---------------------------------------------------------

class Harness:
    """Edge store + log + cache wired directly (no simulator)."""

    def __init__(self, tmp_path, tau_hot=3, capacity=8, bandwidth_ok=None):
        self.log = ChangeLog()
        self.edge = SeriesStore(tmp_path / "edge", change_listener=self.log.on_store_change)
        self.mirror = SeriesStore(tmp_path / "cloud")
        self.sync_requests = []
        self.bandwidth_flag = [True]
        ok = bandwidth_ok or (lambda: self.bandwidth_flag[0])
        self.cache = CloudCache(
            self.mirror, tau_hot=tau_hot, capacity=capacity,
            bandwidth_ok=ok,
            sync_requester=self.sync_requests.append,
            edge_seq=self.log.current_seq,
        )
        self.publisher = DeltaPublisher(
            self.log, send=lambda series, payload: self.cache.replay(decode_batch(payload)),
            batch_size=50,
        )

    def series(self, name):
        return SeriesPath.parse(f"root.ln.edge1.device1.{name}")

    def seed_series(self, name, rows=10):
        s = self.series(name)
        start = self.edge.total_rows(s) if self.edge.has_series(s) else 0
        for i in range(rows):
            self.edge.append(s, DataPoint(start + i, float(i)))
        return s

    def ship_snapshot(self, series):
        snap = self.edge.export_snapshot(series)
        seq = self.log.current_seq(str(series))
        self.log.mark_published(str(series), seq)    # snapshot covers these
        return self.cache.admit_snapshot(snap, seq)


def test_admission_at_threshold_crossing(tmp_path):
    h = Harness(tmp_path, tau_hot=3)
    s = h.seed_series("t1")
    kinds = [h.cache.record_access(s).kind for _ in range(4)]
    assert kinds == ["none", "none", "none", "sync_scheduled"]
    assert h.sync_requests == [str(s)]


def test_admission_deferred_under_saturated_bandwidth(tmp_path):
    h = Harness(tmp_path, tau_hot=3)
    s = h.seed_series("t1")
    h.bandwidth_flag[0] = False
    kinds = [h.cache.record_access(s).kind for _ in range(4)]
    assert kinds[-1] == "deferred"
    assert h.sync_requests == []
    h.bandwidth_flag[0] = True
    assert h.cache.retry_deferred() == [str(s)]
    assert h.sync_requests == [str(s)]


def test_lru_eviction_on_capacity(tmp_path):
    h = Harness(tmp_path, tau_hot=0, capacity=2)
    names = ["t1", "t2", "t3"]
    series = [h.seed_series(n) for n in names]
    for s in series[:2]:
        h.cache.record_access(s)
        h.ship_snapshot(s)
    h.cache.record_access(series[0])            # t1 is now more recent than t2
    h.cache.record_access(series[2])
    evicted = h.ship_snapshot(series[2])
    assert evicted == str(series[1])            # LRU law: minimum last_access goes
    assert set(h.cache.entries) == {str(series[0]), str(series[2])}
    assert not h.mirror.has_series(series[1])


def test_admission_law_never_below_threshold(tmp_path):
    h = Harness(tmp_path, tau_hot=5)
    s = h.seed_series("t1")
    for _ in range(5):
        h.cache.record_access(s)
    assert not h.cache.entries and not h.sync_requests


# --- replay ---------------------------------------------------------------------------

def test_replay_reaches_byte_equality(tmp_path):
    h = Harness(tmp_path, tau_hot=0)
    s = h.seed_series("t1", rows=100)
    h.edge.flush(s, chunk_target_rows=40)
    h.cache.record_access(s)
    h.ship_snapshot(s)
    # post-snapshot mutations stream through the pipe
    for i in range(100, 150):
        h.edge.append(s, DataPoint(i, float(i)))
    h.edge.update_point(s, 120, 9.5)
    h.edge.delete_point(s, 130)
    h.edge.flush(s, chunk_target_rows=25)
    h.publisher.capture_and_publish(str(s))
    assert h.cache.cache_lookup(s)
    assert h.mirror.content_fingerprint(s) == h.edge.content_fingerprint(s)


def test_out_of_order_batches_buffered(tmp_path):
    h = Harness(tmp_path, tau_hot=0)
    s = h.seed_series("t1", rows=10)
    h.cache.record_access(s)
    h.ship_snapshot(s)
    captured = []
    publisher = DeltaPublisher(h.log, send=lambda series, p: captured.append(decode_batch(p)), batch_size=5)
    for i in range(10, 30):
        h.edge.append(s, DataPoint(i, float(i)))
    publisher.capture_and_publish(str(s))
    assert len(captured) == 4
    rng = random.Random(3)
    for order in [list(p) for p in [(1, 0, 3, 2), (3, 2, 1, 0), (0, 2, 1, 3)]]:
        h2 = Harness(tmp_path / f"perm{order[0]}{order[1]}", tau_hot=0)
        s2 = h2.seed_series("t1", rows=10)
        h2.cache.record_access(s2)
        h2.ship_snapshot(s2)
        pub = DeltaPublisher(h2.log, send=lambda series, p: None, batch_size=5)
        for i in range(10, 30):
            h2.edge.append(s2, DataPoint(i, float(i)))
        records = h2.log.pending(str(s2))
        batches = [
            ChangeBatch(str(s2), records[k * 5].seq, records[k * 5 + 4].seq,
                        tuple(records[k * 5:k * 5 + 5]))
            for k in range(4)
        ]
        for idx in order:
            h2.cache.replay(batches[idx])
        assert h2.mirror.content_fingerprint(s2) == h2.edge.content_fingerprint(s2)


def test_duplicate_batch_is_idempotent(tmp_path):
    h = Harness(tmp_path, tau_hot=0)
    s = h.seed_series("t1", rows=5)
    h.cache.record_access(s)
    h.ship_snapshot(s)
    for i in range(5, 10):
        h.edge.append(s, DataPoint(i, float(i)))
    records = h.log.pending(str(s))
    batch = ChangeBatch(str(s), records[0].seq, records[-1].seq, tuple(records))
    h.cache.replay(batch)
    h.cache.replay(batch)
    assert h.mirror.content_fingerprint(s) == h.edge.content_fingerprint(s)


def test_empty_batch_is_noop(tmp_path):
    h = Harness(tmp_path, tau_hot=0)
    s = h.seed_series("t1", rows=5)
    h.cache.record_access(s)
    h.ship_snapshot(s)
    before = h.mirror.content_fingerprint(s)
    h.cache.replay(ChangeBatch(str(s), 6, 5, ()))
    assert h.mirror.content_fingerprint(s) == before


# --- lookup currency ---------------------------------------------------------------------

def test_lookup_miss_until_replay_catches_up(tmp_path):
    h = Harness(tmp_path, tau_hot=0)
    s = h.seed_series("t1", rows=10)
    h.cache.record_access(s)
    h.ship_snapshot(s)
    assert h.cache.cache_lookup(s)
    for i in range(10, 15):
        h.edge.append(s, DataPoint(i, float(i)))     # 5 unreplayed changes
    assert not h.cache.cache_lookup(s)
    assert h.cache.edge_seq(str(s)) - h.cache.entries[str(s)].applied_seq == 5
    h.publisher.capture_and_publish(str(s))
    assert h.cache.cache_lookup(s)


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
    decoded, seq = decode_snapshot(encode_snapshot(snap, h.log.current_seq(str(s))))
    assert seq == 36      # 30 inserts + 1 flush + 5 inserts
    assert decoded["series"] == snap["series"]
    assert decoded["mem_ts"] == snap["mem_ts"]
    assert decoded["value_type"] == snap["value_type"]
    assert [n for n, _ in decoded["files"]] == [n for n, _ in snap["files"]]
    assert all(bytes(a) == bytes(b) for (_, a), (_, b) in zip(decoded["files"], snap["files"]))


def test_replayed_flush_with_another_page_size_is_rejected(tmp_path):
    log = ChangeLog()
    edge = SeriesStore(tmp_path / "edge", page_rows=250, change_listener=log.on_store_change)
    cache = CloudCache(SeriesStore(tmp_path / "cloud"), tau_hot=0)
    for i in range(10):
        edge.append(T1, DataPoint(i, float(i)))
    cache.admit_snapshot(edge.export_snapshot(T1), log.current_seq(str(T1)))
    log.mark_published(str(T1), log.current_seq(str(T1)))
    publisher = DeltaPublisher(log, send=lambda series, p: cache.replay(decode_batch(p)))
    edge.flush(T1)
    with pytest.raises(ValueError, match="page"):
        publisher.capture_and_publish(str(T1))
    assert cache.mirror.memtable_len(T1) == 10          # the mirror did not flush


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
    # series | seq u64 | 1 | vt u8 | 1 | last_ts i64 | file_counter u32 | file_count u32
    # | name_len u16 | "f.cedf" | blob_len u32 | blob | mem_count u32 | (ts i64 | typed scalar)*
    expected = bytes.fromhex((
        f"{_SERIES} 2a00000000000000 01 {int(value_type):02x} 01 d007000000000000 01000000 "
        f"01000000 0600 662e63656466 03000000 010203 02000000 e803000000000000 {rows}"
    ).replace("|", ""))
    snapshot = _snapshot(value_type, values)
    assert encode_snapshot(snapshot, 42) == expected
    assert decode_snapshot(expected) == (snapshot, 42)


def test_snapshot_bytes_without_value_type_or_last_ts_are_pinned():
    # series | seq 0 | absent vt | absent last_ts | file_counter 0 | no files | no rows
    expected = bytes.fromhex(f"{_SERIES} 0000000000000000 00 00 00000000 00000000 00000000")
    snapshot = _snapshot(None, [], files=())
    assert encode_snapshot(snapshot, 0) == expected
    assert decode_snapshot(expected) == (snapshot, 0)


@pytest.mark.parametrize("value_type,values", [
    (ValueType.STRING, ["v1", "ü"]),
    (ValueType.INT64, [7, -(2**40)]),
], ids=["string", "int64"])
def test_malformed_snapshot_is_rejected(value_type, values):
    sample = encode_snapshot(_snapshot(value_type, values), 42)
    # value type byte after series (18) + seq (8) + presence; first scalar tag after
    # ... last_ts (9) + counters (8) + file (8 + 7) + mem_count (4) + ts (8)
    vt_at = 18 + 8 + 1
    tag_at = vt_at + 1 + 9 + 8 + 8 + 7 + 4 + 8
    assert rejections(decode_snapshot, sample, [vt_at, tag_at]) == []
