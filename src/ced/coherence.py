"""Cross-tier data state consistency.

Two cooperating pieces:

* :class:`ChangeLog` + :class:`DeltaPublisher` capture every mutation of
  the edge store as gapless per-series sequence numbers and push them to
  the cloud in batches over the link.
* :class:`CloudCache` admits hot series (access frequency above the
  threshold, bandwidth permitting) by installing a physical snapshot into
  a mirror store, then replays change batches in sequence order on top.
  Replay tolerates duplicate and out-of-order batches by buffering, so
  after the stream quiesces the mirror is byte-identical to the edge.

A cache entry is only a valid migration target while its applied sequence
matches the edge's current sequence for that series; any lag turns
lookups into misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .codec import I64, U32, U64, Reader, write_blob, write_text
from .errors import MalformedMessage, SequenceGap
from .tsstore import DataPoint, SeriesPath, SeriesStore, ValueType, strictly_increasing
from .wire import ChangeBatch, ChangeRecord, encode_batch, encode_scalar, read_scalar

__all__ = [
    "ChangeLog",
    "DeltaPublisher",
    "AdmissionDecision",
    "CacheEntry",
    "CloudCache",
    "encode_snapshot",
    "decode_snapshot",
]


class ChangeLog:
    """Edge-side change capture: gapless per-series sequence numbers."""

    def __init__(self) -> None:
        self._records: dict[str, list[ChangeRecord]] = {}
        self._seq: dict[str, int] = {}
        self._published: dict[str, int] = {}

    def on_store_change(self, series: str, op: str, payload: dict) -> ChangeRecord:
        """Store change listener; assigns the next sequence number."""
        seq = self._seq.get(series, 0) + 1
        self._seq[series] = seq
        record = ChangeRecord(seq, series, op, dict(payload))
        self._records.setdefault(series, []).append(record)
        return record

    def current_seq(self, series: str) -> int:
        return self._seq.get(series, 0)

    def published_seq(self, series: str) -> int:
        return self._published.get(series, 0)

    def pending(self, series: str) -> list[ChangeRecord]:
        published = self.published_seq(series)
        return [r for r in self._records.get(series, []) if r.seq > published]

    def mark_published(self, series: str, upto_seq: int) -> None:
        self._published[series] = max(self.published_seq(series), upto_seq)


class DeltaPublisher:
    """Batches pending change records and pushes them to the cloud subscriber."""

    def __init__(
        self,
        log: ChangeLog,
        send: Callable[[str, bytes], None],     # (series, encoded batch) -> enqueue on the pipe
        batch_size: int = 100,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.log = log
        self.send = send
        self.batch_size = batch_size
        self.batches_sent = 0

    def capture_and_publish(self, series: str, records: Optional[list[ChangeRecord]] = None) -> int:
        """Publish ``records`` (default: everything pending) in batch_size groups.

        Sequence numbers must continue exactly where the last publish
        stopped; anything else is a SequenceGap.
        """
        if records is None:
            records = self.log.pending(series)
        if not records:
            return 0
        expected = self.log.published_seq(series) + 1
        if records[0].seq != expected:
            raise SequenceGap(f"{series}: next publishable seq is {expected}, got {records[0].seq}")
        for prev, cur in zip(records, records[1:]):
            if cur.seq != prev.seq + 1:
                raise SequenceGap(f"{series}: records jump from {prev.seq} to {cur.seq}")
        count = 0
        for i in range(0, len(records), self.batch_size):
            group = records[i:i + self.batch_size]
            batch = ChangeBatch(series, group[0].seq, group[-1].seq, tuple(group))
            self.send(series, encode_batch(batch))
            count += 1
        self.log.mark_published(series, records[-1].seq)
        self.batches_sent += count
        return count


@dataclass
class AdmissionDecision:
    kind: str                                # none | already_cached | sync_scheduled | deferred | pending
    series: str
    freq: int
    evicted: Optional[str] = None


@dataclass
class CacheEntry:
    series: str
    admitted_freq: int
    last_access: int
    applied_seq: int
    ready: bool = True
    pending_batches: dict = field(default_factory=dict)   # first_seq -> ChangeBatch


class CloudCache:
    """LRU cloud cache over a physical mirror store, kept fresh by batch replay."""

    def __init__(
        self,
        mirror: SeriesStore,
        tau_hot: int = 3,
        capacity: int = 8,
        bandwidth_ok: Callable[[], bool] = lambda: True,
        sync_requester: Optional[Callable[[str], None]] = None,
        edge_seq: Optional[Callable[[str], int]] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.mirror = mirror
        self.tau_hot = tau_hot
        self.capacity = capacity
        self.bandwidth_ok = bandwidth_ok
        self.sync_requester = sync_requester
        self.edge_seq = edge_seq
        self.freq: dict[str, int] = {}
        self.entries: dict[str, CacheEntry] = {}
        self.syncing: set[str] = set()
        self.deferred: set[str] = set()
        self._clock = 0
        self.lookups = 0
        self.hits = 0
        self.evictions: list[str] = []

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    # --- admission ------------------------------------------------------------

    def record_access(self, series: SeriesPath) -> AdmissionDecision:
        """Count one access; schedule a sync when the series turns hot."""
        key = str(series)
        freq = self.freq.get(key, 0) + 1
        self.freq[key] = freq
        entry = self.entries.get(key)
        if entry is not None:
            entry.last_access = self._tick()
            return AdmissionDecision("already_cached", key, freq)
        if freq <= self.tau_hot:
            return AdmissionDecision("none", key, freq)
        if key in self.syncing:
            return AdmissionDecision("pending", key, freq)
        if not self.bandwidth_ok():
            self.deferred.add(key)
            return AdmissionDecision("deferred", key, freq)
        self._request_sync(key)
        return AdmissionDecision("sync_scheduled", key, freq)

    def _request_sync(self, key: str) -> None:
        self.syncing.add(key)
        self.deferred.discard(key)
        if self.sync_requester is not None:
            self.sync_requester(key)

    def retry_deferred(self) -> list[str]:
        """Re-attempt syncs that were deferred while bandwidth was saturated."""
        started = []
        if not self.bandwidth_ok():
            return started
        for key in sorted(self.deferred):
            self._request_sync(key)
            started.append(key)
        return started

    def admit_snapshot(self, snapshot: dict, seq: int) -> Optional[str]:
        """Install a shipped snapshot; returns the evicted series, if any."""
        key = snapshot["series"]
        self.mirror.import_snapshot(snapshot)
        self.entries[key] = CacheEntry(
            series=key,
            admitted_freq=self.freq.get(key, 0),
            last_access=self._tick(),
            applied_seq=seq,
        )
        self.syncing.discard(key)
        evicted = None
        if len(self.entries) > self.capacity:
            evicted = min(
                (e for k, e in self.entries.items() if k != key),
                key=lambda e: e.last_access,
            ).series
            self._evict(evicted)
        return evicted

    def _evict(self, key: str) -> None:
        self.entries.pop(key, None)
        self.mirror.remove_series(SeriesPath.parse(key))
        self.evictions.append(key)

    # --- replay -----------------------------------------------------------------

    def replay(self, batch: ChangeBatch) -> None:
        """Apply a change batch; out-of-order batches are buffered until the gap fills."""
        entry = self.entries.get(batch.series)
        if entry is None:
            return          # not cached (or already evicted): changes are irrelevant
        entry.pending_batches[batch.first_seq] = batch
        self._drain(entry)

    def _drain(self, entry: CacheEntry) -> None:
        progressed = True
        while progressed:
            progressed = False
            for first_seq in sorted(entry.pending_batches):
                batch = entry.pending_batches[first_seq]
                if batch.last_seq <= entry.applied_seq:
                    del entry.pending_batches[first_seq]      # stale duplicate
                    progressed = True
                    break
                if batch.first_seq <= entry.applied_seq + 1:
                    del entry.pending_batches[first_seq]
                    for record in batch.records:
                        if record.seq > entry.applied_seq:
                            self._apply(record)
                            entry.applied_seq = record.seq
                    progressed = True
                    break

    def _apply(self, record: ChangeRecord) -> None:
        series = SeriesPath.parse(record.series)
        p = record.payload
        if record.op == "insert":
            self.mirror.append(series, DataPoint(p["ts"], p["value"]))
        elif record.op == "update":
            self.mirror.update_point(series, p["ts"], p["value"])
        elif record.op == "delete":
            self.mirror.delete_point(series, p["ts"])
        elif record.op == "flush":
            if p["page_rows"] != self.mirror.page_rows:
                raise ValueError(
                    f"edge page_rows {p['page_rows']} != mirror page_rows {self.mirror.page_rows}"
                )
            self.mirror.flush(series, p["chunk_target_rows"])
        else:
            raise ValueError(f"unsupported change op {record.op!r}")

    # --- lookup -----------------------------------------------------------------

    def cache_lookup(self, series: SeriesPath) -> bool:
        """Hit iff the series is fully admitted and replay has caught up with the edge."""
        self.lookups += 1
        entry = self.entries.get(str(series))
        if entry is None or not entry.ready:
            return False
        if self.edge_seq is not None and entry.applied_seq != self.edge_seq(str(series)):
            return False
        self.hits += 1
        return True


# --- snapshot wire codec ------------------------------------------------------------
#
#   snapshot := series u16+utf8 | seq u64
#               | vt_present u8 [vt u8] | last_ts_present u8 [i64] | file_counter u32
#               | file_count u32 | (name u16+utf8 | blob u32+bytes)*
#               | mem_count u32 | (ts i64 | typed scalar)*

def encode_snapshot(snapshot: dict, seq: int) -> bytes:
    out = bytearray()
    write_text(out, snapshot["series"])
    out += U64.pack(seq)
    vt = snapshot["value_type"]
    out += b"\x00" if vt is None else bytes((1, vt))
    last_ts = snapshot["last_ts"]
    out += b"\x00" if last_ts is None else b"\x01" + I64.pack(last_ts)
    out += U32.pack(snapshot["file_counter"])
    out += U32.pack(len(snapshot["files"]))
    for name, blob in snapshot["files"]:
        write_text(out, name)
        write_blob(out, blob)
    out += U32.pack(len(snapshot["mem_ts"]))
    for ts, value in zip(snapshot["mem_ts"], snapshot["mem_values"]):
        out += I64.pack(ts)
        encode_scalar(out, value)
    return bytes(out)


def decode_snapshot(buf: bytes) -> tuple[dict, int]:
    """Parse one ``snapshot``; raises MalformedMessage on any grammar violation."""
    r = Reader(buf, MalformedMessage)
    series = r.text()
    seq = r.u64()
    vt = r.enum(ValueType, r.u8(), "value type") if r.u8() else None
    last_ts = r.i64() if r.u8() else None
    file_counter = r.u32()
    files = [(r.text(), r.blob()) for _ in range(r.u32())]
    mem_ts, mem_values = [], []
    for _ in range(r.u32()):
        mem_ts.append(r.i64())
        mem_values.append(read_scalar(r))
    r.done()
    if not strictly_increasing(mem_ts):
        raise r.fail(f"{series}: memtable timestamps do not strictly increase")
    return {
        "series": series,
        "files": files,
        "mem_ts": mem_ts,
        "mem_values": mem_values,
        "value_type": vt,
        "last_ts": last_ts,
        "file_counter": file_counter,
    }, seq
