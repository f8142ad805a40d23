"""Cloud cache of hot edge series, fed by snapshots.

:class:`CloudCache` admits hot series (access frequency above the
threshold, bandwidth permitting) by installing a physical snapshot of the
edge series into a mirror store, and evicts the least recently used entry
when it holds more than its capacity.  Nothing writes to the edge store
after a snapshot ships, so an admitted mirror series stays byte-identical
to the edge one and every lookup of it is a hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .codec import I64, U32, U64, Reader, write_blob, write_text
from .errors import MalformedMessage
from .tsstore import SeriesPath, SeriesStore, ValueType, strictly_increasing
from .wire import encode_scalar, read_scalar

__all__ = [
    "AdmissionDecision",
    "CacheEntry",
    "CloudCache",
    "encode_snapshot",
    "decode_snapshot",
]


@dataclass
class AdmissionDecision:
    kind: str                                # none | already_cached | sync_scheduled | deferred | pending
    series: str
    freq: int


@dataclass
class CacheEntry:
    series: str
    last_access: int


class CloudCache:
    """LRU cloud cache over a physical mirror store."""

    def __init__(
        self,
        mirror: SeriesStore,
        tau_hot: int = 3,
        capacity: int = 8,
        bandwidth_ok: Callable[[], bool] = lambda: True,
        sync_requester: Optional[Callable[[str], None]] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.mirror = mirror
        self.tau_hot = tau_hot
        self.capacity = capacity
        self.bandwidth_ok = bandwidth_ok
        self.sync_requester = sync_requester
        self.freq: dict[str, int] = {}
        self.entries: dict[str, CacheEntry] = {}
        self.syncing: set[str] = set()
        self.deferred: set[str] = set()
        self._clock = 0
        self.lookups = 0
        self.hits = 0

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

    def admit_snapshot(self, snapshot: dict) -> Optional[str]:
        """Install a shipped snapshot; returns the evicted series, if any."""
        key = snapshot["series"]
        self.mirror.import_snapshot(snapshot)
        self.entries[key] = CacheEntry(series=key, last_access=self._tick())
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

    # --- lookup -----------------------------------------------------------------

    def cache_lookup(self, series: SeriesPath) -> bool:
        """Hit iff the series is admitted."""
        self.lookups += 1
        hit = str(series) in self.entries
        self.hits += hit
        return hit


# --- snapshot wire codec ------------------------------------------------------------
#
#   snapshot := series u16+utf8 | seq u64
#               | vt_present u8 [vt u8] | last_ts_present u8 [i64] | file_counter u32
#               | file_count u32 | (name u16+utf8 | blob u32+bytes)*
#               | mem_count u32 | (ts i64 | typed scalar)*
#
# ``seq`` is always 0.  Snapshot bytes are counted as link bytes, so the
# field stays until the simulated figures are next re-baselined.

def encode_snapshot(snapshot: dict) -> bytes:
    out = bytearray()
    write_text(out, snapshot["series"])
    out += U64.pack(0)
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


def decode_snapshot(buf: bytes) -> dict:
    """Parse one ``snapshot``; raises MalformedMessage on any grammar violation."""
    r = Reader(buf, MalformedMessage)
    series = r.text()
    seq = r.u64()
    if seq:
        raise r.fail(f"{series}: snapshot seq is {seq}, not 0")
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
    }
