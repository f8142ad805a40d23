"""Cloud cache of warm edge series, fed by snapshots.

:class:`CloudCache` holds exactly the series the scenario warms: each one
arrives as a physical snapshot of the edge series, installed into a mirror
store, and stays for the rest of the run.  Nothing writes to the edge store
after a snapshot ships, so a mirror series stays byte-identical to the
edge one and every lookup of it is a hit.
"""

from __future__ import annotations

from .codec import I64, U32, U64, Reader, write_text
from .errors import MalformedMessage
from .tsstore import SeriesPath, SeriesStore, ValueType

__all__ = [
    "CloudCache",
    "encode_snapshot",
    "decode_snapshot",
]


class CloudCache:
    """The edge series mirrored in the cloud store: the mirror's own series."""

    def __init__(self, mirror: SeriesStore):
        self.mirror = mirror
        self.lookups = 0
        self.hits = 0

    def admit_snapshot(self, snapshot: dict) -> None:
        """Install a shipped snapshot into the mirror."""
        self.mirror.import_snapshot(snapshot)

    def cache_lookup(self, series: SeriesPath) -> bool:
        """Hit iff the mirror holds the series."""
        self.lookups += 1
        hit = self.mirror.has_series(series)
        self.hits += hit
        return hit


# --- snapshot wire codec ------------------------------------------------------------
#
#   snapshot := series u16+utf8 | seq u64
#               | vt_present u8 [vt u8] | last_ts_present u8 [i64] | file_counter u32
#               | file_count u32 | (name u16+utf8 | blob u32+bytes)* | mem_count u32
#
# ``series`` must parse as a SeriesPath and each ``name`` must be one plain
# path component, since the mirror writes the file under that name.
# ``seq`` and ``mem_count`` are always 0: a snapshot carries flushed files
# only.  ``vt``, ``last_ts`` and ``file_counter`` are derived from the files
# on export and checked against them by ``SeriesStore.import_snapshot``,
# which rejects an absent ``vt`` or ``last_ts``.  Snapshot bytes are counted
# as link bytes, so these five fields stay until the simulated figures are
# next re-baselined.

def encode_snapshot(snapshot: dict) -> bytes:
    """One ``snapshot``, joined once from its fields and file blobs, so each
    blob is copied only into the result."""
    head = bytearray()
    write_text(head, snapshot["series"])
    head += U64.pack(0)
    vt = snapshot["value_type"]
    head += b"\x00" if vt is None else bytes((1, vt))
    last_ts = snapshot["last_ts"]
    head += b"\x00" if last_ts is None else b"\x01" + I64.pack(last_ts)
    head += U32.pack(snapshot["file_counter"])
    head += U32.pack(len(snapshot["files"]))
    parts = [head]
    for name, blob in snapshot["files"]:
        name_field = bytearray()
        write_text(name_field, name)
        parts += (name_field, U32.pack(len(blob)), blob)     # write_blob's u32 length, then the blob
    parts.append(U32.pack(0))
    return b"".join(parts)


def decode_snapshot(buf: bytes) -> dict:
    """Parse one ``snapshot``; raises MalformedMessage on any grammar violation."""
    r = Reader(buf, MalformedMessage)
    series = r.text()
    try:
        SeriesPath.parse(series)
    except ValueError as exc:
        raise r.fail(f"snapshot series {series!r}: {exc}") from None
    seq = r.u64()
    if seq:
        raise r.fail(f"{series}: snapshot seq is {seq}, not 0")
    vt = r.enum(ValueType, r.u8(), "value type") if r.u8() else None
    last_ts = r.i64() if r.u8() else None
    file_counter = r.u32()
    files = []
    for _ in range(r.u32()):
        name = r.text()
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise r.fail(f"{series}: snapshot file name {name!r} is not one path component")
        files.append((name, r.blob()))
    mem_count = r.u32()
    if mem_count:
        raise r.fail(f"{series}: snapshot mem_count is {mem_count}, not 0")
    r.done()
    return {
        "series": series,
        "files": files,
        "value_type": vt,
        "last_ts": last_ts,
        "file_counter": file_counter,
    }
