"""Columnar time-series storage: files of chunks of pages of rows.

One store owns a directory and holds immutable ``.cedf`` files only: each
``flush`` writes a run of one series' rows as one file of one or more chunks,
and the series gains the file only once it is written.  Readers iterate
chunk metadata (from the file footer index) without touching page data, and
load a chunk's pages on demand, repackaged into TsBlocks of at most
``BLOCK_ROWS`` rows.

A series is its list of files, and nothing else: its value type is its
first chunk's, its last timestamp its last chunk's ``max_ts``, and its file
counter the number of its files.  The invariant is that a known series has
at least one file, every file at least one chunk, the i-th file is named
``{series}__{i:06d}.cedf``, and every chunk names the series, has the
series' one value type and lies wholly after the chunk before it.  ``flush``
keeps it by construction.  ``import_snapshot`` is the one place files come
in from outside, and checks it once, on the blobs' indexes and each entry's
chunk header, before it writes or removes anything; it also checks that the
value type, last timestamp and file counter a snapshot declares are the ones
its files imply.  A snapshot that breaks any rule is CorruptChunk, with the
store unchanged.  ``copy_series`` copies a series of another store, which holds
the invariant already.

On-disk format (all integers little-endian):

    file   := header chunk* index footer
    header := magic "CEDF" | version u16
    chunk  := series_len u16 | series utf8 | value_type u8
              | page_count u32 | row_count u32 | min_ts i64 | max_ts i64
              | page*
    page   := row_count u32 | min_ts i64 | max_ts i64 | ts i64 * n | column
    column := BOOL u8 * n | INT64 i64 * n | FLOAT64 f64 * n
              | STRING len u32 * n + utf8 bodies, concatenated
    index  := entry_count u32 | entry*
    entry  := series_len u16 | series utf8 | chunk_offset u64 | byte_len u32
              | value_type u8 | row_count u32 | min_ts i64 | max_ts i64
    footer := index_offset u64 | magic "CEDF"

A page holds its ``n`` rows as two columns: timestamps, then values.  The
fields are ``ced.codec``'s, and each column is one ``ced.codec`` layout,
written by one ``pack_rows`` call (a STRING column's lengths, followed by
its bodies) and read by one ``rows_struct`` unpack, made only after both
columns' bytes are known to be there.  A STRING page's bodies are decoded
as one UTF-8 blob and sliced by the lengths' running sums; when the blob is
not all ASCII, each body is decoded on its own, so a character split across
two bodies is an error.  Bytes that break this grammar (a file of another
version, a field cut short, an unknown value type, a chunk header that
disagrees with its index entry, chunk or page bounds or row counts that
disagree with the rows, rows out of timestamp order) raise CorruptChunk.  Timestamps are integer milliseconds and strictly increase
within a series.  No timestamp is above ``MAX_TS`` (``2**63 - 2``), so the
one after any row, a scan leaf's resume index (``ced.scanops``), is an i64:
``flush`` refuses a row above it (OutOfOrderTimestamp), and an index entry
above it is CorruptChunk.

Timestamp order is checked once, by ``strictly_increasing``, where rows
enter the program: ``flush`` (OutOfOrderTimestamp), a decoded
chunk (CorruptChunk) and, in ``ced.wire`` and ``ced.coherence``, decoded
link bytes (MalformedMessage).  A TsBlock built from those rows does not
check it again.

Decoded chunks are memoized process-wide, in an LRU (``decode_memo``, a
``RowMemo``) keyed by what the chunk's index entry says it holds, ``(series,
value type, row count, min ts, max ts, byte length)``, not by the file that
holds it, so every store holding equal chunk bytes (a ``copy_series`` copy, an
imported snapshot) shares one entry and a sweep decodes each chunk once per
process.  The LRU is bounded to ``DECODE_MEMO_ROWS`` retained rows, the
working set of a query over two whole series (see its comment).  An entry
keeps the bytes it decoded, and a load hits only when the bytes it read
``==`` them (hashing fresh bytes as a key would cost more), so an entry never
goes stale and a hit implies every check the decode made; other bytes under
the key (a file imported again, another store's equal-shaped chunk) are
decoded and replace the entry.  Every load still reads the chunk's bytes and
is charged in ``IoStats``; only the decode is skipped.

An entry holds the chunk's ``BLOCK_ROWS``-row pages, built once, by the miss.
A page's timestamps are a slice of one read-only int64 ``memoryview`` over
the chunk's timestamp bytes, joined from its pages (8 bytes a row, where an
int held in a tuple costs about 48), and its values are a tuple.  Each page
also carries its answers, one dict made with the page: what a scan operator
computed from the page's columns, kept under a key naming the question, so
every later scan of the page (a concurrent query, the next run of a sweep)
reads it instead of computing it again.  ``ced.scanops`` keeps two kinds:
an equality filter's matching row positions, and the maximum of a row range
of the values.  The answers live and die with their entry, and an entry that
replaces it starts with empty ones.  ``load_chunk_pages``, the one loader,
wraps the pages in fresh TsBlocks, so every load of one chunk hands out the
very same columns and answers.  No block can
change them: a view over ``bytes`` and a tuple reject writes, and the entry
holds a buffer export of each page's view, so ``release()`` on a view raises
``BufferError`` instead of breaking later loads.  So a later layer can tell
them apart from equal ones by identity (``frozen_column``; ``ced.wire``'s
``pack_memo``, the checksum's ``digest_memo``).  The view reads the files'
little-endian bytes in the host's byte order, so the module refuses to
import on a big-endian host.
``ced.wire`` keeps two more ``RowMemo``s under a smaller bound of their own,
one of packed DATA blocks and one of decoded DATA blocks, so chunks and link
blocks never evict each other; ``ced.harness.metrics`` keeps one of result
digest states.
"""

from __future__ import annotations

import enum
import operator
import os
import shutil
import struct
import sys
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from itertools import accumulate, islice, pairwise
from pathlib import Path
from typing import Optional, Sequence, Union

from .codec import U16, U32, Reader, pack_rows, rows_struct, write_text
from .errors import CorruptChunk, OutOfOrderTimestamp, StorageIoError, UnknownSeries

__all__ = [
    "BLOCK_ROWS",
    "MAX_TS",
    "ValueType",
    "SeriesPath",
    "TsBlock",
    "ChunkMeta",
    "TsFileHandle",
    "ChunkIterator",
    "IoStats",
    "SeriesStore",
    "strictly_increasing",
    "int64_view",
    "frozen_column",
    "DECODE_MEMO_ROWS",
    "RowMemo",
    "decode_memo",
]

BLOCK_ROWS = 1000
MAX_TS = 2**63 - 2       # the greatest timestamp the store holds

# Most decoded rows the process keeps for later loads of equal chunk bytes:
# two whole series of a 50,000-row dataset in 4,000-row chunks (26 chunks,
# 100,000 rows: Q3's t1 and t3, or ``bandwidth_sweep``'s), or the six
# 20,000-row sensors ``cache_sweep`` reads, so the runs of a sweep, each with
# its own copies of one dataset, re-read its working set without a miss.  A
# row costs its timestamp's 8 bytes and its value.  The bound is per process,
# not per store: a finished run's stores can stay alive until a cyclic
# garbage collection.
DECODE_MEMO_ROWS = 130 * BLOCK_ROWS

MAGIC = b"CEDF"
VERSION = 2                 # pages of columns; _file_index rejects any other

_CHUNK_FIXED = struct.Struct("<BIIqq")   # value_type, page_count, row_count, min_ts, max_ts
_PAGE_FIXED = struct.Struct("<Iqq")      # row_count, min_ts, max_ts
_INDEX_FIXED = struct.Struct("<QIBIqq")  # offset, byte_len, value_type, row_count, min_ts, max_ts
_FOOTER = struct.Struct("<Q4s")          # index_offset, magic


def _require_little_endian(byteorder: str) -> None:
    """Refuse a host whose int64 views would misread the files' little-endian timestamps."""
    if byteorder != "little":
        raise ImportError(
            "ced.tsstore needs a little-endian host: decoded timestamps are int64 views over the "
            f"files' little-endian bytes, read in the host's byte order, and this host is {byteorder}-endian"
        )


_require_little_endian(sys.byteorder)


class ValueType(enum.IntEnum):
    BOOL = 0
    INT64 = 1
    FLOAT64 = 2
    STRING = 3


Scalar = Union[bool, int, float, str]

# ``ced.codec`` layouts of a page's two columns; "?" packs truth as a 0/1 byte
# and reads any nonzero byte as True, and a STRING column packs its lengths
_TS_COLUMN = (("q", ()),)
_VALUE_COLUMNS = {
    vt: ((code, ()),)
    for vt, code in (
        (ValueType.BOOL, "?"), (ValueType.INT64, "q"), (ValueType.FLOAT64, "d"), (ValueType.STRING, "I"),
    )
}

_SCALAR_CLASSES = (
    (bool, ValueType.BOOL),             # before int: bool is an int subclass
    (int, ValueType.INT64),
    (float, ValueType.FLOAT64),
    (str, ValueType.STRING),
)


def _value_type_of_class(cls: type) -> ValueType:
    for base, vt in _SCALAR_CLASSES:
        if issubclass(cls, base):
            return vt
    raise TypeError(f"unsupported scalar type: {cls.__name__}")


def value_type_of(value: Scalar) -> ValueType:
    return _value_type_of_class(type(value))


@dataclass(frozen=True, order=True)
class SeriesPath:
    """Dot-separated hierarchical identifier, e.g. root.ln.edge1.device1.t3."""

    segments: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.segments) < 3:
            raise ValueError(f"series path needs >= 3 segments: {self.segments}")
        if self.segments[0] != "root":
            raise ValueError(f"series path must start with 'root': {self.segments}")
        if any(not s for s in self.segments):
            raise ValueError("empty path segment")

    @classmethod
    def parse(cls, text: str) -> "SeriesPath":
        return cls(tuple(text.split(".")))

    def child(self, segment: str) -> "SeriesPath":
        return SeriesPath(self.segments + (segment,))

    def __str__(self) -> str:
        return ".".join(self.segments)


def strictly_increasing(timestamps: Sequence[int]) -> bool:
    """The one timestamp-order check, made where rows enter the program."""
    if type(timestamps) is memoryview:       # a list's items compare faster than a view's
        timestamps = timestamps.tolist()
    return all(map(operator.lt, timestamps, islice(timestamps, 1, None)))


def int64_view(column: Sequence) -> bool:
    """Whether ``column`` is a one-dimensional native int64 ``memoryview``."""
    return type(column) is memoryview and column.format == "q" and column.ndim == 1


def frozen_column(column: Sequence) -> bool:
    """Whether nothing can change ``column``: a tuple, or an int64 view over
    ``bytes`` (a decoded chunk's timestamps)."""
    return type(column) is tuple or (int64_view(column) and type(column.obj) is bytes)


@dataclass
class TsBlock:
    """Columnar batch of at most BLOCK_ROWS rows; the atomic transfer unit.

    Its timestamps strictly increase; that is checked where the rows enter
    the program, not here.  The columns are read-only: tuples or read-only
    int64 views from a memo or a decoder (a loaded chunk's page, whose
    timestamps are a view; a received DATA block, which may hold its sender's
    page columns), lists when an operator built them.

    ``answers`` is the decode-memo page's dict of answers (see the module
    docstring) on a block ``load_chunk_pages`` built, and None on every other
    block.  Its answers hold for the page's columns, which the block carries
    and no consumer replaces.  It takes no part in ``==`` or ``repr``.
    """

    series_id: SeriesPath
    timestamps: Sequence[int]
    values: Sequence
    value_type: ValueType
    is_header_only: bool = False
    answers: Optional[dict] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.timestamps)
        if n != len(self.values):
            raise ValueError("timestamps and values length mismatch")
        if n > BLOCK_ROWS:
            raise ValueError(f"TsBlock over capacity: {n} rows")
        if n == 0 and not self.is_header_only:
            raise ValueError("empty TsBlock must be header-only")
        if self.is_header_only and n != 0:
            raise ValueError("header-only TsBlock must carry no rows")

    @property
    def row_count(self) -> int:
        return len(self.timestamps)

    @classmethod
    def header_only(cls, series_id: SeriesPath, value_type: ValueType = ValueType.INT64) -> "TsBlock":
        return cls(series_id, [], [], value_type, is_header_only=True)


@dataclass(frozen=True)
class ChunkMeta:
    """Index record for one chunk; everything needed to locate and skim it."""

    series: str
    file_path: Path
    offset: int
    byte_len: int
    value_type: ValueType
    row_count: int
    min_ts: int
    max_ts: int
    # always None; kept because perfbench/tracer.py keys each load by id(meta.mem_rows)
    mem_rows: None = None


@dataclass
class TsFileHandle:
    path: Path
    chunk_index: list[ChunkMeta]


@dataclass
class IoStats:
    """Cumulative read-side accounting, used by the simulator to charge disk time."""

    bytes_read: int = 0
    chunks_loaded: int = 0
    chunks_decoded: int = 0    # loads that missed the decode memo


# --- page columns ------------------------------------------------------------

def _encode_rows(out: bytearray, vt: ValueType, timestamps: Sequence[int], values: Sequence) -> None:
    out += pack_rows(_TS_COLUMN, (timestamps,))
    if vt is not ValueType.STRING:
        out += pack_rows(_VALUE_COLUMNS[vt], (values,))
        return
    bodies = list(map(str.encode, values))
    out += pack_rows(_VALUE_COLUMNS[vt], (list(map(len, bodies)),))
    out += b"".join(bodies)


def _read_rows(r: Reader, vt: ValueType, n: int, values: list) -> bytes:
    """Append the values of the ``n`` rows at the cursor; their timestamps'
    bytes.  Bounds checked per column."""
    layout = _VALUE_COLUMNS[vt]
    raw_ts = r.take(n * rows_struct(_TS_COLUMN, 1).size)   # bounds first: n may be corrupt
    raw_values = r.take(n * rows_struct(layout, 1).size)
    column = rows_struct(layout, n).unpack(raw_values)
    if vt is not ValueType.STRING:
        values += column
        return raw_ts
    offsets = list(accumulate(column, initial=0))
    blob = r.take(offsets[-1])
    spans = zip(offsets, islice(offsets, 1, None))
    try:
        text = blob.decode("utf-8")
        if len(text) == len(blob):      # all ASCII: a body's bytes are its characters
            values += [text[a:b] for a, b in spans]
        else:                           # a character split across two bodies fails here
            values += [blob[a:b].decode("utf-8") for a, b in spans]
    except UnicodeDecodeError as exc:
        raise r.fail(f"string body not utf-8 ({exc.reason})") from None
    return raw_ts


def _encode_chunk(
    out: bytearray, series: str, vt: ValueType,
    timestamps: Sequence[int], values: Sequence, page_rows: int,
) -> None:
    n = len(timestamps)
    write_text(out, series)
    out += _CHUNK_FIXED.pack(int(vt), -(-n // page_rows), n, timestamps[0], timestamps[-1])
    for p0 in range(0, n, page_rows):
        p1 = min(p0 + page_rows, n)
        out += _PAGE_FIXED.pack(p1 - p0, timestamps[p0], timestamps[p1 - 1])
        _encode_rows(out, vt, timestamps[p0:p1], values[p0:p1])


def _chunk_header(r: Reader, meta: ChunkMeta) -> int:
    """Read the chunk header at the cursor, check it against ``meta``; its page count."""
    series = r.text()
    vt_raw, page_count, row_count, min_ts, max_ts = r.unpack(_CHUNK_FIXED)
    vt = r.enum(ValueType, vt_raw, "value type")
    head = (series, vt, row_count, min_ts, max_ts)
    if head != (meta.series, meta.value_type, meta.row_count, meta.min_ts, meta.max_ts):
        raise r.fail(f"chunk header (series, type, rows, min_ts, max_ts) {head} disagrees with {meta}")
    return page_count


def _decode_chunk(buf: bytes, meta: ChunkMeta) -> tuple[memoryview, tuple]:
    """The chunk's two columns, checked against its header, its pages'
    headers and ``meta``: its timestamps as a read-only int64 view over their
    bytes, joined from its pages, and its values as a tuple."""
    r = Reader(buf, CorruptChunk)
    page_count = _chunk_header(r, meta)
    series, vt, row_count = meta.series, meta.value_type, meta.row_count
    raw_ts: list[bytes] = []
    values: list = []
    for _ in range(page_count):
        n, pmin, pmax = r.unpack(_PAGE_FIXED)
        raw = _read_rows(r, vt, n, values)
        page = memoryview(raw).cast("q")
        if n == 0 or page[0] != pmin or page[-1] != pmax:
            raise r.fail(f"{series}: page bounds [{pmin}, {pmax}] disagree with its {n} rows")
        raw_ts.append(raw)
    r.done()
    timestamps = memoryview(b"".join(raw_ts)).cast("q")
    if len(timestamps) != row_count:
        raise CorruptChunk(f"{series}: chunk declares {row_count} rows, decoded {len(timestamps)}")
    if not strictly_increasing(timestamps):
        raise CorruptChunk(f"{series}: chunk rows out of timestamp order")
    if not timestamps or (timestamps[0], timestamps[-1]) != (meta.min_ts, meta.max_ts):
        raise CorruptChunk(f"{series}: chunk bounds [{meta.min_ts}, {meta.max_ts}] disagree with its rows")
    return timestamps, tuple(values)


def _series_path(text: str) -> SeriesPath:
    try:
        return SeriesPath.parse(text)
    except ValueError as exc:
        raise CorruptChunk(f"{text}: {exc}") from None


# a chunk's (series, value type, rows, min ts, max ts, byte length), a DATA
# payload's (series text, value type, n, first ts, last ts), a block's (series,
# value type, first ts, last ts, n), or a result block's (digest before it,
# first ts, last ts, column count)
_MemoKey = tuple
# (series, timestamps, pages, bytes, pins), each page (timestamps, values,
# answers), or (series, timestamps, values, value
# type, payload), (payload, timestamps, values) or (hash state, timestamps,
# *columns): the second field holds one entry per retained row
_Columns = tuple


class RowMemo:
    """LRU of columns, bounded by the rows it retains (see module docstring)."""

    def __init__(self, max_rows: int):
        self.max_rows = max_rows
        self.rows = 0
        self._entries: OrderedDict[_MemoKey, _Columns] = OrderedDict()

    def get(self, key: _MemoKey) -> Optional[_Columns]:
        columns = self._entries.get(key)
        if columns is not None:
            self._entries.move_to_end(key)
        return columns

    def put(self, key: _MemoKey, columns: _Columns) -> None:
        """Retain ``columns`` as the newest entry, replacing any under ``key``."""
        old = self._entries.pop(key, None)
        if old is not None:
            self.rows -= len(old[1])
        n = len(columns[1])
        if n > self.max_rows:
            return
        while self.rows + n > self.max_rows:
            self.rows -= len(self._entries.popitem(last=False)[1][1])
        self._entries[key] = columns
        self.rows += n

    def clear(self) -> None:
        self._entries.clear()
        self.rows = 0


decode_memo = RowMemo(DECODE_MEMO_ROWS)


class ChunkIterator:
    """Forward iterator over chunk metadata, ascending min_ts, metadata-only until loaded."""

    def __init__(self, metas: list[ChunkMeta]):
        self._metas = metas
        self._pos = 0

    def has_next(self) -> bool:
        return self._pos < len(self._metas)

    def peek(self) -> ChunkMeta:
        return self._metas[self._pos]

    def advance(self) -> ChunkMeta:
        meta = self._metas[self._pos]
        self._pos += 1
        return meta


def _file_name(series: str, i: int) -> str:
    """Name of the ``i``-th file of ``series``; ``flush`` writes it and the import checks it."""
    return f"{series}__{i:06d}.cedf"


def _derived(files: list[TsFileHandle]) -> dict:
    """A series' value type, last timestamp and file counter, read off its files."""
    return {
        "value_type": files[0].chunk_index[0].value_type,
        "last_ts": files[-1].chunk_index[-1].max_ts,
        "file_counter": len(files),
    }


class SeriesStore:
    """Directory-backed store of immutable flushed files, one or more per series."""

    def __init__(
        self,
        root: Union[str, Path],
        chunk_target_rows: int = 4000,
        page_rows: int = 1000,
    ):
        if chunk_target_rows < 1 or page_rows < 1:
            raise ValueError("chunk_target_rows and page_rows must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.chunk_target_rows = chunk_target_rows
        self.page_rows = page_rows
        self.io = IoStats()
        self._series: dict[str, list[TsFileHandle]] = {}

    # --- write path ---------------------------------------------------------

    def _files(self, series: SeriesPath) -> list[TsFileHandle]:
        files = self._series.get(str(series))
        if files is None:
            raise UnknownSeries(str(series))
        return files

    def flush(
        self,
        series: SeriesPath,
        timestamps: Sequence[int],
        values: Sequence,
        chunk_target_rows: Optional[int] = None,
    ) -> TsFileHandle:
        """Write a run of rows, given as two columns, as one file of
        chunk_target-row chunks, all or nothing.

        Timestamps must strictly increase, within the run and after the
        series' last one, up to ``MAX_TS``, and every value must have the
        series' one value type; each check is made once for the whole run.
        The series gains the file only once it is written.
        """
        n = len(timestamps)
        if n != len(values):
            raise ValueError("timestamps and values length mismatch")
        key = str(series)
        if n == 0:
            raise StorageIoError(f"{key}: flush of no rows")
        files = self._series.get(key, [])
        if files:
            last = files[-1].chunk_index[-1]
            if timestamps[0] <= last.max_ts:
                raise OutOfOrderTimestamp(f"{key}: ts {timestamps[0]} <= last {last.max_ts}")
            vt = last.value_type
        else:
            vt = value_type_of(values[0])
        if not strictly_increasing(timestamps):
            t0, t1 = next(p for p in zip(timestamps, islice(timestamps, 1, None)) if p[1] <= p[0])
            raise OutOfOrderTimestamp(f"{key}: ts {t1} <= last {t0}")
        if timestamps[-1] > MAX_TS:
            raise OutOfOrderTimestamp(f"{key}: ts {timestamps[-1]} > MAX_TS {MAX_TS}")
        for run_vt in {_value_type_of_class(cls) for cls in set(map(type, values))}:
            if run_vt is not vt:
                raise TypeError(f"{key}: value type changed from {vt.name} to {run_vt.name}")

        chunk_rows = chunk_target_rows or self.chunk_target_rows
        path = self.root / _file_name(key, len(files))
        out = bytearray(MAGIC)
        out += U16.pack(VERSION)
        index: list[ChunkMeta] = []
        for c0 in range(0, n, chunk_rows):
            c1 = min(c0 + chunk_rows, n)
            offset = len(out)
            _encode_chunk(out, key, vt, timestamps[c0:c1], values[c0:c1], self.page_rows)
            index.append(ChunkMeta(
                key, path, offset, len(out) - offset, vt, c1 - c0, timestamps[c0], timestamps[c1 - 1]
            ))
        index_offset = len(out)
        out += U32.pack(len(index))
        for meta in index:
            write_text(out, meta.series)
            out += _INDEX_FIXED.pack(
                meta.offset, meta.byte_len, int(meta.value_type),
                meta.row_count, meta.min_ts, meta.max_ts,
            )
        out += _FOOTER.pack(index_offset, MAGIC)
        try:
            path.write_bytes(bytes(out))
        except OSError as exc:
            raise StorageIoError(f"writing {path}: {exc}") from exc

        handle = TsFileHandle(path, index)
        self._series.setdefault(key, []).append(handle)
        return handle

    # --- read path ------------------------------------------------------------

    def has_series(self, series: SeriesPath) -> bool:
        return str(series) in self._series

    def series_names(self) -> list[str]:
        return sorted(self._series)

    def value_type(self, series: SeriesPath) -> ValueType:
        return self._files(series)[0].chunk_index[0].value_type

    def time_bounds(self, series: SeriesPath) -> tuple[int, int]:
        """(min_ts, max_ts) of the series: its first and last chunk's."""
        files = self._files(series)
        return files[0].chunk_index[0].min_ts, files[-1].chunk_index[-1].max_ts

    def chunk_metas(self, series: SeriesPath) -> list[ChunkMeta]:
        """All chunk metadata, in file order, which is ascending time order."""
        return [m for h in self._files(series) for m in h.chunk_index]

    def open_chunk_iterator(self, series: SeriesPath) -> ChunkIterator:
        """Iterator over the series' chunks, metadata-only access."""
        return ChunkIterator(self.chunk_metas(series))

    def load_chunk_pages(self, meta: ChunkMeta) -> list[TsBlock]:
        """Load one chunk, charged in ``IoStats``, as fresh TsBlocks over the
        ``decode_memo`` entry's pages of <= BLOCK_ROWS rows (a hit hands out
        the miss's columns and answers)."""
        buf = self._read_chunk_bytes(meta)
        key = (meta.series, meta.value_type, meta.row_count, meta.min_ts, meta.max_ts, meta.byte_len)
        entry = decode_memo.get(key)
        if entry is None or entry[3] != buf:
            timestamps, values = _decode_chunk(buf, meta)
            pages = tuple(
                (timestamps[b0:b0 + BLOCK_ROWS], values[b0:b0 + BLOCK_ROWS], {})
                for b0 in range(0, len(timestamps), BLOCK_ROWS)
            )
            # An unconsumed ``struct.iter_unpack`` holds a buffer export of the
            # view it reads, so ``release()`` on a handed-out page view raises
            # BufferError.  (``pickle.PickleBuffer`` would do the same, but
            # importing pickle adds about 0.4 MiB to each process's RSS.)
            pins = tuple(struct.iter_unpack("<q", ts) for ts, _, _ in pages)
            entry = (_series_path(meta.series), timestamps, pages, buf, pins)
            self.io.chunks_decoded += 1
            decode_memo.put(key, entry)
        series, _, pages, *_ = entry
        vt = meta.value_type
        return [TsBlock(series, timestamps, values, vt, answers=answers) for timestamps, values, answers in pages]

    def _read_chunk_bytes(self, meta: ChunkMeta) -> bytes:
        try:
            fd = os.open(meta.file_path, os.O_RDONLY)
            try:
                buf = os.pread(fd, meta.byte_len, meta.offset)
            finally:
                os.close(fd)
        except OSError as exc:
            raise StorageIoError(f"reading {meta.file_path}: {exc}") from exc
        if len(buf) != meta.byte_len:
            raise CorruptChunk(f"{meta.file_path}: short read at offset {meta.offset}")
        self.io.bytes_read += meta.byte_len
        self.io.chunks_loaded += 1
        return buf

    # --- replication helpers ----------------------------------------------------

    def export_snapshot(self, series: SeriesPath) -> dict:
        """Full physical state of one series: its file blobs, and what they imply."""
        files = self._files(series)
        blobs = []
        for handle in files:
            try:
                blobs.append((handle.path.name, handle.path.read_bytes()))
            except OSError as exc:
                raise StorageIoError(f"reading {handle.path}: {exc}") from exc
        return {"series": str(series), "files": blobs, **_derived(files)}

    def import_snapshot(self, snapshot: dict) -> None:
        """Install a snapshot produced by :meth:`export_snapshot` (replaces the series).

        Every check of the invariant (see module docstring) is made on the
        blobs before anything is written or removed, so a rejected snapshot
        (CorruptChunk) leaves the store as it was.
        """
        key = snapshot["series"]
        series = SeriesPath.parse(key)
        if not snapshot["files"]:
            raise CorruptChunk(f"{key}: snapshot of no files")
        handles = []
        for i, (name, blob) in enumerate(snapshot["files"]):
            if name != _file_name(key, i):
                raise CorruptChunk(f"{key}: snapshot file {i} is {name!r}, not {_file_name(key, i)!r}")
            path = self.root / name
            index = _file_index(blob, path)
            if not index:
                raise CorruptChunk(f"{path}: file of no chunks")
            for meta in index:
                _chunk_header(Reader(blob, CorruptChunk, meta.offset), meta)
            handles.append(TsFileHandle(path, index))
        metas = [m for h in handles for m in h.chunk_index]
        if any(m.series != key for m in metas):
            raise CorruptChunk(f"{key}: snapshot holds a chunk of another series")
        if len({m.value_type for m in metas}) != 1:
            raise CorruptChunk(f"{key}: snapshot chunks of more than one value type")
        if any(m.min_ts > m.max_ts for m in metas) or any(a.max_ts >= b.min_ts for a, b in pairwise(metas)):
            raise CorruptChunk(f"{key}: snapshot chunks out of timestamp order")
        derived = _derived(handles)
        declared = {name: snapshot[name] for name in derived}
        if declared != derived:
            raise CorruptChunk(f"{key}: snapshot declares {declared}, its files imply {derived}")

        self.remove_series(series)
        for handle, (_, blob) in zip(handles, snapshot["files"]):
            try:
                handle.path.write_bytes(blob)
            except OSError as exc:
                raise StorageIoError(f"writing {handle.path}: {exc}") from exc
        self._series[key] = handles

    def copy_series(self, series: SeriesPath, target: "SeriesStore") -> None:
        """Give ``target`` a copy of ``series``: its files copied into
        target's directory (replaces the series there)."""
        files = self._files(series)
        target.remove_series(series)
        handles = []
        for handle in files:
            path = target.root / handle.path.name
            try:
                shutil.copyfile(handle.path, path)
            except OSError as exc:
                raise StorageIoError(f"copying {handle.path} to {path}: {exc}") from exc
            handles.append(TsFileHandle(path, [replace(m, file_path=path) for m in handle.chunk_index]))
        target._series[str(series)] = handles

    def remove_series(self, series: SeriesPath) -> None:
        for handle in self._series.pop(str(series), ()):
            try:
                handle.path.unlink(missing_ok=True)
            except OSError as exc:
                raise StorageIoError(f"removing {handle.path}: {exc}") from exc

    def snapshot_size_bytes(self, series: SeriesPath) -> int:
        return sum(h.path.stat().st_size for h in self._files(series))


def _file_index(buf: bytes, path: Path) -> list[ChunkMeta]:
    """The chunk index of the file bytes ``buf``, which live at ``path``."""
    footer = len(buf) - _FOOTER.size
    if footer < 0 or buf[:4] != MAGIC or buf[-4:] != MAGIC:
        raise CorruptChunk(f"{path}: bad magic")
    version = U16.unpack_from(buf, len(MAGIC))[0]
    if version != VERSION:
        raise CorruptChunk(f"{path}: format version {version}, not {VERSION}")
    r = Reader(buf, CorruptChunk, footer)
    index_offset = r.pos = r.u64()
    metas: list[ChunkMeta] = []
    for _ in range(r.u32()):
        series = r.text()
        offset, byte_len, vt_raw, rows, mn, mx = r.unpack(_INDEX_FIXED)
        vt = r.enum(ValueType, vt_raw, "value type")
        if offset + byte_len > index_offset:
            raise r.fail(f"{path}: chunk at {offset} runs past the index")
        if mx > MAX_TS:
            raise r.fail(f"{path}: chunk at {offset} has max_ts {mx} > MAX_TS {MAX_TS}")
        metas.append(ChunkMeta(series, path, offset, byte_len, vt, rows, mn, mx))
    if r.pos != footer:
        raise r.fail(f"{path}: index does not end at the footer")
    return metas
