"""Wire encodings for everything that crosses the cloud-edge link.

All integers are little-endian; ``|`` joins fields in order and ``[...]``
is present or absent as a whole.  A cell is a presence byte and, when
present, a one-byte type tag (the ValueType) and the value:

    cell     := presence u8 | [tag u8 | value]    (absent iff presence is 0)
    value    := bool u8 (tag 0) or int i64 (1) or float f64 (2)
                or str_len u32 | str utf8 (3)

Each cell is tagged by its value's Python type.  The result checksum
(``ChecksumBuilder`` in ``ced.harness.metrics``) hashes ``ts i64 | cell*`` per
row, one cell per column (``encode_rows``).  A block's cells and the
checksum's rows are packed by ``ced.codec.pack_rows``: a column whose values
share one exact Python type among bool, int, float and str is one layout
column, packed with the others in one cached ``Struct`` call; any other
column, ``None`` cells included, is packed cell by cell (``encode_cells``)
and spliced in, to the same bytes.

Concurrent queries that stream the same suffix, and the runs of a sweep,
send and receive the same blocks.  A block that ``load_chunk_pages`` built
over a decode-memo page (one with ``answers``, see ``ced.tsstore``) is
packed once per page: ``encode_block`` keeps the payload in the page's
answers, with its ``link_memo`` key and seed, and every send of the page
puts the seed back into ``link_memo``.  Any other block (a filter's or a
merge's lists, tuples built elsewhere) is packed on every call and never
seeded.  ``link_memo``, a ``ced.tsstore.RowMemo`` bounded to
``LINK_MEMO_ROWS`` rows (the window of blocks that concurrent streams share)
and kept apart from the store's chunk memo so that chunks and link blocks
never evict each other, holds decoded blocks keyed by what a payload's head
says, ``(series text, value type, row count, first ts, last ts)``.  Each
entry keeps its payload, which a hit must ``==`` (``_decode_data``): each
payload the receiver parsed, so every copy decodes to the same tuples, and
each page's seed, so the receiver parses no page payload and gets the
page's own columns.  A seed is sound because the page passed every check
the decoder makes when its chunk was decoded (its series text parses, its
timestamps are strictly increasing ints, its values a tuple of its value
type's Python type), and its values decode to values of the same types and
bits.  The memo pins a seed's timestamp view as ``decode_memo`` pins its
pages' views.  The memos hand out their own columns: the cloud's producers
send a memoized chunk's page columns, the edge receives a DATA block's
``link_memo`` columns, and ``MergeOp`` passes an aligned block's child
columns on, so concurrent queries present the same objects to the
checksum, which keeps a memo of its own (``digest_memo`` in
``ced.harness.metrics``).

Every decoder of link bytes (tsblocks and messages here, cache snapshots in
``ced.coherence``) reads through ``ced.codec.Reader`` and rejects any
grammar violation with MalformedMessage: a field cut short, bad UTF-8, an
unknown value tag, value type, message type, direction or terminate reason,
an index kind other than 1, bytes left over after the last field,
timestamps of a tsblock that do not strictly increase, a TERMINATE whose
delta presence disagrees with its reason, or a snapshot ``seq`` or
``mem_count`` other than 0.

    channel  := addr_len u8 | addr utf8 | port u16 | fragment_id u32
                | source_id u32 | query_id u64
    index    := kind u8 (always 1) | value i64 (the next timestamp)
    delta    := channel | direction u8 (0 edge->cloud, 1 cloud->edge)
                | sql_len u32 | sql utf8 | index
    tsblock  := series_len u16 | series utf8 | flags u8 (bit0 header-only)
                | value_type u8 | row_count u32 | ts i64 * n | cell * n
    message  := type u8 | channel | payload_len u32 | payload

Message payloads by type:

    1 MIGRATION_REQUEST  sql utf8
    2 CONFIRMATION       fragment_id u32 | source_id u32 | query_id u64
    3 REJECTION          reason utf8
    4 DELTA              delta
    5 PROBE              tsblock (header-only)
    6 ACK                (empty)
    7 DATA               tsblock
    8 CREDIT             (empty)
    9 TERMINATE          reason u8 (0 completed, 1 remigration)
                         | presence u8 | [delta]   (present iff remigration)
   10 CANCEL             reason utf8
"""

from __future__ import annotations

import enum
import functools
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

from .codec import F64, I64, RAW, STR, U8, U16, U32, Reader, pack_rows, write_text
from .errors import MalformedMessage
from .tsstore import BLOCK_ROWS, RowMemo, SeriesPath, TsBlock, ValueType, int64_view, strictly_increasing

__all__ = [
    "ChannelId",
    "Direction",
    "DeltaState",
    "MessageType",
    "Message",
    "encode_cells",
    "encode_rows",
    "encode_block",
    "decode_block",
    "encode_message",
    "decode_message",
]


@dataclass(frozen=True, order=True)
class ChannelId:
    """Five-element stream identity: endpoint, fragment, operator instance, query."""

    address: str
    port: int
    fragment_id: int
    source_id: int
    query_id: int

    def key(self) -> tuple:
        return ("chan", self.address, self.port, self.fragment_id, self.source_id, self.query_id)

    def triple(self) -> tuple[int, int, int]:
        """What a CONFIRMATION echoes back: fragment, source and query ids."""
        return (self.fragment_id, self.source_id, self.query_id)

    def __str__(self) -> str:
        return f"{self.address}:{self.port}/f{self.fragment_id}/s{self.source_id}/q{self.query_id}"


class Direction(enum.IntEnum):
    EDGE_TO_CLOUD = 0
    CLOUD_TO_EDGE = 1


@dataclass(frozen=True)
class DeltaState:
    """Lightweight migration payload: channel identity + SQL + resume index."""

    channel: ChannelId
    sql: str
    logical_index: int          # the first timestamp not yet delivered (``ced.scanops``)
    direction: Direction = Direction.EDGE_TO_CLOUD


class MessageType(enum.IntEnum):
    MIGRATION_REQUEST = 1
    CONFIRMATION = 2
    REJECTION = 3
    DELTA = 4
    PROBE = 5
    ACK = 6
    DATA = 7
    CREDIT = 8
    TERMINATE = 9
    CANCEL = 10


class TerminateReason(enum.IntEnum):
    CLOUD_COMPLETED = 0
    REMIGRATION = 1


@dataclass
class Message:
    type: MessageType
    channel: ChannelId
    sql: Optional[str] = None
    confirmation: Optional[tuple[int, int, int]] = None
    reason: Optional[str] = None
    delta: Optional[DeltaState] = None
    block: Optional[TsBlock] = None
    terminate_reason: Optional[TerminateReason] = None


# --- cells -------------------------------------------------------------------------

_BOOL, _INT64, _FLOAT64, _STRING = (int(vt) for vt in ValueType)
_CELL_INT64 = struct.Struct("<BBq")       # presence, tag, value
_CELL_FLOAT64 = struct.Struct("<BBd")
_CELL_STRING = struct.Struct("<BBI")      # presence, tag, utf-8 length


def _string_cell(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _CELL_STRING.pack(1, _STRING, len(raw)) + raw


# One packer per exact Python type; bool is its own key, so it never packs as int.
_CELL_PACKERS = {
    type(None): lambda _: b"\x00",
    bool: {True: b"\x01\x00\x01", False: b"\x01\x00\x00"}.__getitem__,
    int: functools.partial(_CELL_INT64.pack, 1, _INT64),
    float: functools.partial(_CELL_FLOAT64.pack, 1, _FLOAT64),
    str: _string_cell,
}


def encode_cells(values) -> list[bytes]:
    """One ``cell`` per value, each packed by the value's own type."""
    try:
        return [_CELL_PACKERS[type(v)](v) for v in values]
    except KeyError as exc:
        raise TypeError(f"cannot encode {exc.args[0].__name__}") from None


# ``ced.codec`` layout of a column of cells per exact Python type: presence
# byte and tag, then the value.
_CELL_LAYOUTS = {
    bool: ("?", (1, _BOOL)),
    int: ("q", (1, _INT64)),
    float: ("d", (1, _FLOAT64)),
    str: (STR, (1, _STRING)),
}
_RAW_CELLS = (RAW, ())
_TS = ("q", ())


def _cell_column(values) -> tuple[tuple, Sequence]:
    """The layout of a column of cells, and what ``pack_rows`` packs for it.

    A column whose values share one exact type among bool, int, float and str
    packs its values; any other column (``None`` cells, mixed types, no
    values) packs its cells, encoded one by one.
    """
    types = set(map(type, values))
    layout = _CELL_LAYOUTS.get(types.pop()) if len(types) == 1 else None
    if layout is None:
        return _RAW_CELLS, encode_cells(values)
    return layout, values


def encode_rows(timestamps, columns) -> bytes:
    """``ts i64 | cell*`` per row, one cell per column."""
    layout, values = [_TS], [timestamps]
    for column in columns:
        cells, packed = _cell_column(column)
        layout.append(cells)
        values.append(packed)
    return pack_rows(tuple(layout), values)


def _read_cells(r: Reader, n: int) -> tuple:
    """``n`` cells read from ``r``, as a tuple."""
    values: list = []
    for _ in range(n):
        if not r.u8():
            values.append(None)
            continue
        tag = r.u8()
        if tag == _STRING:
            values.append(r.text(U32))
        elif tag == _FLOAT64:
            values.append(r.unpack(F64)[0])
        elif tag == _INT64:
            values.append(r.i64())
        elif tag == _BOOL:
            values.append(bool(r.u8()))
        else:
            raise r.fail(f"unknown value tag {tag}")
    return tuple(values)


# --- blocks ---------------------------------------------------------------------

_BLOCK_HEAD = struct.Struct("<BBI")        # flags, value_type, row_count

# Most rows the link memo retains: the window of blocks that concurrent
# streams share, not a series a later run re-reads (a larger bound only raises
# peak RSS).
LINK_MEMO_ROWS = 16 * BLOCK_ROWS

# (series, timestamps, values, value type, payload) of DATA payloads sent or
# received
link_memo = RowMemo(LINK_MEMO_ROWS)

# the page-answers key of a decode-memo page's link-memo key and seed
_SEED = "data"


def encode_block(block: TsBlock) -> bytes:
    """The ``tsblock`` bytes of ``block``: packed once per decode-memo page
    (see the module docstring) and on every call for any other block."""
    answers = block.answers
    if answers is None:
        return _pack_block(block)
    seed = answers.get(_SEED)
    if seed is None:
        ts = block.timestamps
        key = (str(block.series_id), block.value_type, block.row_count, ts[0], ts[-1])
        seed = answers[_SEED] = key, (block.series_id, ts, block.values, block.value_type, _pack_block(block))
    key, entry = seed
    if link_memo.get(key) is not entry:
        link_memo.put(key, entry, block.row_count, (entry[1],))
    return entry[4]


def _pack_block(block: TsBlock) -> bytes:
    raw = str(block.series_id).encode("utf-8")
    n, ts = block.row_count, block.timestamps
    # an int64 view already holds the little-endian bytes that struct packs
    raw_ts = ts.tobytes() if int64_view(ts) else struct.pack(f"<{n}q", *ts)
    cells, packed = _cell_column(block.values)
    return b"".join([
        U16.pack(len(raw)),
        raw,
        _BLOCK_HEAD.pack(1 if block.is_header_only else 0, block.value_type, n),
        raw_ts,
        pack_rows((cells,), [packed]),
    ])


def decode_block(buf: bytes) -> tuple[TsBlock, int]:
    """Parse the ``tsblock`` at the start of ``buf``; returns it, over tuples, and its length."""
    r = Reader(buf, MalformedMessage)
    series, header_only, vt, n = _read_block_head(r)
    timestamps = struct.unpack(f"<{n}q", r.take(8 * n))
    if not strictly_increasing(timestamps):
        raise r.fail("tsblock timestamps do not strictly increase")
    values = _read_cells(r, n)
    try:
        return TsBlock(SeriesPath.parse(series), timestamps, values, vt, bool(header_only)), r.pos
    except ValueError as exc:
        raise r.fail(f"invalid tsblock ({exc})") from None


def _read_block_head(r: Reader) -> tuple[str, int, ValueType, int]:
    """A ``tsblock``'s series text, flags, value type and row count."""
    series = r.text()
    header_only, vt, n = r.unpack(_BLOCK_HEAD)
    return series, header_only, r.enum(ValueType, vt, "value type"), n


# --- channel / delta --------------------------------------------------------------

_CHANNEL_FIXED = struct.Struct("<HIIQ")    # port, fragment, source, query
_INDEX = struct.Struct("<Bq")              # kind, value
_INDEX_KIND = 1                            # the only kind: the next timestamp


def encode_channel(out: bytearray, channel: ChannelId) -> None:
    write_text(out, channel.address, U8)
    out += _CHANNEL_FIXED.pack(channel.port, channel.fragment_id, channel.source_id, channel.query_id)


def read_channel(r: Reader) -> ChannelId:
    return ChannelId(r.text(U8), *r.unpack(_CHANNEL_FIXED))


def encode_delta(out: bytearray, delta: DeltaState) -> None:
    encode_channel(out, delta.channel)
    out += U8.pack(int(delta.direction))
    write_text(out, delta.sql, U32)
    out += _INDEX.pack(_INDEX_KIND, delta.logical_index)


def read_delta(r: Reader) -> DeltaState:
    channel = read_channel(r)
    direction = r.enum(Direction, r.u8(), "direction")
    sql = r.text(U32)
    code, index = r.unpack(_INDEX)
    if code != _INDEX_KIND:
        raise r.fail(f"unknown index kind {code}")
    return DeltaState(channel, sql, index, direction)


# --- messages ----------------------------------------------------------------------

_CONFIRMATION = struct.Struct("<IIQ")      # fragment, source, query


def encode_message(msg: Message) -> bytes:
    t = msg.type
    if t is MessageType.MIGRATION_REQUEST:
        payload = (msg.sql or "").encode("utf-8")
    elif t is MessageType.CONFIRMATION:
        payload = _CONFIRMATION.pack(*msg.confirmation)
    elif t in (MessageType.REJECTION, MessageType.CANCEL):
        payload = (msg.reason or "").encode("utf-8")
    elif t is MessageType.DELTA:
        payload = bytearray()
        encode_delta(payload, msg.delta)
    elif t in (MessageType.PROBE, MessageType.DATA):
        payload = encode_block(msg.block)
    elif t is MessageType.TERMINATE:
        payload = bytearray((msg.terminate_reason, msg.delta is not None))
        if msg.delta is not None:
            encode_delta(payload, msg.delta)
    elif t in (MessageType.ACK, MessageType.CREDIT):
        payload = b""
    else:
        raise ValueError(f"unhandled message type {t}")
    head = bytearray(U8.pack(int(t)))
    encode_channel(head, msg.channel)
    head += U32.pack(len(payload))
    return b"".join((head, payload))        # the payload is copied once


def decode_message(buf: bytes) -> Message:
    """Parse one ``message``; raises MalformedMessage on any grammar violation."""
    r = Reader(buf, MalformedMessage)
    t = r.enum(MessageType, r.u8(), "message type")
    msg = Message(t, read_channel(r))
    p = Reader(r.blob(), MalformedMessage)
    r.done()
    if t is MessageType.MIGRATION_REQUEST:
        msg.sql = p.utf8(len(p.buf))
    elif t is MessageType.CONFIRMATION:
        msg.confirmation = p.unpack(_CONFIRMATION)
    elif t in (MessageType.REJECTION, MessageType.CANCEL):
        msg.reason = p.utf8(len(p.buf))
    elif t is MessageType.DELTA:
        msg.delta = read_delta(p)
    elif t is MessageType.PROBE:
        msg.block, p.pos = decode_block(p.buf)
    elif t is MessageType.DATA:
        msg.block = _decode_data(p)
    elif t is MessageType.TERMINATE:
        msg.terminate_reason = p.enum(TerminateReason, p.u8(), "terminate reason")
        if p.u8():
            msg.delta = read_delta(p)
        if (msg.delta is None) is (msg.terminate_reason is TerminateReason.REMIGRATION):
            has = "without" if msg.delta is None else "with"
            raise p.fail(f"{msg.terminate_reason.name} TERMINATE {has} a delta")
    p.done()
    return msg


def _decode_data(p: Reader) -> TsBlock:
    """The block of a whole DATA payload, through ``link_memo``.

    The key is what the block's head and its first and last timestamps say
    it holds, ``(series text, value type, row count, first ts, last ts)``,
    read without hashing the payload, and an entry keeps its payload: a
    lookup hits only when the payload ``==`` it.  A block with rows is
    retained only after the payload decoded to its last byte, or as the seed
    of the decode-memo page it was packed from (``encode_block``), so a hit
    implies every check ``decode_block`` makes.  Each call gets a fresh block over the memo's own
    columns, so every copy of a payload decodes to the same ones.
    """
    series, _, vt, n = _read_block_head(p)        # raises as decode_block would
    key = None
    end = p.pos + 8 * n                            # of the timestamps
    if n and end <= len(p.buf):
        key = (series, vt, n, I64.unpack_from(p.buf, p.pos)[0], I64.unpack_from(p.buf, end - 8)[0])
        entry = link_memo.get(key)
        if entry is not None and entry[4] == p.buf:
            p.pos = len(p.buf)
            return TsBlock(*entry[:4])
    block, p.pos = decode_block(p.buf)
    p.done()
    if key is not None:
        link_memo.put(key, (block.series_id, block.timestamps, block.values, block.value_type, p.buf), n)
    return block
