"""Wire encodings for everything that crosses the cloud-edge link.

All integers are little-endian; ``|`` joins fields in order and ``[...]``
is present or absent as a whole.  A typed scalar is a one-byte type tag (the
ValueType) followed by its value; a nullable cell prefixes a presence byte:

    scalar   := tag u8 | value
    value    := bool u8 (tag 0) or int i64 (1) or float f64 (2)
                or str_len u32 | str utf8 (3)
    cell     := presence u8 | [tag u8 | value]    (absent iff presence is 0)

Each cell is tagged by its value's Python type.  The result checksum
(``ChecksumBuilder`` in ``ced.harness.metrics``) hashes ``ts i64 | cell*`` per
row, one cell per column, with the same cell encoder (``encode_cells``).
A tsblock with an unknown tag, a field running past its payload, or bytes
left over after its last cell is rejected with MalformedMessage.

    channel  := addr_len u8 | addr utf8 | port u16 | fragment_id u32
                | source_id u32 | query_id u64
    index    := kind u8 (0 row offset, 1 window start) | value i64
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
                         | presence u8 | [delta]
   10 CANCEL             reason utf8

Change-data batches (the delta streaming pipe):

    batch    := series_len u16 | series utf8 | first_seq u64 | last_seq u64
                | record_count u32 | (record_len u32 | record) *
    record   := seq u64 | op u8 (0 insert, 1 delete, 2 update, 3 flush) | body
    insert/update body := ts i64 | typed scalar
    delete body        := ts i64
    flush body         := chunk_target_rows u32 | page_rows u32
"""

from __future__ import annotations

import enum
import functools
import struct
from dataclasses import dataclass
from typing import Optional

from .errors import MalformedMessage
from .scanops import IndexKind, LogicalIndex
from .tsstore import SeriesPath, TsBlock, ValueType

__all__ = [
    "ChannelId",
    "Direction",
    "DeltaState",
    "MessageType",
    "Message",
    "ChangeRecord",
    "ChangeBatch",
    "encode_scalar",
    "decode_scalar",
    "encode_cells",
    "encode_block",
    "decode_block",
    "encode_message",
    "decode_message",
    "encode_batch",
    "decode_batch",
]

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_CHANNEL_FIXED = struct.Struct("<HIIQ")   # port, fragment, source, query


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
    """Lightweight migration payload: channel identity + SQL + logical index."""

    channel: ChannelId
    sql: str
    logical_index: LogicalIndex
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


@dataclass(frozen=True)
class ChangeRecord:
    seq: int
    series: str
    op: str                  # insert | delete | update | flush
    payload: dict


@dataclass(frozen=True)
class ChangeBatch:
    series: str
    first_seq: int
    last_seq: int
    records: tuple[ChangeRecord, ...]


# --- cells and scalars ---------------------------------------------------------

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
    """One ``cell`` per value, each packed by the value's own type, not a column's."""
    try:
        return [_CELL_PACKERS[type(v)](v) for v in values]
    except KeyError as exc:
        raise TypeError(f"cannot encode {exc.args[0].__name__}") from None


def encode_scalar(out: bytearray, value) -> None:
    """Typed scalar with tag byte: a present cell without its presence byte."""
    if value is None:
        raise TypeError("cannot encode NoneType")
    out += encode_cells((value,))[0][1:]


def decode_scalar(buf: bytes, pos: int) -> tuple[object, int]:
    (value,), pos = _decode_cells(buf, pos, 1, nullable=False)
    return value, pos


def _decode_cells(buf: bytes, pos: int, n: int, nullable: bool = True) -> tuple[list, int]:
    """Sequential parse of ``n`` cells (``nullable``) or typed scalars.

    The returned position may lie past the end of ``buf`` when a string
    length does; the caller compares it with the payload length.
    """
    values: list = []
    append = values.append
    unpack_u32, unpack_i64, unpack_f64 = _U32.unpack_from, _I64.unpack_from, _F64.unpack_from
    for _ in range(n):
        if nullable:
            if not buf[pos]:
                append(None)
                pos += 1
                continue
            pos += 1
        tag = buf[pos]
        if tag == _STRING:
            end = pos + 5 + unpack_u32(buf, pos + 1)[0]
            append(buf[pos + 5:end].decode("utf-8"))
            pos = end
        elif tag == _FLOAT64:
            append(unpack_f64(buf, pos + 1)[0])
            pos += 9
        elif tag == _INT64:
            append(unpack_i64(buf, pos + 1)[0])
            pos += 9
        elif tag == _BOOL:
            append(bool(buf[pos + 1]))
            pos += 2
        else:
            raise MalformedMessage(f"unknown value tag {tag} at byte {pos}")
    return values, pos


# --- blocks ---------------------------------------------------------------------

_BLOCK_HEAD = struct.Struct("<BBI")        # flags, value_type, row_count


def encode_block(block: TsBlock) -> bytes:
    raw = str(block.series_id).encode("utf-8")
    n = block.row_count
    return b"".join([
        _U16.pack(len(raw)),
        raw,
        _BLOCK_HEAD.pack(1 if block.is_header_only else 0, block.value_type, n),
        struct.pack(f"<{n}q", *block.timestamps),
        *encode_cells(block.values),
    ])


def decode_block(buf: bytes, pos: int = 0) -> tuple[TsBlock, int]:
    """Parse one ``tsblock``; raises MalformedMessage on any grammar violation."""
    try:
        (series_len,) = _U16.unpack_from(buf, pos)
        pos += 2
        series = SeriesPath.parse(buf[pos:pos + series_len].decode("utf-8"))
        pos += series_len
        header_only, vt, n = _BLOCK_HEAD.unpack_from(buf, pos)
        vt = ValueType(vt)
        pos += _BLOCK_HEAD.size
        timestamps = list(struct.unpack_from(f"<{n}q", buf, pos))
        pos += 8 * n
        end = pos + 10 * n
        if (
            buf[pos:end:10] == b"\x01" * n
            and buf[pos + 1:end:10] == bytes([_FLOAT64]) * n
        ):
            # stride 10 holds present-FLOAT64 at every cell: exactly the bytes a
            # sequential parse would read, so unpack them in one pass
            values = [v for _, _, v in _CELL_FLOAT64.iter_unpack(buf[pos:end])]
            pos = end
        else:
            values, pos = _decode_cells(buf, pos, n)
        if pos > len(buf):
            raise MalformedMessage(f"cell runs {pos - len(buf)} bytes past the payload end")
        return TsBlock(series, timestamps, values, vt, is_header_only=bool(header_only)), pos
    except (IndexError, ValueError, struct.error) as exc:
        raise MalformedMessage(f"malformed tsblock: {exc}") from exc


# --- channel / delta --------------------------------------------------------------

def encode_channel(out: bytearray, channel: ChannelId) -> None:
    raw = channel.address.encode("utf-8")
    out += _U8.pack(len(raw))
    out += raw
    out += _CHANNEL_FIXED.pack(channel.port, channel.fragment_id, channel.source_id, channel.query_id)


def decode_channel(buf: bytes, pos: int) -> tuple[ChannelId, int]:
    ln = buf[pos]
    pos += 1
    address = buf[pos:pos + ln].decode("utf-8")
    pos += ln
    port, fragment, source, query = _CHANNEL_FIXED.unpack_from(buf, pos)
    return ChannelId(address, port, fragment, source, query), pos + _CHANNEL_FIXED.size


def encode_delta(delta: DeltaState) -> bytes:
    out = bytearray()
    encode_channel(out, delta.channel)
    out += _U8.pack(int(delta.direction))
    raw = delta.sql.encode("utf-8")
    out += _U32.pack(len(raw))
    out += raw
    out += _U8.pack(0 if delta.logical_index.kind is IndexKind.ROW_OFFSET else 1)
    out += _I64.pack(delta.logical_index.value)
    return bytes(out)


def decode_delta(buf: bytes, pos: int = 0) -> tuple[DeltaState, int]:
    channel, pos = decode_channel(buf, pos)
    direction = Direction(buf[pos])
    pos += 1
    (ln,) = _U32.unpack_from(buf, pos)
    pos += 4
    sql = buf[pos:pos + ln].decode("utf-8")
    pos += ln
    kind = IndexKind.ROW_OFFSET if buf[pos] == 0 else IndexKind.WINDOW_START
    pos += 1
    (value,) = _I64.unpack_from(buf, pos)
    return DeltaState(channel, sql, LogicalIndex(kind, value), direction), pos + 8


# --- messages ----------------------------------------------------------------------

def encode_message(msg: Message) -> bytes:
    payload = bytearray()
    t = msg.type
    if t is MessageType.MIGRATION_REQUEST:
        payload += (msg.sql or "").encode("utf-8")
    elif t is MessageType.CONFIRMATION:
        fragment, source, query = msg.confirmation
        payload += struct.pack("<IIQ", fragment, source, query)
    elif t in (MessageType.REJECTION, MessageType.CANCEL):
        payload += (msg.reason or "").encode("utf-8")
    elif t is MessageType.DELTA:
        payload += encode_delta(msg.delta)
    elif t in (MessageType.PROBE, MessageType.DATA):
        payload += encode_block(msg.block)
    elif t is MessageType.TERMINATE:
        payload += _U8.pack(int(msg.terminate_reason))
        if msg.delta is not None:
            payload += b"\x01"
            payload += encode_delta(msg.delta)
        else:
            payload += b"\x00"
    elif t in (MessageType.ACK, MessageType.CREDIT):
        pass
    else:
        raise ValueError(f"unhandled message type {t}")
    out = bytearray()
    out += _U8.pack(int(t))
    encode_channel(out, msg.channel)
    out += _U32.pack(len(payload))
    out += payload
    return bytes(out)


def decode_message(buf: bytes) -> Message:
    t = MessageType(buf[0])
    channel, pos = decode_channel(buf, 1)
    (ln,) = _U32.unpack_from(buf, pos)
    pos += 4
    payload = buf[pos:pos + ln]
    msg = Message(t, channel)
    if t is MessageType.MIGRATION_REQUEST:
        msg.sql = payload.decode("utf-8")
    elif t is MessageType.CONFIRMATION:
        msg.confirmation = struct.unpack("<IIQ", payload)
    elif t in (MessageType.REJECTION, MessageType.CANCEL):
        msg.reason = payload.decode("utf-8")
    elif t is MessageType.DELTA:
        msg.delta, _ = decode_delta(payload)
    elif t in (MessageType.PROBE, MessageType.DATA):
        msg.block, end = decode_block(payload)
        if end != len(payload):
            raise MalformedMessage(f"{len(payload) - end} bytes left after the last cell")
    elif t is MessageType.TERMINATE:
        msg.terminate_reason = TerminateReason(payload[0])
        if payload[1]:
            msg.delta, _ = decode_delta(payload, 2)
    return msg


# --- change batches -----------------------------------------------------------------

_OP_CODES = {"insert": 0, "delete": 1, "update": 2, "flush": 3}
_OP_NAMES = {v: k for k, v in _OP_CODES.items()}


def _encode_record(record: ChangeRecord) -> bytes:
    out = bytearray()
    out += _U64.pack(record.seq)
    out += _U8.pack(_OP_CODES[record.op])
    p = record.payload
    if record.op in ("insert", "update"):
        out += _I64.pack(p["ts"])
        encode_scalar(out, p["value"])
    elif record.op == "delete":
        out += _I64.pack(p["ts"])
    else:
        out += _U32.pack(p["chunk_target_rows"])
        out += _U32.pack(p["page_rows"])
    return bytes(out)


def _decode_record(buf: bytes, series: str) -> ChangeRecord:
    (seq,) = _U64.unpack_from(buf, 0)
    op = _OP_NAMES[buf[8]]
    pos = 9
    if op in ("insert", "update"):
        (ts,) = _I64.unpack_from(buf, pos)
        value, _ = decode_scalar(buf, pos + 8)
        payload = {"ts": ts, "value": value}
    elif op == "delete":
        (ts,) = _I64.unpack_from(buf, pos)
        payload = {"ts": ts}
    else:
        chunk_target, page_rows = struct.unpack_from("<II", buf, pos)
        payload = {"chunk_target_rows": chunk_target, "page_rows": page_rows}
    return ChangeRecord(seq, series, op, payload)


def encode_batch(batch: ChangeBatch) -> bytes:
    out = bytearray()
    raw = batch.series.encode("utf-8")
    out += _U16.pack(len(raw))
    out += raw
    out += _U64.pack(batch.first_seq)
    out += _U64.pack(batch.last_seq)
    out += _U32.pack(len(batch.records))
    for record in batch.records:
        encoded = _encode_record(record)
        out += _U32.pack(len(encoded))
        out += encoded
    return bytes(out)


def decode_batch(buf: bytes) -> ChangeBatch:
    (series_len,) = _U16.unpack_from(buf, 0)
    pos = 2 + series_len
    series = buf[2:pos].decode("utf-8")
    (first_seq,) = _U64.unpack_from(buf, pos)
    (last_seq,) = _U64.unpack_from(buf, pos + 8)
    (count,) = _U32.unpack_from(buf, pos + 16)
    pos += 20
    records = []
    for _ in range(count):
        (ln,) = _U32.unpack_from(buf, pos)
        pos += 4
        records.append(_decode_record(buf[pos:pos + ln], series))
        pos += ln
    return ChangeBatch(series, first_seq, last_seq, tuple(records))
