"""Byte-exact round-trips for every wire encoding."""

import struct

import pytest

from ced.errors import MalformedMessage
from ced.scanops import IndexKind, LogicalIndex
from ced.tsstore import SeriesPath, TsBlock, ValueType
from ced.wire import (
    ChangeBatch,
    ChangeRecord,
    ChannelId,
    DeltaState,
    Direction,
    Message,
    MessageType,
    TerminateReason,
    decode_batch,
    decode_block,
    decode_message,
    encode_batch,
    encode_block,
    encode_channel,
    encode_message,
)

S = SeriesPath.parse("root.ln.e1.d1.t1")
CH = ChannelId("cloud", 9000, 1, 2, 77)


def test_channel_key_uniqueness_dimensions():
    base = CH
    assert base.key() != ChannelId("cloud", 9000, 1, 3, 77).key()     # operator
    assert base.key() != ChannelId("cloud", 9000, 2, 2, 77).key()     # fragment
    assert base.key() != ChannelId("cloud", 9000, 1, 2, 78).key()     # query
    assert base.key() != ChannelId("cloud", 9001, 1, 2, 77).key()     # port


@pytest.mark.parametrize("values,vt", [
    ([1.5, 2.5, None], ValueType.FLOAT64),
    (["v1", "v999"], ValueType.STRING),
    ([True, False], ValueType.BOOL),
    ([-(2**40), 2**40], ValueType.INT64),
])
def test_block_roundtrip(values, vt):
    ts = list(range(len(values)))
    block = TsBlock(S, ts, values, vt)
    decoded, consumed = decode_block(encode_block(block))
    assert consumed == len(encode_block(block))
    assert decoded.timestamps == ts
    assert decoded.values == values
    assert decoded.value_type == vt
    assert str(decoded.series_id) == str(S)


def test_header_only_block_roundtrip():
    probe = TsBlock.header_only(S)
    decoded, _ = decode_block(encode_block(probe))
    assert decoded.is_header_only and decoded.row_count == 0


def test_float_bits_survive_roundtrip():
    block = TsBlock(S, [0], [497.44467], ValueType.FLOAT64)
    decoded, _ = decode_block(encode_block(block))
    assert decoded.values[0] == 497.44467          # bit-exact


@pytest.mark.parametrize("msg", [
    Message(MessageType.MIGRATION_REQUEST, CH, sql="SELECT t1 FROM dev WHERE t1='v999'"),
    Message(MessageType.CONFIRMATION, CH, confirmation=(1, 2, 77)),
    Message(MessageType.REJECTION, CH, reason="cache miss"),
    Message(MessageType.DELTA, CH, delta=DeltaState(
        CH, "SELECT t1 FROM dev", LogicalIndex.row_offset(4000), Direction.EDGE_TO_CLOUD)),
    Message(MessageType.PROBE, CH, block=TsBlock.header_only(S)),
    Message(MessageType.ACK, CH),
    Message(MessageType.DATA, CH, block=TsBlock(S, [1, 2], ["a", "b"], ValueType.STRING)),
    Message(MessageType.CREDIT, CH),
    Message(MessageType.TERMINATE, CH, terminate_reason=TerminateReason.CLOUD_COMPLETED),
    Message(MessageType.TERMINATE, CH, terminate_reason=TerminateReason.REMIGRATION,
            delta=DeltaState(CH, "SELECT count(t1) FROM dev GROUP BY 5m",
                             LogicalIndex.window_start(600000), Direction.CLOUD_TO_EDGE)),
    Message(MessageType.CANCEL, CH, reason="handshake timeout"),
])
def test_message_roundtrip(msg):
    decoded = decode_message(encode_message(msg))
    assert decoded.type == msg.type
    assert decoded.channel == msg.channel
    assert decoded.sql == msg.sql
    assert decoded.confirmation == msg.confirmation
    assert decoded.reason == msg.reason
    assert decoded.terminate_reason == msg.terminate_reason
    if msg.delta is not None:
        assert decoded.delta.channel == msg.delta.channel
        assert decoded.delta.sql == msg.delta.sql
        assert decoded.delta.logical_index == msg.delta.logical_index
        assert decoded.delta.direction == msg.delta.direction
    if msg.block is not None:
        assert decoded.block.timestamps == msg.block.timestamps
        assert decoded.block.values == msg.block.values


def test_delta_index_kinds():
    for index in (LogicalIndex.row_offset(12345), LogicalIndex.window_start(86_400_000)):
        msg = Message(MessageType.DELTA, CH, delta=DeltaState(CH, "SELECT t3 FROM dev", index))
        assert decode_message(encode_message(msg)).delta.logical_index == index


def test_change_batch_roundtrip():
    records = (
        ChangeRecord(5, str(S), "insert", {"ts": 100, "value": 2.5}),
        ChangeRecord(6, str(S), "update", {"ts": 100, "value": "vx"}),
        ChangeRecord(7, str(S), "delete", {"ts": 100}),
        ChangeRecord(8, str(S), "flush", {"chunk_target_rows": 4000, "page_rows": 1000}),
    )
    batch = ChangeBatch(str(S), 5, 8, records)
    decoded = decode_batch(encode_batch(batch))
    assert decoded == batch


def test_probe_size_is_stable():
    probe = Message(MessageType.PROBE, CH, block=TsBlock.header_only(S))
    encoded = encode_message(probe)
    assert len(encoded) == len(encode_message(probe))
    # header-only payload: series + flags + type + row count, no row data
    data = Message(MessageType.DATA, CH, block=TsBlock(S, [1], [1.0], ValueType.FLOAT64))
    assert len(encoded) < len(encode_message(data))


# --- pinned DATA block bytes -------------------------------------------------------

# series_len u16 | "root.ln.e1.d1.t1" | flags u8 | value_type u8 | n u32 | ts i64 * 3
_HEADER = "1000 726f6f742e6c6e2e65312e64312e7431 00 {vt:02x} 03000000 " \
          "0000000000000000 e803000000000000 d007000000000000"


@pytest.mark.parametrize("values,vt,cells", [
    ([1.5, None, -0.25], ValueType.FLOAT64,
     "01 02 000000000000f83f | 00 | 01 02 000000000000d0bf"),
    ([7, None, -(2**40)], ValueType.INT64,
     "01 01 0700000000000000 | 00 | 01 01 0000000000ffffff"),
    ([True, None, False], ValueType.BOOL,
     "01 00 01 | 00 | 01 00 00"),
    (["v1", None, "ü"], ValueType.STRING,
     "01 03 02000000 7631 | 00 | 01 03 02000000 c3bc"),
])
def test_block_bytes_are_pinned(values, vt, cells):
    expected = bytes.fromhex((_HEADER.format(vt=int(vt)) + cells).replace("|", ""))
    encoded = encode_block(TsBlock(S, [0, 1000, 2000], values, vt))
    assert encoded == expected
    decoded, consumed = decode_block(encoded)
    assert consumed == len(expected)
    assert decoded.values == values and decoded.value_type == vt


# --- malformed blocks ------------------------------------------------------------

_VT = 2 + len(str(S)) + 1                   # offset of the value_type byte
_CELLS = _VT + 5 + 3 * 8                    # offset of the first cell
_FLOATS = encode_block(TsBlock(S, [0, 1000, 2000], [1.5, 2.5, -0.25], ValueType.FLOAT64))
# cells: "v1" at _CELLS (8 bytes), None at _CELLS + 8, "ü" at _CELLS + 9 (8 bytes)
_STRINGS = encode_block(TsBlock(S, [0, 1000, 2000], ["v1", None, "ü"], ValueType.STRING))


def _patch(buf: bytes, at: int, raw: bytes) -> bytes:
    return buf[:at] + raw + buf[at + len(raw):]


@pytest.mark.parametrize("encoded", [
    _patch(_FLOATS, _CELLS + 11, b"\x09"),                 # unknown tag, 2nd float cell
    _patch(_STRINGS, _CELLS + 1, b"\x07"),                 # unknown tag, 1st string cell
    _patch(_STRINGS, _CELLS + 11, struct.pack("<I", 50)),  # string length past the end
    _FLOATS[:-3],                                          # last cell cut short
    _STRINGS[:_CELLS - 4],                                 # timestamps cut short
    _patch(_FLOATS, _VT, b"\x05"),                         # unknown value type
    _patch(_STRINGS, _CELLS + 6, b"\xc3\x28"),              # invalid utf-8
], ids=["float-tag", "string-tag", "string-past-end", "short-cell",
        "short-timestamps", "value-type", "utf8"])
def test_malformed_block_is_rejected(encoded):
    with pytest.raises(MalformedMessage):
        decode_block(encoded)


def test_intact_blocks_decode():
    assert decode_block(_FLOATS)[0].values == [1.5, 2.5, -0.25]
    assert decode_block(_STRINGS)[0].values == ["v1", None, "ü"]


def test_leftover_bytes_after_the_last_cell_are_rejected():
    head = bytearray([int(MessageType.DATA)])
    encode_channel(head, CH)
    payload = _FLOATS + b"\x00"
    with pytest.raises(MalformedMessage):
        decode_message(bytes(head) + struct.pack("<I", len(payload)) + payload)
    intact = bytes(head) + struct.pack("<I", len(_FLOATS)) + _FLOATS
    assert decode_message(intact).block.values == [1.5, 2.5, -0.25]
