"""Byte-exact round-trips for every wire encoding."""

import os
import random
import struct
import subprocess
import sys
from itertools import accumulate
from pathlib import Path
from unittest.mock import patch

import pytest
from conftest import TABLE_II, ScriptedChild, make_scenario, rejections, run
from hypothesis import given, settings
from hypothesis import strategies as st

from ced import scanops, wire
from ced.codec import Reader
from ced.coherence import decode_snapshot, encode_snapshot
from ced.errors import MalformedMessage
from ced.harness.metrics import DIGEST_MEMO_ROWS, ChecksumBuilder, digest_memo
from ced.harness.scenario import QuerySpec
from ced.scanops import NOT_READY, AggregationScanOp, FilterOp, ResultBlock, SeriesScanOp, WindowSpec
from ced.tsstore import DECODE_MEMO_ROWS, MAX_TS, SeriesPath, SeriesStore, TsBlock, ValueType, decode_memo
from ced.wire import (
    LINK_MEMO_ROWS,
    ChannelId,
    DeltaState,
    Direction,
    Message,
    MessageType,
    TerminateReason,
    decode_block,
    decode_message,
    encode_block,
    encode_cells,
    encode_channel,
    encode_message,
    link_memo,
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
    assert decoded.timestamps == tuple(ts)
    assert decoded.values == tuple(values)
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
        CH, "SELECT t1 FROM dev", 4000, Direction.EDGE_TO_CLOUD)),
    Message(MessageType.PROBE, CH, block=TsBlock.header_only(S)),
    Message(MessageType.ACK, CH),
    Message(MessageType.DATA, CH, block=TsBlock(S, [1, 2], ["a", "b"], ValueType.STRING)),
    Message(MessageType.CREDIT, CH),
    Message(MessageType.TERMINATE, CH, terminate_reason=TerminateReason.CLOUD_COMPLETED),
    Message(MessageType.TERMINATE, CH, terminate_reason=TerminateReason.REMIGRATION,
            delta=DeltaState(CH, "SELECT count(t1) FROM dev GROUP BY 5m",
                             600000, Direction.CLOUD_TO_EDGE)),
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
        assert list(decoded.block.timestamps) == list(msg.block.timestamps)
        assert list(decoded.block.values) == list(msg.block.values)


@pytest.mark.parametrize("kind", ["series", "aggregation"])
def test_the_index_a_leaf_exports_after_the_last_timestamp_round_trips(tmp_path, kind):
    store = SeriesStore(tmp_path)
    store.flush(S, [0, MAX_TS], [1.5, 2.5])
    if kind == "series":
        leaf = SeriesScanOp(store, S)
    else:
        lo, hi = store.time_bounds(S)
        leaf = AggregationScanOp(store, S, WindowSpec(lo, hi + 1, 2**62), "count")   # hi as planned
    while leaf.next_block() is not None:
        pass
    index = leaf.export_index()
    assert index == MAX_TS + 1 == 2**63 - 1
    msg = Message(MessageType.DELTA, CH, delta=DeltaState(CH, "SELECT t1 FROM dev", index))
    assert decode_message(encode_message(msg)).delta.logical_index == index


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
    assert decoded.values == tuple(values) and decoded.value_type == vt


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


@pytest.mark.parametrize("stamps", [(0, 2000, 1000), (0, 1000, 1000)], ids=["swapped", "repeated"])
def test_data_block_out_of_timestamp_order_is_rejected(stamps):
    encoded = _patch(_FLOATS, _CELLS - 24, struct.pack("<3q", *stamps))
    with pytest.raises(MalformedMessage, match="timestamp"):
        decode_block(encoded)
    head = bytearray([int(MessageType.DATA)])
    encode_channel(head, CH)
    with pytest.raises(MalformedMessage, match="timestamp"):
        decode_message(bytes(head) + struct.pack("<I", len(encoded)) + encoded)


def test_intact_blocks_decode():
    assert decode_block(_FLOATS)[0].values == (1.5, 2.5, -0.25)
    assert decode_block(_STRINGS)[0].values == ("v1", None, "ü")


def test_leftover_bytes_after_the_last_cell_are_rejected():
    head = bytearray([int(MessageType.DATA)])
    encode_channel(head, CH)
    payload = _FLOATS + b"\x00"
    with pytest.raises(MalformedMessage):
        decode_message(bytes(head) + struct.pack("<I", len(payload)) + payload)
    intact = bytes(head) + struct.pack("<I", len(_FLOATS)) + _FLOATS
    assert decode_message(intact).block.values == (1.5, 2.5, -0.25)


# --- pinned message bytes ------------------------------------------------------------

# addr_len u8 | "cloud" | port u16 | fragment_id u32 | source_id u32 | query_id u64
_CHANNEL = "05 636c6f7564 2823 01000000 02000000 4d00000000000000"
_SQL = "53454c4543542074312046524f4d20646576"          # "SELECT t1 FROM dev", 18 bytes
_SERIES = "1000 726f6f742e6c6e2e65312e64312e7431"       # series_len u16 | "root.ln.e1.d1.t1"
_SERIES_INDEX, _WINDOW = 4000, 600000        # a chunk's max_ts + 1, a window start
_INDEX = {_SERIES_INDEX: "01 a00f000000000000", _WINDOW: "01 c027090000000000"}    # kind u8 | value i64


def _delta(direction, index):
    return DeltaState(CH, "SELECT t1 FROM dev", index, direction)


def _delta_hex(direction, index):
    # channel | direction u8 | sql_len u32 | sql | index: 56 bytes
    return f"{_CHANNEL} {int(direction):02x} 12000000 {_SQL} {_INDEX[index]}"


_PINNED_MESSAGES = [
    (Message(MessageType.MIGRATION_REQUEST, CH, sql="SELECT t1 FROM dev"), "12000000", _SQL),
    (Message(MessageType.CONFIRMATION, CH, confirmation=(1, 2, 77)),
     "10000000", "01000000 02000000 4d00000000000000"),
    (Message(MessageType.REJECTION, CH, reason="cache miss"), "0a000000", "6361636865206d697373"),
    *[(Message(MessageType.DELTA, CH, delta=_delta(direction, index)),
       "38000000", _delta_hex(direction, index))
      for direction in Direction for index in (_SERIES_INDEX, _WINDOW)],
    (Message(MessageType.PROBE, CH, block=TsBlock.header_only(S)),
     "18000000", f"{_SERIES} 01 01 00000000"),
    (Message(MessageType.ACK, CH), "00000000", ""),
    (Message(MessageType.DATA, CH, block=TsBlock(S, [1, 2], ["a", None], ValueType.STRING)),
     "30000000",
     f"{_SERIES} 00 03 02000000 0100000000000000 0200000000000000 01 03 01000000 61 00"),
    (Message(MessageType.CREDIT, CH), "00000000", ""),
    (Message(MessageType.TERMINATE, CH, terminate_reason=TerminateReason.CLOUD_COMPLETED),
     "02000000", "00 00"),
    (Message(MessageType.TERMINATE, CH, terminate_reason=TerminateReason.REMIGRATION,
             delta=_delta(Direction.CLOUD_TO_EDGE, _WINDOW)),
     "3a000000", "01 01 " + _delta_hex(Direction.CLOUD_TO_EDGE, _WINDOW)),
    (Message(MessageType.CANCEL, CH, reason="timeout"), "07000000", "74696d656f7574"),
]


@pytest.mark.parametrize("msg,payload_len,payload", _PINNED_MESSAGES,
                         ids=[m.type.name for m, _, _ in _PINNED_MESSAGES])
def test_message_bytes_are_pinned(msg, payload_len, payload):
    # message := type u8 | channel | payload_len u32 | payload
    expected = bytes.fromhex(f"{int(msg.type):02x} {_CHANNEL} {payload_len} {payload}")
    assert encode_message(msg) == expected
    assert encode_message(decode_message(expected)) == expected


# --- malformed messages ---------------------------------------------------------------

_PAYLOAD = 1 + 24 + 4                        # message type, channel, payload_len
_DIRECTION, _KIND = 24, 24 + 1 + 4 + 18      # offsets inside a delta with _SQL


@pytest.mark.parametrize("msg,enum_offsets", [
    (Message(MessageType.DELTA, CH, delta=_delta(Direction.EDGE_TO_CLOUD, _SERIES_INDEX)),
     [0, _PAYLOAD + _DIRECTION, _PAYLOAD + _KIND]),
    (Message(MessageType.TERMINATE, CH, terminate_reason=TerminateReason.REMIGRATION,
             delta=_delta(Direction.CLOUD_TO_EDGE, _WINDOW)),
     [0, _PAYLOAD, _PAYLOAD + 2 + _DIRECTION, _PAYLOAD + 2 + _KIND]),
    (Message(MessageType.CONFIRMATION, CH, confirmation=(1, 2, 77)), [0]),
], ids=["delta", "terminate-with-delta", "confirmation"])
def test_malformed_message_is_rejected(msg, enum_offsets):
    sample = encode_message(msg)
    assert encode_message(decode_message(sample)) == sample
    assert rejections(decode_message, sample, enum_offsets) == []


def test_empty_message_is_rejected():
    with pytest.raises(MalformedMessage):
        decode_message(b"")


@pytest.mark.parametrize("reason,delta", [
    (TerminateReason.REMIGRATION, None),
    (TerminateReason.CLOUD_COMPLETED, _delta(Direction.CLOUD_TO_EDGE, _WINDOW)),
], ids=["remigration-without-delta", "completed-with-delta"])
def test_a_terminate_whose_delta_presence_disagrees_with_its_reason_is_rejected(reason, delta):
    buf = encode_message(Message(MessageType.TERMINATE, CH, terminate_reason=reason, delta=delta))
    with pytest.raises(MalformedMessage, match="TERMINATE"):
        decode_message(buf)


@pytest.mark.parametrize("type_,reason", [
    (MessageType.DELTA, None), (MessageType.TERMINATE, TerminateReason.REMIGRATION),
], ids=["delta", "terminate"])
def test_a_negative_row_offset_is_rejected_and_a_negative_window_start_is_not(type_, reason):
    window = -600000                                 # timestamps may be negative
    msg = Message(type_, CH, terminate_reason=reason, delta=_delta(Direction.EDGE_TO_CLOUD, window))
    buf = encode_message(msg)
    assert decode_message(buf).delta.logical_index == window
    for code in (0, 2):                              # a kind byte other than 1
        forged = buf[:-9] + bytes([code]) + buf[-8:]     # index := kind u8 | value i64, the last field
        with pytest.raises(MalformedMessage, match=f"unknown index kind {code}"):
            decode_message(forged)


@pytest.mark.parametrize("at", [2, 1 + 24 + 4], ids=["address", "sql"])
def test_bad_utf8_in_a_text_field_is_rejected(at):
    sample = encode_message(Message(MessageType.MIGRATION_REQUEST, CH, sql="SELECT t1 FROM dev"))
    with pytest.raises(MalformedMessage):
        decode_message(_patch(sample, at, b"\xc3\x28"))


def test_snapshot_with_memtable_rows_is_rejected():
    snapshot = {
        "series": str(S), "files": [], "value_type": ValueType.FLOAT64, "last_ts": 2,
        "file_counter": 0,
    }
    buf = encode_snapshot(snapshot)
    assert buf.endswith(bytes(4))               # mem_count u32, always 0
    assert decode_snapshot(buf) == snapshot
    one_row = struct.pack("<IqBd", 1, 2, int(ValueType.FLOAT64), 1.0)
    with pytest.raises(MalformedMessage, match="mem_count"):
        decode_snapshot(buf[:-4] + one_row)


_LINK_SAMPLES = [(decode_message, encode_message(m)) for m, _, _ in _PINNED_MESSAGES] + [
    (decode_snapshot, encode_snapshot({
        "series": str(S), "files": [("f.cedf", b"CEDF")],
        "value_type": ValueType.STRING, "last_ts": 2, "file_counter": 1,
    })),
]


@settings(max_examples=300, deadline=None)
@given(
    sample=st.sampled_from(_LINK_SAMPLES),
    at=st.integers(min_value=0),
    junk=st.binary(max_size=3),
    cut=st.integers(min_value=0, max_value=3),
)
def test_any_corrupted_link_bytes_raise_only_malformed_message(sample, at, junk, cut):
    decode, buf = sample
    at %= len(buf) + 1
    try:
        decode(buf[:at] + junk + buf[at + cut:])
    except MalformedMessage:
        pass


# --- column-wise cell packing ----------------------------------------------------------

def _reference_cell(v) -> bytes:
    """The ``cell`` grammar, one value at a time, tagged by the value's exact type."""
    if v is None:
        return b"\x00"
    if type(v) is bool:
        return struct.pack("<BBB", 1, 0, v)
    if type(v) is int:
        return struct.pack("<BBq", 1, 1, v)
    if type(v) is float:
        return struct.pack("<BBd", 1, 2, v)
    if type(v) is str:
        raw = v.encode("utf-8")
        return struct.pack("<BBI", 1, 3, len(raw)) + raw
    raise TypeError(type(v).__name__)


def _reference_block(block: TsBlock) -> bytes:
    raw = str(block.series_id).encode("utf-8")
    n = block.row_count
    return b"".join([
        struct.pack("<H", len(raw)), raw,
        struct.pack("<BBI", block.is_header_only, block.value_type, n),
        struct.pack(f"<{n}q", *block.timestamps),
        *map(_reference_cell, block.values),
    ])


_I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_FLOATS_ANY = st.floats(allow_nan=True, allow_infinity=True)
_SCALARS = st.one_of(st.none(), st.booleans(), _I64, _FLOATS_ANY, st.text())
_COLUMNS = st.one_of(
    st.lists(st.booleans(), max_size=40),
    st.lists(_I64, max_size=40),
    st.lists(_FLOATS_ANY, max_size=40),
    st.lists(st.text(), max_size=40),
    st.lists(_SCALARS, max_size=40),                     # mixed types and None
    st.lists(st.sampled_from([True, 1, False, 0]), max_size=40),
    st.lists(st.sampled_from([float("nan"), -0.0, 0.0, float("-inf")]), max_size=40),
    st.lists(st.sampled_from(["", "ü", "日本", "a" * 300, None]), max_size=40),
    st.lists(st.sampled_from([-(2**63), 2**63 - 1, 0]), max_size=40),
)


@settings(max_examples=300, deadline=None)
@given(values=_COLUMNS, vt=st.sampled_from(ValueType))
def test_block_bytes_equal_the_per_cell_reference(values, vt):
    block = TsBlock(S, list(range(len(values))), values, vt, is_header_only=not values)
    encoded = encode_block(block)
    assert encoded == _reference_block(block)
    assert encode_cells(values) == [_reference_cell(v) for v in values]
    decoded, consumed = decode_block(encoded)
    assert consumed == len(encoded)
    assert _reference_block(decoded) == encoded


@pytest.mark.parametrize("values", [
    [True, 1], [1, True], [0.0, -0.0, float("nan")], ["", "ü", None], [-(2**63), 2**63 - 1],
], ids=["bool-then-int", "int-then-bool", "float-signs", "strings-none", "i64-bounds"])
def test_edge_columns_equal_the_per_cell_reference(values):
    block = TsBlock(S, list(range(len(values))), values, ValueType.INT64)
    assert encode_block(block) == _reference_block(block)
    assert encode_cells(values) == [_reference_cell(v) for v in values]


class _Text(str):
    pass


@pytest.mark.parametrize("values,error", [
    ([2**63], struct.error),
    ([1, -(2**63) - 1], struct.error),
    ([2.5, 2**64], struct.error),
    ([_Text("v1")], TypeError),
    (["v1", _Text("v2")], TypeError),
    ([b"v1"], TypeError),
    ([1.5, object()], TypeError),
], ids=["int-high", "int-low", "int-in-mixed", "str-subclass", "str-subclass-mixed",
        "bytes", "object-mixed"])
def test_unencodable_cells_raise_as_before(values, error):
    block = TsBlock(S, list(range(len(values))), values, ValueType.INT64)
    with pytest.raises(error):
        encode_block(block)
    with pytest.raises(error):
        encode_cells(values)


# --- link decode memo ------------------------------------------------------------------

def _data(block: TsBlock, trailing: bytes = b"") -> bytes:
    payload = encode_block(block) + trailing
    head = bytearray([int(MessageType.DATA)])
    encode_channel(head, CH)
    return bytes(head) + struct.pack("<I", len(payload)) + payload


def _block_fields(block):
    return (block.series_id, block.timestamps, block.values, block.value_type,
            block.is_header_only)


def _count_decodes(monkeypatch) -> list:
    calls = []
    real = wire.decode_block

    def counted(buf):
        calls.append(len(buf))
        return real(buf)

    monkeypatch.setattr(wire, "decode_block", counted)
    return calls


@pytest.mark.parametrize("values,vt", [
    (["v1", None, "ü"], ValueType.STRING),
    ([1.5, 2.5, -0.25], ValueType.FLOAT64),
    ([True, 1, None], ValueType.BOOL),
])
def test_link_memo_hit_equals_miss(monkeypatch, values, vt):
    calls = _count_decodes(monkeypatch)
    block = TsBlock(S, [0, 1000, 2000], values, vt)       # list columns: never seeded by the packer
    miss = decode_message(_data(block)).block
    hit = decode_message(_data(block)).block
    assert _block_fields(hit) == _block_fields(miss) == _block_fields(
        TsBlock(S, (0, 1000, 2000), tuple(values), vt))
    assert hit is not miss
    assert hit.timestamps is miss.timestamps and hit.values is miss.values
    assert len(calls) == 1
    assert link_memo.rows == 3
    assert decode_memo.rows == 0


def test_mutating_a_decoded_link_block_does_not_change_the_next_decode():
    buf = _data(TsBlock(S, [0, 1000, 2000], ["v1", None, "ü"], ValueType.STRING))
    for _ in range(3):                       # a miss, then hits
        block = decode_message(buf).block
        assert block.timestamps == (0, 1000, 2000)
        assert block.values == ("v1", None, "ü")
        with pytest.raises(TypeError):       # the memo's columns cannot be changed
            block.timestamps[0] = 5
        with pytest.raises(TypeError):
            block.values[0] = "changed"
        block.timestamps, block.values = [5], ["changed"]


def test_malformed_link_payload_is_never_retained(monkeypatch):
    calls = _count_decodes(monkeypatch)
    trailing = _data(TsBlock(S, [0, 1000, 2000], [1.5, 2.5, -0.25], ValueType.FLOAT64), b"\x00")
    disordered = _data(TsBlock(S, [0, 2000, 1000], [1.5, 2.5, -0.25], ValueType.FLOAT64))
    for buf in (trailing, disordered):
        for _ in range(3):
            with pytest.raises(MalformedMessage):
                decode_message(buf)
    assert len(calls) == 6
    assert link_memo.rows == 0


def test_payloads_under_one_key_never_answer_each_other(monkeypatch):
    # one series, value type, row count and first and last timestamp: one
    # link-memo key, which a payload of other values or other middle
    # timestamps must not hit
    calls = _count_decodes(monkeypatch)
    blocks = [TsBlock(S, [0, 1000, 2000], [1.5, 2.5, -0.25], ValueType.FLOAT64),
              TsBlock(S, [0, 1000, 2000], [1.5, -0.0, -0.25], ValueType.FLOAT64),
              TsBlock(S, [0, 1500, 2000], [1.5, 2.5, -0.25], ValueType.FLOAT64)]
    for _ in range(2):
        for block in blocks:
            received = decode_message(_data(block)).block
            assert _block_fields(received) == _block_fields(
                TsBlock(S, tuple(block.timestamps), tuple(block.values), ValueType.FLOAT64))
            assert encode_cells(received.values) == encode_cells(block.values)
    assert len(calls) == 6                   # each replaced the entry the one before left
    assert link_memo.rows == 3


def test_header_only_blocks_are_never_retained(monkeypatch):
    calls = _count_decodes(monkeypatch)
    for t in (MessageType.PROBE, MessageType.DATA):
        buf = encode_message(Message(t, CH, block=TsBlock.header_only(S)))
        for _ in range(2):
            assert decode_message(buf).block.is_header_only
    assert len(calls) == 4
    assert link_memo.rows == 0


def _chunk_store(tmp_path, rows=6000, chunk_rows=1500) -> SeriesStore:
    store = SeriesStore(tmp_path / "s")
    store.flush(S, range(rows), [float(i) for i in range(rows)], chunk_target_rows=chunk_rows)
    return store


def _links(count: int, rows: int = 1000, column=tuple) -> list[bytes]:
    return [_data(TsBlock(S, column(range(k * rows, (k + 1) * rows)), column([f"v{k}"] * rows), ValueType.STRING))
            for k in range(count)]


def _past_the_bounds() -> int:
    """Chunks of 1500 rows, or link blocks of 1000, that more than fill their memos."""
    return max(DECODE_MEMO_ROWS // 1500, LINK_MEMO_ROWS // 1000) + 4


def test_loading_chunks_never_evicts_a_link_block(tmp_path, monkeypatch):
    calls = _count_decodes(monkeypatch)
    links = _links(4, column=list)           # never seeded by the packer: each is decoded once
    for buf in links:
        decode_message(buf)
    store = _chunk_store(tmp_path, rows=_past_the_bounds() * 1500)   # more chunk rows than the bound
    for meta in store.chunk_metas(S):
        store.load_chunk_pages(meta)
        assert decode_memo.rows <= DECODE_MEMO_ROWS
    assert link_memo.rows == 4 * 1000
    for buf in links:                        # every one still retained
        decode_message(buf)
    assert len(calls) == 4


def test_decoding_link_blocks_never_evicts_a_chunk(tmp_path, monkeypatch):
    calls = _count_decodes(monkeypatch)
    store = _chunk_store(tmp_path)
    for meta in store.chunk_metas(S):
        store.load_chunk_pages(meta)
    count = _past_the_bounds()
    for buf in _links(count, column=list):   # more link rows than the bound, each a receiver's miss
        decode_message(buf)
        assert link_memo.rows <= LINK_MEMO_ROWS
    assert len(calls) == count
    assert link_memo.rows == LINK_MEMO_ROWS  # the oldest were evicted
    for meta in store.chunk_metas(S):        # every chunk still retained
        store.load_chunk_pages(meta)
    assert store.io.chunks_decoded == 4
    assert decode_memo.rows == 4 * 1500


def test_each_memo_stays_within_its_bound(tmp_path, monkeypatch):
    calls = _count_decodes(monkeypatch)
    count = _past_the_bounds()
    store = _chunk_store(tmp_path, rows=count * 1500)
    links = _links(count, column=list)
    checksum = ChecksumBuilder()
    for k, (meta, buf) in enumerate(zip(store.chunk_metas(S), links, strict=True)):   # interleaved
        store.load_chunk_pages(meta)
        decode_message(buf)
        ts, values = tuple(range(k * 1000, (k + 1) * 1000)), (f"v{k}",) * 1000
        checksum.update(ResultBlock(ts, [("t1", ValueType.STRING, values)]))         # its checksum rows
        for memo, bound in ((decode_memo, DECODE_MEMO_ROWS), (link_memo, LINK_MEMO_ROWS),
                            (digest_memo, DIGEST_MEMO_ROWS)):
            assert memo.rows <= bound
    assert decode_memo.rows == DECODE_MEMO_ROWS // 1500 * 1500
    assert link_memo.rows == LINK_MEMO_ROWS
    assert digest_memo.rows == DIGEST_MEMO_ROWS
    oldest = count - LINK_MEMO_ROWS // 1000
    decode_message(links[oldest])            # the oldest retained link block: a hit
    assert len(calls) == count
    decode_message(links[oldest - 1])        # evicted, in its own memo's order
    assert len(calls) == count + 1


# --- block pack memo -------------------------------------------------------------------

def _count_packs(monkeypatch) -> list:
    packs = []
    real = wire._pack_block

    def counted(block):
        packs.append(real(block))
        return packs[-1]

    monkeypatch.setattr(wire, "_pack_block", counted)
    return packs


def _nan(payload: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


def _assert_packs_like_the_uncached_packer(block):
    assert encode_block(block) == wire._pack_block(block) == _reference_block(block)


def test_signed_zeros_pack_apart():
    ts = [0, 1000]                           # the same timestamp objects in both blocks
    for values in ([0.0, 1.5], [-0.0, 1.5], [0.0, 1.5]):
        _assert_packs_like_the_uncached_packer(TsBlock(S, ts, values, ValueType.FLOAT64))


def test_nan_objects_pack_by_their_own_bits():
    ts = [0, 1000]
    for values in ([_nan(0), 1.5], [_nan(1), 1.5], [float("nan"), 1.5]):
        _assert_packs_like_the_uncached_packer(TsBlock(S, ts, values, ValueType.FLOAT64))


@pytest.mark.parametrize("vt", [ValueType.INT64, ValueType.BOOL, ValueType.FLOAT64])
def test_one_true_and_one_point_zero_pack_apart(vt):
    ts = [0, 1000]
    for _ in range(2):
        for one in (1, True, 1.0):
            for block_vt in (vt, ValueType.INT64, ValueType.BOOL, ValueType.FLOAT64):
                _assert_packs_like_the_uncached_packer(TsBlock(S, ts, [one, one], block_vt))


def test_equal_values_decoded_by_another_store_are_packed_again(tmp_path, monkeypatch):
    packs = _count_packs(monkeypatch)
    blocks = []
    for name in ("a", "b"):
        decode_memo.clear()                  # so the second store decodes its own objects
        store = SeriesStore(tmp_path / name)
        handle = store.flush(S, range(0, 3000, 3), [i / 7 for i in range(1000)])
        blocks += store.load_chunk_pages(handle.chunk_index[0])
    a, b = blocks
    assert a.values == b.values and a.values[0] is not b.values[0]
    assert encode_block(a) == encode_block(b) == _reference_block(b)
    assert len(packs) == 2


def test_a_block_mutated_after_packing_is_packed_again(monkeypatch):
    packs = _count_packs(monkeypatch)
    block = TsBlock(S, [0, 1000, 2000], ["v1", "v2", "v3"], ValueType.STRING)
    encode_block(block)
    block.values[1] = "changed"
    _assert_packs_like_the_uncached_packer(block)
    block.timestamps[1] = 1500               # first and last timestamps unchanged
    _assert_packs_like_the_uncached_packer(block)
    block.values.append("extra")
    _assert_packs_like_the_uncached_packer(block)
    block.values.pop()
    _assert_packs_like_the_uncached_packer(block)
    assert len(packs) == 1 + 4 * 2           # a miss each time, and the uncached call


def test_the_blocks_of_one_memoized_chunk_loaded_by_four_scans_are_packed_once(tmp_path, monkeypatch):
    packs = _count_packs(monkeypatch)
    store = _chunk_store(tmp_path, rows=2500, chunk_rows=2500)
    meta = store.chunk_metas(S)[0]
    sent = [encode_message(Message(MessageType.DATA, CH, block=block))
            for _ in range(4) for block in store.load_chunk_pages(meta)]
    assert store.io.chunks_decoded == 1
    assert len(packs) == 3                   # 1000 + 1000 + 500 rows
    assert sent == sent[:3] * 4
    assert [decode_message(buf).block.values for buf in sent[:3]] == [
        tuple(float(i) for i in range(b0, min(b0 + 1000, 2500))) for b0 in (0, 1000, 2000)]


def test_concurrent_cloud_queries_pack_each_distinct_block_once(tmp_path, monkeypatch):
    packs = _count_packs(monkeypatch)
    q3 = QuerySpec("Q3", TABLE_II["Q3"], concurrency=4)
    run(make_scenario(TABLE_II["Q3"], mode="cloud_only", queries=(q3,)), tmp_path)
    data = [p for p in packs if not decode_block(p)[0].is_header_only]
    assert len(data) == len(set(data)) == 2 * 6      # two series of six 1000-row blocks


# A sequence of blocks over one series and a few time ranges whose timestamps
# and values are drawn from a pool of objects, each either the pooled object
# or an equal one in another object; a step may instead mutate an earlier
# block in place.
_POOL_VALUES = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, 1, 2**40]),
    st.sampled_from([0.0, -0.0, 1.0, float("inf")]), st.integers(0, 3).map(_nan),
    st.sampled_from(["", "v1", "ü-ü"]),
)
_TS_POOL = [10**12 + 1000 * i for i in range(4)]


def _copy(v):
    """An equal value, in another object where Python makes one."""
    if type(v) is float:
        return struct.unpack("<d", struct.pack("<d", v))[0]
    if type(v) is int:
        return int(str(v))
    if type(v) is str:
        return (v + "x")[:-1]
    return v


_ROW = st.tuples(st.integers(0, 5), st.booleans())           # pool index, copied?
_STEP = st.one_of(
    st.tuples(st.just("new"), st.sampled_from(ValueType), st.integers(0, 2), st.integers(1, 2),
              st.booleans(), st.lists(_ROW, min_size=3, max_size=3)),
    st.tuples(st.just("mutate"), st.integers(0), st.integers(0, 2), _ROW),
)


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(_POOL_VALUES, min_size=6, max_size=6), steps=st.lists(_STEP, max_size=12))
def test_encode_block_equals_the_uncached_packer(pool, steps):
    blocks = []
    for step in steps:
        if step[0] == "new":
            _, vt, start, n, copy_ts, rows = step
            ts = _TS_POOL[start:start + n]
            if copy_ts:
                ts = [_copy(t) for t in ts]
            values = [_copy(pool[i]) if copied else pool[i] for i, copied in rows[:len(ts)]]
            blocks.append(TsBlock(S, list(ts), values, vt))
            block = blocks[-1]
        elif blocks:
            _, which, row, (i, copied) = step
            block = blocks[which % len(blocks)]
            block.values[row % block.row_count] = _copy(pool[i]) if copied else pool[i]
        else:
            continue
        assert encode_block(block) == wire._pack_block(block)


# --- link memo seeded by the packer ------------------------------------------------------

_DOTTED = SeriesPath(("root", "ln", "e.1", "d1", "t1"))     # its text parses to six segments
_UNPARSABLE = SeriesPath(("root", "ln.", "t1"))              # its text has an empty segment


def _int64_view(timestamps) -> memoryview:
    """A read-only int64 view over the timestamps' bytes, as a loaded chunk's page holds them."""
    return memoryview(struct.pack(f"<{len(timestamps)}q", *timestamps)).cast("q")


def _frozen(timestamps):
    """A read-only int64 view as the tuple it stands for, which the decoder gives."""
    if type(timestamps) is memoryview and timestamps.readonly and timestamps.format == "q":
        return tuple(timestamps)
    return timestamps


def _decoded_or_error(decode):
    """A decoded block's fields, its values re-encoded so that they compare
    cell-exactly (NaN bits, -0.0 against 0.0, True against 1), and a
    read-only int64 view of timestamps as its tuple; or the error."""
    try:
        block = decode()
    except MalformedMessage as exc:
        return str(exc)
    timestamps = _frozen(block.timestamps)
    return (block.series_id, type(timestamps), timestamps, list(map(type, timestamps)),
            type(block.values), encode_cells(block.values), type(block.value_type), block.value_type,
            block.is_header_only)


@settings(deadline=None)
@given(
    pool=st.lists(_POOL_VALUES, min_size=6, max_size=6),
    series=st.sampled_from([S, _DOTTED, _UNPARSABLE]),
    vt=st.sampled_from([*ValueType, 2, 7]),                               # an int, and no value type
    stamps=st.lists(st.sampled_from(_TS_POOL), min_size=1, max_size=4),   # in any order, repeats too
    copy_ts=st.booleans(),
    rows=st.lists(_ROW, min_size=4, max_size=4),
    columns=st.tuples(st.sampled_from([tuple, list, _int64_view]), st.sampled_from([tuple, list])),
)
def test_a_sent_data_block_decodes_like_its_payload(pool, series, vt, stamps, copy_ts, rows, columns):
    ts = [_copy(t) for t in stamps] if copy_ts else stamps
    values = [_copy(pool[i]) if copied else pool[i] for i, copied in rows[:len(ts)]]
    block = TsBlock(series, columns[0](ts), columns[1](values), vt)
    link_memo.clear()
    buf = encode_message(Message(MessageType.DATA, CH, block=block))
    payload = wire._pack_block(block)
    assert payload == wire._pack_block(TsBlock(series, tuple(ts), block.values, vt))   # an int64 view's bytes
    expected = _decoded_or_error(lambda: decode_block(payload)[0])
    assert _decoded_or_error(lambda: decode_message(buf).block) == expected


def test_a_sent_page_is_received_as_its_own_columns_and_a_tuple_block_is_parsed(tmp_path, monkeypatch):
    calls = _count_decodes(monkeypatch)
    block = TsBlock(S, (0, 1000, 2000), ("v1", None, "ü"), ValueType.STRING)
    buf = encode_message(Message(MessageType.DATA, CH, block=block))
    assert link_memo.rows == 0               # a block that is not a page is never seeded
    for _ in range(2):
        received = decode_message(buf).block
        assert _block_fields(received) == _block_fields(block) and received.values is not block.values
    assert len(calls) == 1                   # parsed by the receiver once
    store = SeriesStore(tmp_path)
    meta = store.flush(S, range(0, 3000, 3), [f"v{i}ü" for i in range(1000)]).chunk_index[0]
    [page] = store.load_chunk_pages(meta)
    buf = encode_message(Message(MessageType.DATA, CH, block=page))
    for _ in range(2):
        received = decode_message(buf).block
        assert received is not page
        assert received.timestamps is page.timestamps and received.values is page.values
    assert len(calls) == 1                   # the page's payload is never parsed


def test_a_received_page_view_cannot_be_released_after_the_decode_memo_drops_its_chunk(tmp_path):
    store = SeriesStore(tmp_path)
    meta = store.flush(S, range(1000), [float(t) for t in range(1000)]).chunk_index[0]
    [page] = store.load_chunk_pages(meta)
    buf = encode_message(Message(MessageType.DATA, CH, block=page))
    decode_memo.clear()                              # the link memo's entry now pins the view alone
    received = decode_message(buf).block
    assert received.timestamps is page.timestamps
    with pytest.raises(BufferError):
        received.timestamps.release()
    again = decode_message(buf).block
    assert again.timestamps is page.timestamps and list(again.timestamps) == list(range(1000))


@pytest.mark.parametrize("block,error", [
    (TsBlock(S, (0, 2000, 1000), (1.5, 2.5, -0.25), ValueType.FLOAT64), "timestamp"),
    (TsBlock(S, (0, 1000, 1000), (1.5, 2.5, -0.25), ValueType.FLOAT64), "timestamp"),
    (TsBlock(_UNPARSABLE, (0, 1000), (1.5, 2.5), ValueType.FLOAT64), "invalid tsblock"),
    (TsBlock(S, (0, 1000), (1.5, 2.5), 7), "value type"),
    (TsBlock(S, _int64_view((0, 2000, 1000)), (1.5, 2.5, -0.25), ValueType.FLOAT64), "timestamp"),
    (TsBlock(S, _int64_view((0, 1000, 1000)), (1.5, 2.5, -0.25), ValueType.FLOAT64), "timestamp"),
], ids=["swapped-timestamps", "repeated-timestamps", "unparsable-series", "unknown-value-type",
        "swapped-view-timestamps", "repeated-view-timestamps"])
def test_tuple_columns_the_decoder_rejects_are_never_seeded_and_still_rejected(block, error):
    buf = encode_message(Message(MessageType.DATA, CH, block=block))
    assert link_memo.rows == 0
    with pytest.raises(MalformedMessage, match=error):
        decode_message(buf)


def test_timestamps_that_are_not_ints_are_never_seeded():
    block = TsBlock(S, (False, True), (1.5, 2.5), ValueType.FLOAT64)
    buf = encode_message(Message(MessageType.DATA, CH, block=block))
    assert link_memo.rows == 0
    received = decode_message(buf).block.timestamps
    assert received == (0, 1) and list(map(type, received)) == [int, int]


def test_a_series_whose_text_parses_apart_is_received_as_the_decoder_parses_it():
    block = TsBlock(_DOTTED, (0, 1000), (1.5, 2.5), ValueType.FLOAT64)
    buf = encode_message(Message(MessageType.DATA, CH, block=block))
    received = decode_message(buf).block.series_id
    assert received == decode_block(encode_block(block))[0].series_id == SeriesPath.parse(str(_DOTTED))
    assert received != _DOTTED


@pytest.mark.parametrize("columns", [(list, tuple), (tuple, list), (list, list)], ids=["ts", "values", "both"])
def test_list_columns_are_never_seeded(columns):
    block = TsBlock(S, columns[0]([0, 1000]), columns[1]([1.5, 2.5]), ValueType.FLOAT64)
    for _ in range(2):
        encode_message(Message(MessageType.DATA, CH, block=block))
    assert link_memo.rows == 0


def test_every_memo_entry_stays_collectable_when_its_holders_form_a_cycle(tmp_path):
    """A buffer-export pin in a garbage cycle makes the collector fail to
    release the view it pins, and the process crashes; the memos keep their
    pins where no caller can reach them."""
    script = (
        "import gc, sys\n"
        "from ced import tsstore, wire\n"
        "from ced.harness import metrics\n"
        "from ced.tsstore import RowMemo, SeriesPath, SeriesStore, decode_memo\n"
        "from ced.wire import ChannelId, Message, MessageType, decode_message, encode_message\n"
        "S = SeriesPath.parse('root.ln.e1.d1.t1')\n"
        "store = SeriesStore(sys.argv[1])\n"
        "meta = store.flush(S, range(2500), [float(t) for t in range(2500)], chunk_target_rows=2500).chunk_index[0]\n"
        "blocks = store.load_chunk_pages(meta)\n"
        "sent = [encode_message(Message(MessageType.DATA, ChannelId('cloud', 9000, 1, 2, 77), block=b))\n"
        "        for b in blocks]\n"
        "key = (meta.series, meta.value_type, meta.row_count, meta.min_ts, meta.max_ts, meta.byte_len)\n"
        "cycle = [blocks, [b.answers for b in blocks], decode_memo.get(key),\n"
        "         [decode_message(buf).block for buf in sent]]\n"
        "cycle.append(cycle)\n"
        "del blocks, cycle\n"
        "for memo in (m for module in (tsstore, wire, metrics) for m in vars(module).values()):\n"
        "    if isinstance(memo, RowMemo):\n"
        "        memo.clear()\n"
        "gc.collect()\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(wire.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "Exception ignored" not in done.stderr


def _equal_rows(block, literal):
    """The rows of ``block`` an equality filter keeps."""
    op, rows = FilterOp(ScriptedChild("page", [block], []), "=", literal), []
    while (out := op.next_block()) is not None:
        if out is not NOT_READY:
            rows += zip(out.timestamps, out.values)
    return rows


def _page_max(block):
    return scanops._page_answer(block, ("max", 0, 3), scanops._slice_max, block.values, 0, 3)


@pytest.mark.parametrize("column,replacement", [("values", (9.0, 9.0, 9.0)), ("timestamps", (5, 6, 7))])
def test_a_loaded_page_given_another_column_is_sent_and_scanned_as_it_now_is(tmp_path, column, replacement):
    """A page's answers hold for its own columns only: a block whose column a
    consumer replaced is packed and scanned from the column it carries."""
    store = SeriesStore(tmp_path)
    meta = store.flush(S, [0, 1000, 2000], [0.5, 1.5, 2.5]).chunk_index[0]
    page, = store.load_chunk_pages(meta)
    sent = encode_message(Message(MessageType.DATA, CH, block=page))      # the page keeps its payload
    assert _equal_rows(page, 0.5) == [(0, 0.5)] and _page_max(page) == 2.5
    setattr(page, column, replacement)
    rows = list(zip(page.timestamps, page.values))
    received = decode_message(encode_message(Message(MessageType.DATA, CH, block=page))).block
    assert list(zip(received.timestamps, received.values)) == rows
    assert encode_block(page) == encode_block(TsBlock(S, *map(list, zip(*rows)), ValueType.FLOAT64))
    assert _equal_rows(page, 0.5) == [r for r in rows if r[1] == 0.5]
    assert _equal_rows(page, 9.0) == [r for r in rows if r[1] == 9.0]
    assert _page_max(page) == max(page.values)
    # the page's own answers are untouched: a fresh load still answers from its columns
    fresh, = store.load_chunk_pages(meta)
    assert fresh.answers is page.answers
    assert _equal_rows(fresh, 9.0) == [] and _page_max(fresh) == 2.5
    assert encode_message(Message(MessageType.DATA, CH, block=fresh)) == sent


def test_a_page_sent_by_four_concurrent_queries_in_three_runs_is_packed_once(tmp_path, monkeypatch):
    packs = _count_packs(monkeypatch)
    q3 = QuerySpec("Q3", TABLE_II["Q3"], concurrency=4)
    for _ in range(3):
        _, report = run(make_scenario(TABLE_II["Q3"], mode="cloud_only", queries=(q3,)), tmp_path)
        assert len({q.checksum for q in report.queries}) == 1
    data = [p for p in packs if not decode_block(p)[0].is_header_only]
    assert len(data) == len(set(data)) == 2 * 6      # two series of six 1000-row pages, for 12 queries


_PAGE_VALUES = {
    ValueType.BOOL: st.booleans(),
    ValueType.INT64: _I64,
    ValueType.FLOAT64: st.one_of(_FLOATS_ANY, st.sampled_from([0.0, -0.0]), st.integers(0, 3).map(_nan)),
    ValueType.STRING: st.one_of(st.text(max_size=4), st.sampled_from(["", "ü", "日本", "a" * 40])),
}


@st.composite
def _paged_series(draw):
    """Rows of one value type, with a pool of values drawn for them, and a chunk and page layout."""
    vt = draw(st.sampled_from(ValueType))
    pool = draw(st.lists(_PAGE_VALUES[vt], min_size=1, max_size=5))
    rng = random.Random(draw(st.integers(0, 2**16)))
    n = draw(st.integers(1, 2300))
    start = draw(st.integers(-(2**62), 2**62))
    timestamps = list(accumulate((rng.randint(1, 5) for _ in range(n - 1)), initial=start))
    values = [rng.choice(pool) for _ in range(n)]
    layout = dict(chunk_rows=draw(st.sampled_from([700, 1000, 2300])),
                  page_rows=draw(st.sampled_from([3, 250, 1000, 1600])))
    return vt, timestamps, values, layout


# Takes its example count from the profile: 60 in tier-1, 300 under --hypothesis-profile=oracle.
@settings(deadline=None)
@given(
    case=_paged_series(),
    share=st.sampled_from(["copy", "import"]),
    steps=st.lists(st.tuples(st.sampled_from(["send", "send", "evict-link", "drop-chunks"]),
                             st.integers(0, 1), st.integers(0, 3)), min_size=1, max_size=8),
)
def test_a_sent_page_is_packed_once_and_received_as_its_own_columns(tmp_path_factory, case, share, steps):
    """Two stores share each chunk's decode-memo entry (a copy or an imported
    snapshot of one flush); each step sends a chunk's pages from one of them
    as DATA, twice, or evicts every link-memo entry, or drops every decoded
    chunk."""
    vt, timestamps, values, layout = case
    decode_memo.clear()
    link_memo.clear()
    root = tmp_path_factory.mktemp("pages")
    stores = [SeriesStore(root / name, page_rows=layout["page_rows"]) for name in ("a", "b")]
    stores[0].flush(S, timestamps, values, chunk_target_rows=layout["chunk_rows"])
    if share == "copy":
        stores[0].copy_series(S, stores[1])
    else:
        stores[1].import_snapshot(stores[0].export_snapshot(S))
    packed = {}                              # id of each page's answers: the answers and its payload
    real_pack = wire._pack_block
    with patch.object(wire, "_pack_block", wraps=real_pack) as pack:
        for kind, j, k in steps:
            if kind == "evict-link":         # an entry of the bound's rows evicts every other
                link_memo.put(("filler",), (), LINK_MEMO_ROWS)
                assert link_memo.rows == LINK_MEMO_ROWS
                continue
            if kind == "drop-chunks":
                decode_memo.clear()
                continue
            metas = stores[j].chunk_metas(S)
            k %= len(metas)
            pages = stores[j].load_chunk_pages(metas[k])
            lo = sum(meta.row_count for meta in metas[:k])
            rows = slice(lo, lo + metas[k].row_count)
            assert [t for page in pages for t in page.timestamps] == timestamps[rows]
            assert encode_cells([v for page in pages for v in page.values]) == encode_cells(values[rows])
            for page in pages:
                payload = real_pack(page)
                head = bytearray([int(MessageType.DATA)])
                encode_channel(head, CH)
                for _ in range(2):
                    buf = encode_message(Message(MessageType.DATA, CH, block=page))
                    assert buf == bytes(head) + struct.pack("<I", len(payload)) + payload
                    received = decode_message(buf).block
                    assert _decoded_or_error(lambda: received) == _decoded_or_error(
                        lambda: decode_block(payload)[0])
                    assert (received.series_id, received.timestamps, received.values) == (
                        page.series_id, page.timestamps, page.values)
                    assert received.timestamps is page.timestamps and received.values is page.values
                    with pytest.raises(BufferError):
                        received.timestamps.release()
                first = packed.setdefault(id(page.answers), (page.answers, payload))[1]
                assert encode_block(page) is encode_block(page) and encode_block(page) == first
        assert pack.call_count == len(packed)  # each page's payload once, however often it was sent


# --- cells ------------------------------------------------------------------------------

_CELL_VALUES = st.one_of(st.text(max_size=6), st.none(), st.booleans(), _I64, _FLOATS_ANY)


@settings(max_examples=300, deadline=None)
@given(
    values=st.one_of(st.lists(st.text(max_size=6), max_size=8), st.lists(_CELL_VALUES, max_size=8)),
    lead=st.binary(max_size=2),
    extra=st.integers(-2, 2),
    at=st.integers(min_value=0),
    junk=st.binary(max_size=3),
    cut=st.integers(0, 3),
)
def test_cells_parse_to_what_they_reencode_or_are_rejected(values, lead, extra, at, junk, cut):
    """Cut, prefixed or corrupted cell runs either raise MalformedMessage or
    end exactly where the cells read re-encode to; intact runs round-trip."""
    cells = lead + b"".join(encode_cells(values))
    n = max(0, len(values) + extra)
    for buf in (cells, cells[:at % (len(cells) + 1)] + junk + cells[at % (len(cells) + 1) + cut:]):
        r = Reader(buf, MalformedMessage)
        try:
            read = wire._read_cells(r, n)
        except MalformedMessage:
            continue
        reencoded = b"".join(encode_cells(read))
        assert r.pos == len(reencoded)
        if buf is cells and not lead and not extra:
            assert reencoded == cells
