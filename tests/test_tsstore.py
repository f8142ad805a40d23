"""Storage engine: flush/iterate/load plus format round-trips."""

import os
import random
import struct
import tracemalloc
from pathlib import Path

import pytest
from conftest import content_fingerprint, parent, read_file_index
from hypothesis import given, settings
from hypothesis import strategies as st

from ced import codec
from ced.errors import CorruptChunk, OutOfOrderTimestamp, StorageIoError, UnknownSeries
from ced.scanops import AggregationScanOp, SeriesScanOp, WindowSpec
from ced.tsstore import (
    BLOCK_ROWS,
    DECODE_MEMO_ROWS,
    MAX_TS,
    ChunkIterator,
    ChunkMeta,
    RowMemo,
    SeriesPath,
    SeriesStore,
    TsBlock,
    ValueType,
    _decode_chunk,
    _require_little_endian,
    decode_memo,
    strictly_increasing,
)

S = SeriesPath.parse("root.ln.e1.d1.t3")


def chunk_iterator(store, series, time_range) -> ChunkIterator:
    """Iterator over the chunks of ``series`` that intersect ``[lo, hi)``."""
    lo, hi = time_range
    return ChunkIterator([m for m in store.chunk_metas(series) if m.min_ts < hi and m.max_ts >= lo])


def drain(iterator: ChunkIterator) -> list[ChunkMeta]:
    metas = []
    while iterator.has_next():
        metas.append(iterator.advance())
    return metas


@pytest.fixture
def store(tmp_path):
    return SeriesStore(tmp_path / "data")


def fill(store, series, n, start=0, step=1, value=lambda i: float(i), chunk_target_rows=None):
    """One flush of ``n`` rows of ``series``; its file handle."""
    timestamps = range(start, start + n * step, step)
    return store.flush(series, timestamps, [value(i) for i in range(n)], chunk_target_rows)


def scan_all(store, series):
    """Brute-force oracle: every (ts, value) via full chunk iteration."""
    out = []
    it = store.open_chunk_iterator(series)
    for meta in drain(it):
        for block in store.load_chunk_pages(meta):
            out.extend(zip(block.timestamps, block.values))
    return out


# --- write checks ---------------------------------------------------------

def test_append_then_scan_single_row(store):
    store.flush(S, [1], [0.5])
    assert scan_all(store, S) == [(1, 0.5)]


def test_append_equal_timestamp_rejected(store):
    store.flush(S, [5], [1.0])
    with pytest.raises(OutOfOrderTimestamp):
        store.flush(S, [5], [2.0])


def append_points(store, series, timestamps, values):
    """The run, one flush per row."""
    for ts, v in zip(timestamps, values):
        store.flush(series, [ts], [v])


def append_columns(store, series, timestamps, values):
    """The run, in one flush."""
    store.flush(series, timestamps, values)


LOADERS = [append_points, append_columns]


@pytest.mark.parametrize("load", LOADERS)
@pytest.mark.parametrize("timestamps", [[1, 3, 3], [1, 3, 2]])
def test_load_out_of_order_within_a_run_rejected(store, load, timestamps):
    with pytest.raises(OutOfOrderTimestamp):
        load(store, S, timestamps, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("load", LOADERS)
def test_load_out_of_order_across_calls_rejected(store, load):
    load(store, S, [1, 2, 3], [1.0, 2.0, 3.0])
    with pytest.raises(OutOfOrderTimestamp):
        load(store, S, [3, 4], [4.0, 5.0])
    assert scan_all(store, S) == [(1, 1.0), (2, 2.0), (3, 3.0)]


def test_a_timestamp_above_max_ts_is_refused_and_max_ts_is_stored(store):
    # the timestamp after the last row is a scan leaf's resume index, an i64
    with pytest.raises(OutOfOrderTimestamp, match="MAX_TS"):
        store.flush(S, [0, MAX_TS + 1], [1.0, 2.0])
    assert store.series_names() == []
    store.flush(S, [0, MAX_TS], [1.0, 2.0])
    assert scan_all(store, S) == [(0, 1.0), (MAX_TS, 2.0)]


@pytest.mark.parametrize("load", LOADERS)
def test_load_mixed_bool_and_int_rejected(store, load):
    with pytest.raises(TypeError):
        load(store, S, [1, 2], [True, 1])


@pytest.mark.parametrize(
    "timestamps, values",
    [([5, 6, 6], [1.0, 2.0, 3.0]), ([5, 6], [True, 1]), ([5, 6], [1.0, None])],
)
def test_rejected_bulk_load_changes_nothing(store, timestamps, values):
    store.flush(S, [1, 2], [0.5, 1.5])
    files = sorted(store.root.iterdir())
    with pytest.raises((OutOfOrderTimestamp, TypeError)):
        store.flush(S, timestamps, values)
    with pytest.raises((OutOfOrderTimestamp, TypeError)):
        store.flush(SeriesPath.parse("root.ln.e1.d1.fresh"), timestamps, values)
    assert store.series_names() == [str(S)]
    assert sorted(store.root.iterdir()) == files
    assert scan_all(store, S) == [(1, 0.5), (2, 1.5)]
    store.flush(S, [3], [2.5])           # the store still takes good rows


def test_flush_bytes_do_not_depend_on_the_column_sequence_type(tmp_path):
    rng = random.Random(7)
    timestamps = range(3, 3 * 2345, 3)
    stores = [SeriesStore(tmp_path / name, page_rows=300) for name in ("lists", "range")]
    for vt, make in [
        ("bool", lambda: rng.random() < 0.5),
        ("int", lambda: rng.randrange(-(2**40), 2**40)),
        ("float", lambda: rng.random()),
        ("str", lambda: f"v{rng.randrange(50)}"),
    ]:
        series = parent(S).child(vt)
        values = [make() for _ in timestamps]
        stores[0].flush(series, list(timestamps), values, chunk_target_rows=700)
        stores[1].flush(series, timestamps, tuple(values), chunk_target_rows=700)
        assert content_fingerprint(stores[0], series) == content_fingerprint(stores[1], series)
        assert scan_all(stores[1], series) == list(zip(timestamps, values))


@pytest.mark.parametrize("load", LOADERS)
def test_load_type_change_against_existing_series_rejected(store, load):
    load(store, S, [1, 2], [1.0, 2.0])
    with pytest.raises(TypeError):
        load(store, S, [3, 4], [3, 4])
    assert scan_all(store, S) == [(1, 1.0), (2, 2.0)]
    assert store.value_type(S) is ValueType.FLOAT64


def test_2500_appends_flush_scan_gives_1000_1000_500_blocks(store):
    fill(store, S, 2500, chunk_target_rows=4000)
    sizes = []
    it = store.open_chunk_iterator(S)
    for meta in drain(it):
        sizes.extend(b.row_count for b in store.load_chunk_pages(meta))
    assert sizes == [1000, 1000, 500]


# --- flush ---------------------------------------------------------------

def test_flush_partitions_10000_rows_into_4000_4000_2000(store):
    handle = fill(store, S, 10_000, chunk_target_rows=4000)
    assert [m.row_count for m in handle.chunk_index] == [4000, 4000, 2000]
    # page law: each chunk decodes into pages of <= 1000 rows
    for meta in handle.chunk_index:
        blocks = store.load_chunk_pages(meta)
        assert all(b.row_count <= 1000 for b in blocks)


def test_flush_of_no_rows_is_a_storage_error(store):
    with pytest.raises(StorageIoError, match="no rows"):
        store.flush(S, [], [])
    assert not store.has_series(S)
    fill(store, S, 1)
    with pytest.raises(StorageIoError, match="no rows"):
        store.flush(S, (), ())
    assert len(store.chunk_metas(S)) == 1


@pytest.mark.parametrize("chunk_target_rows", [-1, 0])
def test_a_flush_of_chunks_below_one_row_is_refused_and_changes_nothing(store, chunk_target_rows):
    fresh = parent(S).child("fresh")
    first = fill(store, S, 10)
    metas = store.chunk_metas(S)
    for series, start in ((S, 10), (fresh, 0)):
        with pytest.raises(ValueError, match="chunk_target_rows"):
            fill(store, series, 10, start=start, chunk_target_rows=chunk_target_rows)
    assert store.series_names() == [str(S)]
    assert store.chunk_metas(S) == metas
    assert sorted(store.root.iterdir()) == [first.path]
    assert store.time_bounds(S) == (0, 9)
    assert fill(store, S, 10, start=10).path.name == first.path.name.replace("000000", "000001")


def test_flush_single_row(store):
    handle = fill(store, S, 1)
    assert len(handle.chunk_index) == 1
    assert handle.chunk_index[0].row_count == 1


def test_a_chunk_read_of_a_missing_file_or_past_its_end_raises_and_closes_its_file(store):
    handle = fill(store, S, 1500, chunk_target_rows=1000)
    first, last = handle.chunk_index
    data = handle.path.read_bytes()
    handle.path.write_bytes(data[:last.offset + last.byte_len - 1])     # the last chunk cut short
    open_files = sorted(os.listdir("/dev/fd"))
    assert len(store.load_chunk_pages(first)) == 1
    with pytest.raises(CorruptChunk, match="short read"):
        store.load_chunk_pages(last)
    handle.path.unlink()
    with pytest.raises(StorageIoError, match="reading"):
        store.load_chunk_pages(first)
    assert store.io.chunks_loaded == 1
    assert sorted(os.listdir("/dev/fd")) == open_files


def test_a_failed_file_write_changes_nothing(store, monkeypatch):
    first = fill(store, S, 10)
    metas = store.chunk_metas(S)

    def fail(self, data):
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(Path, "write_bytes", fail)
        with pytest.raises(StorageIoError, match="disk full"):
            fill(store, S, 10, start=10)
        with pytest.raises(StorageIoError):
            fill(store, parent(S).child("fresh"), 10)
    assert store.chunk_metas(S) == metas
    assert store.series_names() == [str(S)]
    assert sorted(store.root.iterdir()) == [first.path]
    with pytest.raises(OutOfOrderTimestamp):           # last_ts is still 9
        fill(store, S, 1, start=9)
    second = fill(store, S, 10, start=10)
    assert second.path.name == first.path.name.replace("000000", "000001")


# --- chunk iterator ----------------------------------------------------------

def test_iterator_full_range_yields_all_chunks_in_order(store):
    fill(store, S, 9000, chunk_target_rows=3000)
    metas = drain(store.open_chunk_iterator(S))
    assert [m.min_ts for m in metas] == [0, 3000, 6000]


def test_iterator_range_after_all_data_is_empty(store):
    fill(store, S, 100)
    it = chunk_iterator(store, S, (1000, 2000))
    assert not it.has_next()


def test_iterator_interval_intersection_oracle(store):
    # chunks of 1000 rows at 1 ms: [0,999], [1000,1999], [2000,2999], [3000,3999]
    fill(store, S, 4000, chunk_target_rows=1000)
    lo, hi = 1500, 2500
    got = [m.min_ts for m in drain(chunk_iterator(store, S, (lo, hi)))]
    oracle = [m.min_ts for m in store.chunk_metas(S) if m.min_ts < hi and m.max_ts >= lo]
    assert got == oracle == [1000, 2000]


def test_iterator_unknown_series(store):
    with pytest.raises(UnknownSeries):
        store.open_chunk_iterator(SeriesPath.parse("root.x.y.z"))


# --- load_chunk_pages ------------------------------------------------------------

def test_chunk_of_4000_rows_loads_as_4_blocks(store):
    handle = fill(store, S, 4000, chunk_target_rows=4000)
    blocks = store.load_chunk_pages(handle.chunk_index[0])
    assert [b.row_count for b in blocks] == [1000] * 4


def test_chunk_of_one_row(store):
    handle = fill(store, S, 1)
    blocks = store.load_chunk_pages(handle.chunk_index[0])
    assert [b.row_count for b in blocks] == [1]


def test_tampered_row_count_raises_corrupt_chunk(store):
    handle = fill(store, S, 10)
    meta = handle.chunk_index[0]
    bad = type(meta)(
        meta.series, meta.file_path, meta.offset, meta.byte_len,
        meta.value_type, meta.row_count + 1, meta.min_ts, meta.max_ts,
    )
    with pytest.raises(CorruptChunk):
        store.load_chunk_pages(bad)


def test_io_stats_count_exact_chunk_bytes(store):
    handle = fill(store, S, 2000, chunk_target_rows=1000)
    store.load_chunk_pages(handle.chunk_index[0])
    assert store.io.bytes_read == handle.chunk_index[0].byte_len
    assert store.io.chunks_loaded == 1


# --- decode memo ------------------------------------------------------------------

def test_a_big_endian_host_is_refused_and_says_why():
    _require_little_endian("little")
    with pytest.raises(ImportError, match="little-endian host: decoded timestamps are int64 views.*big-endian"):
        _require_little_endian("big")


def _block_rows(blocks):
    return [(b.series_id, b.timestamps, b.values, b.value_type) for b in blocks]


def _memo_key(meta):
    """The ``decode_memo`` key of a chunk: what its index entry says it holds, not its file."""
    return (meta.series, meta.value_type, meta.row_count, meta.min_ts, meta.max_ts, meta.byte_len)


def _chunk_bytes(meta) -> bytes:
    return meta.file_path.read_bytes()[meta.offset:meta.offset + meta.byte_len]


def _read_only_int64(column) -> bool:
    return type(column) is memoryview and column.readonly and column.format == "q" and column.itemsize == 8


def _columns(block):
    """What a load hands out of one page, compared by identity across loads."""
    return block.series_id, block.timestamps, block.values


def _same_objects(blocks, others) -> bool:
    return all(a is b for x, y in zip(blocks, others, strict=True) for a, b in zip(_columns(x), _columns(y)))


def test_memo_hit_equals_miss_and_every_load_is_charged(store):
    meta = fill(store, S, 2500, chunk_target_rows=2500).chunk_index[0]
    miss = store.load_chunk_pages(meta)
    hit = store.load_chunk_pages(meta)
    assert _block_rows(hit) == _block_rows(miss)
    assert [b.row_count for b in hit] == [1000, 1000, 500]
    assert store.io.bytes_read == 2 * meta.byte_len
    assert store.io.chunks_loaded == 2
    assert store.io.chunks_decoded == 1
    assert decode_memo.rows == 2500


def test_page_loads_are_charged_and_a_hit_returns_the_columns_of_the_miss(store):
    meta = fill(store, S, 2500, chunk_target_rows=2500).chunk_index[0]
    miss = store.load_chunk_pages(meta)
    hit = store.load_chunk_pages(meta)
    starts = (0, 1000, 2000)
    assert [b.series_id for b in miss] == [S] * 3
    assert [b.timestamps.tolist() for b in miss] == [list(range(b0, min(b0 + 1000, 2500))) for b0 in starts]
    assert [b.values for b in miss] == [tuple(float(i) for i in range(b0, min(b0 + 1000, 2500))) for b0 in starts]
    assert all(_read_only_int64(b.timestamps) and type(b.values) is tuple for b in miss)
    assert all(a is not b for a, b in zip(hit, miss)) and _same_objects(hit, miss)
    store.load_chunk_pages(meta)
    assert (store.io.bytes_read, store.io.chunks_loaded, store.io.chunks_decoded) == (
        3 * meta.byte_len, 3, 1)


def test_an_aggregation_scan_leaves_the_memo_columns_as_decoded(store):
    fill(store, S, 3000, value=lambda i: float((i * 7919) % 1000), chunk_target_rows=1200)
    for fn in ("count", "max_value"):
        op = AggregationScanOp(store, S, WindowSpec(0, 3000, 7), fn)
        while op.next_block() is not None:
            pass
    metas = store.chunk_metas(S)
    assert store.io.chunks_loaded == 2 * len(metas)
    asked = 0
    for meta in metas:
        buf = _chunk_bytes(meta)
        series, pages, retained = decode_memo.get(_memo_key(meta))
        fresh = _decode_chunk(buf, meta)
        fresh_values = tuple(v for _, values in fresh for v in values)
        assert series == S and retained == buf
        assert [(ts.tolist(), values) for ts, values, _ in pages] == [(ts.tolist(), values) for ts, values in fresh]
        # each page's answers are the maxima of its decoded values' row ranges
        for b0, (_, _, answers) in zip(range(0, meta.row_count, BLOCK_ROWS), pages):
            for (kind, first, end), answer in answers.items():
                assert kind == "max" and answer == max(fresh_values[b0 + first:b0 + end])
            asked += len(answers)
    assert asked > 0


def test_mutating_a_loaded_block_does_not_change_the_next_load(store):
    meta = fill(store, S, 1500).chunk_index[0]
    first = store.load_chunk_pages(meta)
    for block in first:                      # the memo's columns cannot be changed
        with pytest.raises(TypeError):
            block.timestamps[0] = -1
        with pytest.raises(TypeError):
            block.values[0] = -1.0
        block.timestamps, block.values = [-1], [-1.0]
    again = store.load_chunk_pages(meta)
    assert store.io.chunks_decoded == 1
    assert [t for b in again for t in b.timestamps] == list(range(1500))
    assert [v for b in again for v in b.values] == [float(i) for i in range(1500)]


def test_releasing_a_loaded_view_raises_and_the_next_load_is_unchanged(store):
    meta = fill(store, S, 1500).chunk_index[0]
    first = store.load_chunk_pages(meta)
    for block in first:                      # the entry holds an export of each page's view
        with pytest.raises(BufferError):
            block.timestamps.release()
    again = store.load_chunk_pages(meta)
    assert store.io.chunks_decoded == 1
    assert all(a.timestamps is b.timestamps and a.values is b.values for a, b in zip(first, again, strict=True))
    assert [t for b in again for t in b.timestamps] == list(range(1500))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=12))
def test_the_order_check_answers_alike_for_a_tuple_a_list_and_a_view(stamps):
    view = memoryview(struct.pack(f"<{len(stamps)}q", *stamps)).cast("q")
    expected = all(a < b for a, b in zip(stamps, stamps[1:]))
    assert strictly_increasing(tuple(stamps)) is strictly_increasing(stamps) is strictly_increasing(view) is expected


@pytest.mark.parametrize("n", [0, 1, 2, 500])
@pytest.mark.parametrize("step", [1, 1000, -1])
def test_the_order_check_answers_a_range_as_its_tuple(step, n):
    for stamps in (range(0, n * step, step), range(7, 7 + n * step, step)[1:]):
        assert strictly_increasing(stamps) is strictly_increasing(tuple(stamps))
    assert strictly_increasing(range(0, step * 2**64, step)) is (step > 0)     # too long to scan or len()


def test_writing_into_a_loaded_blocks_timestamps_raises_and_the_next_load_is_unchanged(store):
    meta = fill(store, S, 1500).chunk_index[0]
    for block in store.load_chunk_pages(meta):
        ts = block.timestamps
        writes = (
            lambda: ts.__setitem__(0, -1),
            lambda: ts.__setitem__(slice(0, 1), memoryview(struct.pack("<q", -1)).cast("q")),
            lambda: memoryview(ts).__setitem__(0, -1),
            lambda: ts.cast("B").__setitem__(0, 255),
            lambda: struct.pack_into("<q", ts, 0, -1),
        )
        for write in writes:
            with pytest.raises(TypeError):
                write()
    again = store.load_chunk_pages(meta)
    assert store.io.chunks_decoded == 1
    assert [t for b in again for t in b.timestamps] == list(range(1500))
    assert [v for b in again for v in b.values] == [float(i) for i in range(1500)]


def test_four_scans_of_one_memoized_chunk_get_the_same_columns(store):
    fill(store, S, 2500, chunk_target_rows=2500)
    scans = [SeriesScanOp(store, S) for _ in range(4)]
    blocks = [[op.next_block() for _ in range(3)] for op in scans]
    assert store.io.chunks_loaded == 4 and store.io.chunks_decoded == 1
    assert [b.row_count for b in blocks[0]] == [1000, 1000, 500]
    assert [t for b in blocks[0] for t in b.timestamps] == list(range(2500))
    assert [v for b in blocks[0] for v in b.values] == [float(i) for i in range(2500)]
    for first, *others in zip(*blocks):
        assert _read_only_int64(first.timestamps) and type(first.values) is tuple
        assert all(b is not first for b in others)       # fresh blocks
        assert all(b.timestamps is first.timestamps and b.values is first.values for b in others)


def test_reimported_file_of_the_same_name_decodes_fresh(tmp_path):
    src_a, src_b = SeriesStore(tmp_path / "a"), SeriesStore(tmp_path / "b")
    fill(src_a, S, 100)
    fill(src_b, S, 100, value=lambda i: -float(i))
    dst = SeriesStore(tmp_path / "dst")
    dst.import_snapshot(src_a.export_snapshot(S))
    assert scan_all(dst, S) == [(i, float(i)) for i in range(100)]
    dst.remove_series(S)
    dst.import_snapshot(src_b.export_snapshot(S))       # same file name, other bytes
    assert scan_all(dst, S) == [(i, -float(i)) for i in range(100)]
    assert dst.io.chunks_decoded == 2


def test_corrupt_chunk_is_never_memoized(store):
    meta = fill(store, S, 10).chunk_index[0]
    store.load_chunk_pages(meta)
    bad = type(meta)(
        meta.series, meta.file_path, meta.offset, meta.byte_len,
        meta.value_type, meta.row_count + 1, meta.min_ts, meta.max_ts,
    )
    for _ in range(2):                      # the intact bytes are memoized under another key
        with pytest.raises(CorruptChunk):
            store.load_chunk_pages(bad)
    _tamper(meta.file_path, meta.offset + _CHUNK_HEAD + 25 + 4 + 8, struct.pack("<q", 5))
    for _ in range(2):
        with pytest.raises(CorruptChunk):
            store.load_chunk_pages(meta)
    assert store.io.chunks_loaded == 5 and store.io.chunks_decoded == 1
    assert decode_memo.rows == 10


def test_rows_retained_across_stores_never_exceed_the_bound(tmp_path):
    chunk = DECODE_MEMO_ROWS // 8            # the memo holds 8 chunks, 4 stores' worth
    stores = []
    for i in range(6):                       # 6 x 2 chunks: more than the bound
        s = SeriesStore(tmp_path / f"s{i}")
        # each store's chunks start at timestamps of their own: no two share a key
        s.flush(S, range(2 * chunk * i, 2 * chunk * (i + 1)), [float(i)] * (2 * chunk),
                chunk_target_rows=chunk)
        stores.append(s)
        for meta in s.chunk_metas(S):
            s.load_chunk_pages(meta)
            assert decode_memo.rows <= DECODE_MEMO_ROWS
    assert decode_memo.rows == 8 * chunk

    def reload(s):
        for meta in s.chunk_metas(S):
            s.load_chunk_pages(meta)
        return s.io.chunks_decoded

    assert reload(stores[2]) == 2           # the oldest retained: a hit that makes it newest
    assert reload(stores[0]) == 4           # evicted; decoding it again evicts stores[3]
    assert reload(stores[2]) == 2
    assert reload(stores[3]) == 4
    big = SeriesStore(tmp_path / "big")
    rows = DECODE_MEMO_ROWS + 1
    meta = big.flush(S, range(rows), [1] * rows, chunk_target_rows=rows).chunk_index[0]
    big.load_chunk_pages(meta)               # larger than the bound: decoded, not retained
    assert decode_memo.rows == 8 * chunk
    big.load_chunk_pages(meta)
    assert big.io.chunks_decoded == 2


def test_equal_shaped_chunks_of_other_bytes_take_turns_in_one_entry(tmp_path):
    a, b = SeriesStore(tmp_path / "a"), SeriesStore(tmp_path / "b")
    meta_a = fill(a, S, 1500).chunk_index[0]
    meta_b = fill(b, S, 1500, value=lambda i: -1.0 - i).chunk_index[0]
    assert _memo_key(meta_a) == _memo_key(meta_b) and _chunk_bytes(meta_a) != _chunk_bytes(meta_b)
    for store, meta, value in ((a, meta_a, float), (b, meta_b, lambda i: -1.0 - i), (a, meta_a, float)):
        assert [v for b in store.load_chunk_pages(meta) for v in b.values] == list(map(value, range(1500)))
        assert decode_memo.rows == 1500      # the other store's entry was replaced, not kept beside it
    assert (a.io.chunks_decoded, b.io.chunks_decoded) == (2, 1)


def test_a_copy_and_a_mirror_of_one_series_decode_each_chunk_once(tmp_path):
    origin = SeriesStore(tmp_path / "origin")
    fill(origin, S, 5000, chunk_target_rows=1000)
    fill(origin, S, 2000, start=5000, chunk_target_rows=1000)
    first = [origin.load_chunk_pages(meta) for meta in origin.chunk_metas(S)]
    copy, mirror = SeriesStore(tmp_path / "copy"), SeriesStore(tmp_path / "mirror")
    origin.copy_series(S, copy)
    mirror.import_snapshot(origin.export_snapshot(S))
    for store in (copy, mirror):
        for meta, blocks in zip(store.chunk_metas(S), first, strict=True):
            assert _same_objects(store.load_chunk_pages(meta), blocks)
        assert (store.io.chunks_loaded, store.io.chunks_decoded) == (7, 0)
    assert origin.io.chunks_decoded == 7


@pytest.mark.parametrize("writer", ["flush", "import_snapshot"])
def test_a_write_at_a_name_linked_from_another_store_leaves_that_stores_file(tmp_path, writer):
    """Store files are immutable: a writer unlinks the name and creates a new
    file, so another store sharing the old file by a link keeps its bytes."""
    first, second, other = (SeriesStore(tmp_path / name) for name in ("first", "second", "other"))
    shared = fill(first, S, 1500, chunk_target_rows=1000).path
    before = shared.read_bytes()
    os.link(shared, second.root / shared.name)          # the name second writes next
    fill(other, S, 700, value=lambda i: -1.0 - i)
    if writer == "flush":
        fill(second, S, 700, value=lambda i: -1.0 - i)
    else:
        second.import_snapshot(other.export_snapshot(S))
    assert shared.read_bytes() == before
    assert scan_all(first, S) == [(i, float(i)) for i in range(1500)]
    assert (second.root / shared.name).read_bytes() == other._files(S)[0].path.read_bytes()
    assert scan_all(second, S) == [(i, -1.0 - i) for i in range(700)]


_VARIANTS = (float, lambda i: -1.0 - i, lambda i: 0.5 * i)   # equal-shaped FLOAT64 chunks of other bytes


# Takes its example count from the profile: 60 in tier-1, 300 under --hypothesis-profile=oracle.
@settings(deadline=None)
@given(steps=st.lists(
    st.tuples(st.sampled_from(["flush", "copy", "import", "load"]), st.integers(0, 2), st.integers(0, 2)),
    min_size=1, max_size=12,
))
def test_every_load_through_the_memo_equals_a_fresh_decode(tmp_path_factory, steps):
    """Up to three stores hold one series of three 10-row chunks, written by a
    flush of one of three value variants, a copy or a snapshot import; each
    chunk's key is the same in every store, its bytes equal or not."""
    decode_memo.clear()
    root = tmp_path_factory.mktemp("memo")
    stores = [SeriesStore(root / f"s{j}", page_rows=4) for j in range(3)]
    for kind, j, k in steps:
        store, other = stores[j], stores[k]
        if kind == "flush":
            store.remove_series(S)
            fill(store, S, 30, value=_VARIANTS[k], chunk_target_rows=10)
        elif kind == "load" and store.has_series(S):
            for meta in store.chunk_metas(S):
                pages = _decode_chunk(_chunk_bytes(meta), meta)
                blocks = store.load_chunk_pages(meta)
                assert [b.series_id for b in blocks] == [S] * len(blocks)
                assert [(b.timestamps.tolist(), b.values) for b in blocks] == [
                    (ts.tolist(), values) for ts, values in pages]
                assert all(_read_only_int64(b.timestamps) and type(b.values) is tuple for b in blocks)
                decoded = store.io.chunks_decoded
                assert _same_objects(store.load_chunk_pages(meta), blocks)     # a hit
                assert store.io.chunks_decoded == decoded
        elif kind == "copy" and j != k and other.has_series(S):
            other.copy_series(S, store)
        elif kind == "import" and other.has_series(S):
            store.import_snapshot(other.export_snapshot(S))


def test_putting_a_retained_key_again_replaces_its_entry_and_its_rows():
    memo = RowMemo(10)
    memo.put("a", "a1", 3)
    memo.put("b", "b", 2)
    memo.put("a", "a2", 4)                  # replaces "a" and makes it the newest
    assert memo.rows == 6
    assert memo.get("a") == "a2"
    memo.put("c", "c", 4)                   # fits the bound exactly: nothing evicted
    assert memo.rows == 10 and memo.get("b") is not None
    memo.put("d", "d", 1)                   # evicts the oldest, "a"
    assert memo.get("a") is None
    assert memo.rows == 2 + 4 + 1
    memo.put("b", "b2", 11)                 # larger than the bound: the old entry goes too
    assert memo.get("b") is None
    assert memo.rows == 4 + 1


def test_a_pinned_view_cannot_be_released_until_its_entry_goes():
    memo = RowMemo(10)
    views = [memoryview(struct.pack("<3q", 1, 2, 3)).cast("q") for _ in range(2)]
    memo.put("a", ("a", views[0]), 3, [views[0]])
    memo.put("b", ("b", views[1]), 3, [views[1]])
    for view in views:
        with pytest.raises(BufferError):
            view.release()
    memo.put("c", "c", 6)                   # evicts "a" and its pin
    views[0].release()
    memo.clear()
    views[1].release()


def test_each_page_s_timestamps_are_a_view_over_the_chunk_bytes_its_entry_keeps(store):
    meta = fill(store, S, 2500, chunk_target_rows=2500).chunk_index[0]
    blocks = store.load_chunk_pages(meta)
    _, pages, retained = decode_memo.get(_memo_key(meta))
    assert retained == _chunk_bytes(meta)
    assert all(b.timestamps is ts and ts.obj is retained for b, (ts, _, _) in zip(blocks, pages, strict=True))


@pytest.mark.parametrize("page_rows,over_the_bytes", [
    (300, [False, False, False]),     # every block spans stored pages: joined
    (1000, [True, True, True]),
    (1600, [True, False, True]),      # rows 1000..1999 span the two stored pages
    (2500, [True, True, True]),
])
def test_stored_pages_of_any_size_load_as_blocks_of_block_rows(tmp_path, page_rows, over_the_bytes):
    store = SeriesStore(tmp_path, page_rows=page_rows)
    meta = fill(store, S, 2500, chunk_target_rows=2500).chunk_index[0]
    blocks = store.load_chunk_pages(meta)
    starts = (0, 1000, 2000)
    assert [b.timestamps.tolist() for b in blocks] == [list(range(b0, min(b0 + 1000, 2500))) for b0 in starts]
    assert [b.values for b in blocks] == [tuple(float(i) for i in range(b0, min(b0 + 1000, 2500))) for b0 in starts]
    assert all(_read_only_int64(b.timestamps) for b in blocks)
    retained = decode_memo.get(_memo_key(meta))[2]
    assert [b.timestamps.obj is retained for b in blocks] == over_the_bytes


# --- invariants -------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3000),
    chunk_rows=st.integers(min_value=1, max_value=1200),
    vt=st.sampled_from(["float", "int", "bool", "str"]),
)
def test_roundtrip_any_sequence(tmp_path_factory, n, chunk_rows, vt):
    rng = random.Random(n * 31 + chunk_rows)
    make = {
        "float": lambda: rng.random() * 1000,
        "int": lambda: rng.randrange(-(2**40), 2**40),
        "bool": lambda: rng.random() < 0.5,
        "str": lambda: f"v{rng.randrange(1000)}",
    }[vt]
    store = SeriesStore(tmp_path_factory.mktemp("rt"))
    expected = []
    ts = 0
    for _ in range(n):
        ts += rng.randrange(1, 5)
        expected.append((ts, make()))
    store.flush(S, [t for t, _ in expected], [v for _, v in expected], chunk_target_rows=chunk_rows)
    assert scan_all(store, S) == expected


def test_block_size_law_and_metadata_honesty(store):
    fill(store, S, 5321, chunk_target_rows=2500)
    for meta in store.chunk_metas(S):
        blocks = store.load_chunk_pages(meta)
        # all full blocks except possibly the last of the chunk
        assert all(b.row_count == BLOCK_ROWS for b in blocks[:-1])
        flat_ts = [t for b in blocks for t in b.timestamps]
        assert meta.min_ts == flat_ts[0]
        assert meta.max_ts == flat_ts[-1]
        assert meta.row_count == len(flat_ts)
        assert flat_ts == sorted(set(flat_ts))


def test_multiple_flushes_merge_in_timestamp_order(store):
    fill(store, S, 1000, start=0, chunk_target_rows=600)
    fill(store, S, 1000, start=1000, chunk_target_rows=600)
    rows = scan_all(store, S)
    assert [ts for ts, _ in rows] == list(range(2000))


def test_flush_bytes_deterministic(tmp_path):
    def build(root):
        st_ = SeriesStore(root)
        handle = fill(st_, S, 500, value=lambda i: f"v{i % 7}", chunk_target_rows=200)
        return handle.path.read_bytes()

    assert build(tmp_path / "a") == build(tmp_path / "b")


def test_file_index_roundtrip(store):
    handle = fill(store, S, 3000, chunk_target_rows=1000)
    again = read_file_index(handle.path)
    assert [(m.offset, m.byte_len, m.row_count, m.min_ts, m.max_ts) for m in again] == [
        (m.offset, m.byte_len, m.row_count, m.min_ts, m.max_ts) for m in handle.chunk_index
    ]


# --- snapshot / fingerprint ----------------------------------------------------

def test_snapshot_roundtrip_produces_identical_fingerprint(tmp_path):
    src = SeriesStore(tmp_path / "src")
    fill(src, S, 2300, chunk_target_rows=900)
    dst = SeriesStore(tmp_path / "dst")
    dst.import_snapshot(src.export_snapshot(S))
    assert content_fingerprint(dst, S) == content_fingerprint(src, S)
    assert scan_all(dst, S) == scan_all(src, S)
    assert scan_all(dst, S) == [(i, float(i)) for i in range(2300)]


T1, T2 = parent(S).child("t1"), parent(S).child("t2")


def _name(series, i):
    return f"{series}__{i:06d}.cedf"


# header := magic | version u16; an index of no entries; footer := index_offset u64 | magic
_FILE_OF_NO_CHUNKS = b"CEDF" + struct.pack("<H", 2) + struct.pack("<I", 0) + struct.pack("<Q4s", 6, b"CEDF")

def _index_min_ts(buf, series, min_ts):
    """``buf``, the bytes of a file of ``series``, with its first index entry's min_ts set."""
    buf = bytes(buf)                        # an exported blob is a view, which ``+`` does not join
    # entry := series_len u16 | series | offset u64 | byte_len u32 | vt u8 | row_count u32 | min_ts i64
    at = struct.unpack("<Q", buf[-12:-4])[0] + 4 + 2 + len(str(series)) + 17
    return buf[:at] + struct.pack("<q", min_ts) + buf[at + 8:]


# (rule broken, its CorruptChunk message): ``t1`` is two FLOAT64 files of rows
# 0..199, ``t2`` FLOAT64 rows 1000..1049, and ``later`` STRING rows of t1 at 200..249
_BAD_SNAPSHOTS = [
    pytest.param(
        lambda t1, t2, later: dict(t1, files=[], value_type=None, last_ts=None, file_counter=0),
        "of no files", id="no-files"),
    pytest.param(
        lambda t1, t2, later: dict(
            t1, files=[*t1["files"], (_name(T1, 2), _FILE_OF_NO_CHUNKS)], file_counter=3),
        "of no chunks", id="a-file-of-no-chunks"),
    pytest.param(                                           # it would overwrite t2's file
        lambda t1, t2, later: dict(t1, files=[(t2["files"][0][0], t1["files"][0][1]), t1["files"][1]]),
        "snapshot file 0 is", id="a-file-named-as-another-series-file"),
    pytest.param(
        lambda t1, t2, later: dict(t2, series=str(T1), files=[(_name(T1, 0), t2["files"][0][1])]),
        "another series", id="a-chunk-of-another-series"),
    pytest.param(
        lambda t1, t2, later: dict(
            t1, files=[t1["files"][0], (_name(T1, 1), later["files"][0][1])], last_ts=249),
        "more than one value type", id="chunks-of-two-value-types"),
    pytest.param(
        lambda t1, t2, later: dict(
            t1, files=[(_name(T1, i), t1["files"][1 - i][1]) for i in (0, 1)], last_ts=99),
        "out of timestamp order", id="files-out-of-time-order"),
    pytest.param(
        lambda t1, t2, later: dict(t1, value_type=ValueType.STRING), "declares", id="declared-value-type"),
    pytest.param(lambda t1, t2, later: dict(t1, last_ts=200), "declares", id="declared-last-ts"),
    pytest.param(lambda t1, t2, later: dict(t1, file_counter=5), "declares", id="declared-file-counter"),
    pytest.param(                                           # the first chunk holds rows 0..39
        lambda t1, t2, later: dict(
            t1, files=[(t1["files"][0][0], _index_min_ts(t1["files"][0][1], T1, 10)), t1["files"][1]]),
        "disagrees with", id="index-bounds-disagree-with-the-chunk-header"),
]


@pytest.mark.parametrize("break_rule,message", _BAD_SNAPSHOTS)
def test_a_snapshot_that_breaks_the_series_invariant_changes_nothing(tmp_path, break_rule, message):
    src, other, dst = (SeriesStore(tmp_path / name) for name in ("src", "other", "dst"))
    fill(src, T1, 100, chunk_target_rows=40)
    fill(src, T1, 100, start=100, chunk_target_rows=40)
    fill(src, T2, 50, start=1000, value=lambda i: -float(i))
    fill(other, T1, 50, start=200, value=str)
    t1, t2 = src.export_snapshot(T1), src.export_snapshot(T2)
    dst.import_snapshot(t1)
    dst.import_snapshot(t2)
    files = {p.name: p.read_bytes() for p in dst.root.iterdir()}
    rows = {s: scan_all(dst, s) for s in (T1, T2)}
    with pytest.raises(CorruptChunk, match=message):
        dst.import_snapshot(break_rule(t1, t2, other.export_snapshot(T1)))
    assert {p.name: p.read_bytes() for p in dst.root.iterdir()} == files
    assert dst.series_names() == [str(T1), str(T2)]
    assert {s: scan_all(dst, s) for s in (T1, T2)} == rows
    assert [dst.value_type(s) for s in (T1, T2)] == [ValueType.FLOAT64] * 2
    dst.import_snapshot(t1)                             # an exported snapshot still imports
    assert scan_all(dst, T1) == rows[T1]


def test_series_path_validation():
    with pytest.raises(ValueError):
        SeriesPath.parse("ln.e1")
    with pytest.raises(ValueError):
        SeriesPath.parse("notroot.a.b")
    p = SeriesPath.parse("root.ln.edge1.device1.t1")
    assert p.segments[-1] == "t1"
    assert str(parent(p)) == "root.ln.edge1.device1"
    assert parent(parent(p)) == SeriesPath.parse("root.ln.edge1")


def test_header_only_block():
    b = TsBlock.header_only(S)
    assert b.row_count == 0 and b.is_header_only
    with pytest.raises(ValueError):
        TsBlock(S, [], [], ValueType.FLOAT64, is_header_only=False)


# --- corrupt files -------------------------------------------------------------------

_CHUNK_HEAD = 2 + len(str(S))                 # series_len u16 | series, then value_type u8


def _tamper(path, at, raw):
    buf = path.read_bytes()
    path.write_bytes(buf[:at] + raw + buf[at + len(raw):])


def _magic_only(store, path, meta):
    path.write_bytes(b"CEDF")
    read_file_index(path)


def _footer_past_end(store, path, meta):
    _tamper(path, path.stat().st_size - 12, struct.pack("<Q", path.stat().st_size + 100))
    read_file_index(path)


def _bytes_before_footer(store, path, meta):
    buf = path.read_bytes()
    path.write_bytes(buf[:-12] + b"\x00" + buf[-12:])
    read_file_index(path)


def _index_value_type(store, path, meta):
    # index := entry_count u32 | series_len u16 | series | offset u64 | byte_len u32 | vt u8
    index_offset = struct.unpack("<Q", path.read_bytes()[-12:-4])[0]
    _tamper(path, index_offset + 4 + _CHUNK_HEAD + 12, b"\x09")
    read_file_index(path)


def _chunk_past_index(store, path, meta):
    index_offset = struct.unpack("<Q", path.read_bytes()[-12:-4])[0]
    _tamper(path, index_offset + 4 + _CHUNK_HEAD + 8, struct.pack("<I", 2**32 - 1))
    read_file_index(path)


def _index_series(store, path, meta):
    index_offset = struct.unpack("<Q", path.read_bytes()[-12:-4])[0]
    _tamper(path, index_offset + 4 + 2, b"X")              # "root..." -> "Xoot..."
    store.load_chunk_pages(read_file_index(path)[0])


def _index_max_ts(store, path, meta):
    # entry: series | offset u64 | byte_len u32 | vt u8 | row_count u32 | min_ts i64 | max_ts i64
    index_offset = struct.unpack("<Q", path.read_bytes()[-12:-4])[0]
    _tamper(path, index_offset + 4 + _CHUNK_HEAD + 25, struct.pack("<q", MAX_TS + 1))
    read_file_index(path)


def _chunk_value_type(store, path, meta):
    _tamper(path, meta.offset + _CHUNK_HEAD, b"\x09")
    store.load_chunk_pages(meta)


def _page_max_ts(store, path, meta):
    # chunk head: vt u8 | page_count u32 | row_count u32 | min_ts | max_ts; page: rows u32 | min_ts
    _tamper(path, meta.offset + _CHUNK_HEAD + 25 + 4 + 8, struct.pack("<q", 5))
    store.load_chunk_pages(meta)


def _page_rows_past_end(store, path, meta):
    _tamper(path, meta.offset + _CHUNK_HEAD + 25, struct.pack("<I", 10**6))
    store.load_chunk_pages(meta)


@pytest.mark.parametrize("corrupt", [
    _magic_only, _footer_past_end, _bytes_before_footer, _chunk_past_index,
    _index_series, _index_value_type, _index_max_ts, _chunk_value_type, _page_max_ts, _page_rows_past_end,
], ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("value", [float, str], ids=["float", "string"])
def test_corrupt_file_raises_corrupt_chunk(store, corrupt, value):
    handle = fill(store, S, 10, value=value)
    with pytest.raises(CorruptChunk):
        corrupt(store, handle.path, handle.chunk_index[0])


def test_corrupt_page_row_count_is_rejected_before_a_row_codec_is_built(store):
    # a codec for the 10**6 rows the page claims would take tens of MiB
    handle = fill(store, S, 10)
    codec._rows_codec.cache_clear()        # so no earlier test has built that codec already
    tracemalloc.start()
    try:
        with pytest.raises(CorruptChunk):
            _page_rows_past_end(store, handle.path, handle.chunk_index[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("index_too", [False, True], ids=["header", "header-and-index"])
def test_chunk_bounds_that_disagree_with_the_rows_raise_corrupt_chunk(store, index_too):
    handle = fill(store, S, 10)                          # rows 0..9, and the page says so
    # chunk head: vt u8 | page_count u32 | row_count u32 | min_ts i64
    _tamper(handle.path, handle.chunk_index[0].offset + _CHUNK_HEAD + 9, struct.pack("<q", 1))
    if index_too:                                        # the index agrees with the header
        handle.path.write_bytes(_index_min_ts(handle.path.read_bytes(), S, 1))
    with pytest.raises(CorruptChunk, match="disagree"):
        store.load_chunk_pages(read_file_index(handle.path)[0])


@pytest.mark.parametrize("stamps", [(4, 3), (3, 3)], ids=["swapped", "repeated"])
@pytest.mark.parametrize("value", [float, str], ids=["float", "string"])
def test_chunk_rows_out_of_timestamp_order_raise_corrupt_chunk(store, value, stamps):
    meta = fill(store, S, 10, value=value).chunk_index[0]   # one page; its bounds are rows 0 and 9
    first = meta.offset + _CHUNK_HEAD + 25 + 20   # the page's timestamp column, ts i64 each
    for i, ts in zip((3, 4), stamps):
        _tamper(meta.file_path, first + i * 8, struct.pack("<q", ts))
    with pytest.raises(CorruptChunk, match="timestamp"):
        store.load_chunk_pages(meta)


@pytest.mark.parametrize("ts", [4, 3], ids=["repeated", "behind"])
def test_a_page_that_starts_at_or_before_the_page_before_it_ends_raises_corrupt_chunk(tmp_path, ts):
    store = SeriesStore(tmp_path, page_rows=5)
    meta = fill(store, S, 10).chunk_index[0]       # two float pages: rows 0..4 and 5..9
    # each page: rows u32 | min_ts i64 | max_ts i64 | ts i64 * 5 | f64 * 5
    second = meta.offset + _CHUNK_HEAD + 25 + 20 + 5 * 8 * 2
    _tamper(meta.file_path, second + 4, struct.pack("<q", ts))      # its min_ts
    _tamper(meta.file_path, second + 20, struct.pack("<q", ts))     # and its first row's
    with pytest.raises(CorruptChunk, match="timestamp order"):
        store.load_chunk_pages(meta)


_LENGTHS = 10 * 8               # in a page of ten rows, the lengths follow the timestamps
_BODIES = _LENGTHS + 10 * 4     # and the bodies follow the lengths


@pytest.mark.parametrize("at,raw", [
    (_LENGTHS + 9 * 4, struct.pack("<I", 50)),      # the last row's string runs past the chunk
    (_LENGTHS + 3 * 4, struct.pack("<I", 2**31)),   # a middle row's string runs past the chunk
    (_BODIES + 3, b"\xff"),                         # a row's one utf-8 byte is not utf-8
], ids=["last-past-end", "middle-past-end", "utf8"])
def test_string_row_cut_short_or_not_utf8_raises_corrupt_chunk(store, at, raw):
    # columns: ts i64 * 10 | len u32 * 10 | one utf-8 byte * 10
    meta = fill(store, S, 10, value=str).chunk_index[0]
    first = meta.offset + _CHUNK_HEAD + 25 + 20
    _tamper(meta.file_path, first + at, raw)
    with pytest.raises(CorruptChunk):
        store.load_chunk_pages(meta)


def _string_page(store, values):
    """One flushed one-page STRING chunk of ``values``, and where its lengths are."""
    meta = store.flush(S, range(len(values)), values).chunk_index[0]
    assert scan_all(store, S) == list(enumerate(values))
    return meta, meta.offset + _CHUNK_HEAD + 25 + 20 + 8 * len(values)


def test_a_character_split_across_two_string_bodies_raises_corrupt_chunk(store):
    meta, lengths = _string_page(store, ["\u00e9", ""])              # bodies b"\xc3\xa9", b""
    _tamper(meta.file_path, lengths, struct.pack("<II", 1, 1))      # b"\xc3", b"\xa9": "é" only joined
    with pytest.raises(CorruptChunk, match="utf-8"):
        store.load_chunk_pages(meta)


def test_string_lengths_that_sum_past_the_chunk_raise_corrupt_chunk(store):
    meta, lengths = _string_page(store, ["ab", "cd", "ef"])
    _tamper(meta.file_path, lengths, struct.pack("<III", 2, 2, 3))  # each fits, the sum does not
    with pytest.raises(CorruptChunk, match="past the end"):
        store.load_chunk_pages(meta)


@pytest.mark.parametrize("first", ["ab", "\u00e9\u20ac"], ids=["ascii", "multibyte"])
def test_a_string_body_that_is_not_utf8_raises_corrupt_chunk(store, first):
    meta, lengths = _string_page(store, [first, "cd"])
    _tamper(meta.file_path, lengths + 8 + len(first.encode()), b"\xff")   # "cd" -> b"\xffd"
    with pytest.raises(CorruptChunk, match="utf-8"):
        store.load_chunk_pages(meta)


@pytest.mark.parametrize("version", [1, 3])
def test_a_file_of_another_format_version_raises_corrupt_chunk(store, version):
    path = fill(store, S, 10).path
    _tamper(path, 4, struct.pack("<H", version))        # header := magic | version u16
    with pytest.raises(CorruptChunk, match="version"):
        read_file_index(path)


_STRINGS = st.text(
    st.sampled_from(["a", "Z", "0", " ", "\u00e9", "\u00df", "\u20ac", "\u4e2d", "\U0001f600", "\U00010348"]),
    max_size=4,
)                                       # ASCII, empty, and 2-, 3- and 4-byte UTF-8 characters


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(_STRINGS, min_size=1, max_size=60),
    page_rows=st.sampled_from([1, 3, 7, 13]),
    chunk_rows=st.integers(min_value=1, max_value=40),
)
def test_string_pages_of_any_utf8_roundtrip(tmp_path_factory, values, page_rows, chunk_rows):
    store = SeriesStore(tmp_path_factory.mktemp("utf8"), chunk_target_rows=chunk_rows, page_rows=page_rows)
    store.flush(S, range(0, 3 * len(values), 3), values)
    assert scan_all(store, S) == list(zip(range(0, 3 * len(values), 3), values))


@settings(max_examples=200, deadline=None)
@given(
    value=st.sampled_from([float, str, bool, int]),
    at=st.integers(min_value=0),
    junk=st.binary(max_size=3),
    cut=st.integers(min_value=0, max_value=3),
)
def test_any_corrupted_file_raises_only_corrupt_chunk(tmp_path_factory, value, at, junk, cut):
    store = SeriesStore(tmp_path_factory.mktemp("corrupt"), chunk_target_rows=10, page_rows=4)
    path = fill(store, S, 25, value=value).path
    buf = path.read_bytes()
    at %= len(buf) + 1
    path.write_bytes(buf[:at] + junk + buf[at + cut:])
    try:
        for meta in read_file_index(path):
            store.load_chunk_pages(meta)
    except CorruptChunk:
        pass
