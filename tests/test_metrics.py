"""Result checksum: a pinned digest, independent of how rows are split into blocks."""

import hashlib
import struct
import tracemalloc

import pytest
from conftest import TABLE_II, make_scenario, run, small_workload
from hypothesis import given, settings
from hypothesis import strategies as st

from ced import wire
from ced.codec import I64
from ced.harness import metrics
from ced.harness.metrics import DIGEST_MEMO_ROWS, ChecksumBuilder, digest_memo
from ced.harness.scenario import QuerySpec
from ced.scanops import ResultBlock
from ced.tsstore import BLOCK_ROWS, SeriesPath, SeriesStore, TsBlock, ValueType
from ced.wire import encode_block, link_memo

ROWS = 2 * BLOCK_ROWS + 500

# sha256 over `ts i64 | cell*` per row, recorded from the row-at-a-time encoder
DIGEST = "11051275fe2a9f4d9e5f785e2e2ccc670778fe7038a9d17e1cad059f3655b368"
MIXED_DIGEST = "17cbfda522becabb69bf276f9a946881266aed20cebe79ed6454353096110a4c"


def fixed_block(lo=0, hi=ROWS) -> ResultBlock:
    """Rows lo..hi of a two-column block: strings with nulls, floats with nulls."""
    rows = range(lo, hi)
    return ResultBlock(
        [i * 1000 for i in rows],
        [
            ("t1", ValueType.STRING, [None if i % 7 == 3 else f"v{i % 1000}" for i in rows]),
            ("t3", ValueType.FLOAT64, [None if i % 5 == 0 else i * 0.37 - 100.0 for i in rows]),
        ],
    )


def digest(blocks) -> tuple[int, str]:
    builder = ChecksumBuilder()
    for block in blocks:
        builder.update(block)
    return builder.rows, builder.hexdigest()


def test_digest_of_one_block_is_pinned():
    assert digest([fixed_block()]) == (ROWS, DIGEST)


@pytest.mark.parametrize("cuts", [
    (1, 1000, 2300),
    (999, 1001, 2499),
    (BLOCK_ROWS,),
])
def test_digest_is_independent_of_block_boundaries(cuts):
    bounds = (0, *cuts, ROWS)
    blocks = [fixed_block(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert digest(blocks) == (ROWS, DIGEST)


def test_digest_encodes_each_cell_by_its_python_type():
    # bool is checked before int, and a column's declared type is not consulted
    block = ResultBlock(
        [-5, 0, 7],
        [
            ("a", ValueType.INT64, [True, 2**40, None]),
            ("b", ValueType.INT64, [-1, False, "x"]),
            ("c", ValueType.FLOAT64, [0.5, None, -0.0]),
        ],
    )
    assert digest([block]) == (3, MIXED_DIGEST)


def test_unencodable_value_is_rejected():
    with pytest.raises(TypeError):
        ChecksumBuilder().update(ResultBlock([0], [("a", ValueType.INT64, [object()])]))


# --- the digest against a per-row reference ---------------------------------------------

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


def _reference_digest(timestamps, columns) -> str:
    h = hashlib.sha256()
    for i, ts in enumerate(timestamps):
        h.update(I64.pack(ts))
        for values in columns:
            h.update(_reference_cell(values[i]))
    return h.hexdigest()


_I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_PATTERNS = st.one_of(
    st.lists(st.booleans(), min_size=1, max_size=20),
    st.lists(_I64, min_size=1, max_size=20),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=20),
    st.lists(st.text(), min_size=1, max_size=20),
    st.lists(st.sampled_from(["", "ü", "日本", "a" * 300]), min_size=1, max_size=20),
    st.lists(st.sampled_from([float("nan"), -0.0, 0.0, float("-inf")]), min_size=1, max_size=20),
    st.lists(st.sampled_from([True, 1, 0.0, False, -0.0]), min_size=1, max_size=20),   # mixed
    st.lists(st.one_of(st.none(), st.booleans(), _I64, st.floats(), st.text()),
             min_size=1, max_size=20),                                      # None and mixed
)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=2500),
    patterns=st.lists(_PATTERNS, min_size=1, max_size=4),
    start=st.integers(min_value=-(2**62), max_value=2**62),
    step=st.integers(min_value=1, max_value=2**40),
    cuts=st.lists(st.integers(min_value=0, max_value=2500), max_size=3),
)
def test_digest_equals_the_per_row_reference(rows, patterns, start, step, cuts):
    # each column repeats a short drawn pattern over rows that may cross BLOCK_ROWS;
    # the rows reach the ChecksumBuilder in one block or cut into several
    timestamps = [start + i * step for i in range(rows)]
    columns = [[p[i % len(p)] for i in range(rows)] for p in patterns]
    bounds = sorted({0, rows, *(c for c in cuts if c < rows)})
    blocks = [
        ResultBlock(timestamps[lo:hi], [(f"c{j}", ValueType.INT64, values[lo:hi])
                                        for j, values in enumerate(columns)])
        for lo, hi in zip(bounds, bounds[1:])
    ]
    assert digest(blocks) == (rows, _reference_digest(timestamps, columns))


def test_a_long_block_is_packed_in_slices_of_bounded_memory():
    # perfbench's oracle checksums Q3's 50,000-row reference result as one block
    rows = 50_000
    timestamps = list(range(rows))
    columns = [("t1", ValueType.STRING, [f"v{i % 1000}" for i in range(rows)]),
               ("t3", ValueType.FLOAT64, [i * 0.5 for i in range(rows)])]
    whole = ChecksumBuilder()
    tracemalloc.start()
    try:
        whole.update(ResultBlock(timestamps, columns))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    sliced = ChecksumBuilder()
    for lo in range(0, rows, 1000):
        sliced.update(ResultBlock(timestamps[lo:lo + 1000],
                                  [(name, vt, values[lo:lo + 1000]) for name, vt, values in columns]))
    assert (whole.rows, whole.hexdigest()) == (sliced.rows, sliced.hexdigest())


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
@pytest.mark.parametrize("repeat", [1, 1500])
def test_unencodable_cells_raise_as_before(values, error, repeat):
    column = values * repeat
    rows = len(column)
    block = ResultBlock(list(range(rows)), [("a", ValueType.FLOAT64, [0.5] * rows),
                                            ("b", ValueType.INT64, column)])
    with pytest.raises(error):
        ChecksumBuilder().update(block)


# --- full blocks through the digest memo --------------------------------------------------

EMPTY = hashlib.sha256().digest()            # the digest before the first row


def _count_packs(monkeypatch) -> list:
    """The row count of each checksum pack, and so of each SHA-256 update."""
    packs = []
    real = metrics.encode_rows

    def counted(timestamps, columns):
        packs.append(len(timestamps))
        return real(timestamps, columns)

    monkeypatch.setattr(metrics, "encode_rows", counted)
    return packs


def _nan(payload: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


def _full_columns(start=0):
    """The timestamps and two columns of BLOCK_ROWS rows, strings and floats, as
    tuples: the columns the memos hand out."""
    rows = range(start, start + BLOCK_ROWS)
    return tuple(i * 1000 for i in rows), [tuple(f"v{i % 700}" for i in rows), tuple(i * 0.37 for i in rows)]


def _result(timestamps, columns) -> ResultBlock:
    """A block over the given column objects, as each query's block over one memo's columns is."""
    return ResultBlock(timestamps, [(f"c{j}", ValueType.FLOAT64, values) for j, values in enumerate(columns)])


def test_memo_hits_equal_misses(monkeypatch):
    packs = _count_packs(monkeypatch)
    slices = [_full_columns(k * BLOCK_ROWS) for k in range(3)]
    blocks = [_result(ts, columns) for ts, columns in slices]
    builders = [ChecksumBuilder() for _ in range(4)]    # four queries return each block in turn
    for block in blocks:
        for builder in builders:
            builder.update(block)
    assert len(packs) == 3                   # each distinct prefix and block hashed once
    hits = {(builder.rows, builder.hexdigest()) for builder in builders}
    builder = ChecksumBuilder()
    for block in blocks:
        digest_memo.clear()
        builder.update(block)
    assert hits == {(builder.rows, builder.hexdigest())}
    assert builder.hexdigest() == _reference_digest([t for ts, _ in slices for t in ts],
                                                    [[v for _, cols in slices for v in cols[j]] for j in range(2)])


def test_the_same_block_after_another_prefix_never_hits(monkeypatch):
    packs = _count_packs(monkeypatch)
    first, second = _full_columns(), _full_columns(BLOCK_ROWS)
    block = _result(*second)
    for prefix in ([], [_result(*first)], [_kind_block(-5, 5, ("float",))], [_result(*first)]):
        blocks = [*prefix, block]
        assert digest(blocks)[1] == _reference_of(blocks)
    # the block after each of three prefixes is hashed, and after the repeated one it hits
    assert packs == [BLOCK_ROWS, BLOCK_ROWS, BLOCK_ROWS, 5, BLOCK_ROWS]
    assert digest_memo.rows == 4 * BLOCK_ROWS


def _middle(value):
    """The column with its middle cell replaced by ``value``, in a new tuple."""
    def make(column):
        cells = list(column)
        cells[BLOCK_ROWS // 2] = value
        return tuple(cells)
    return make


@pytest.mark.parametrize("variants", [
    [_middle(v) for v in (0.0, -0.0, 0.0)],
    [_middle(v) for v in (1, True, 1.0, 1)],
    [_middle(v) for v in (_nan(0), _nan(1), float("nan"), _nan(0) + 0.0)],
    [_middle(v) for v in (None, None, 0.0)],
    [tuple, list],
    [tuple, lambda column: tuple(list(column))],
], ids=["signed-zero", "one-true-one-point-zero", "nan-bits", "none", "list", "other-tuple"])
def test_equal_values_in_other_objects_never_hit(monkeypatch, variants):
    packs = _count_packs(monkeypatch)
    timestamps, columns = _full_columns()
    for make in variants:
        # the same timestamp and first-column tuples, and the second column
        # in another container: equal to an earlier one or one cell apart
        column = make(columns[1])
        block = _result(timestamps, [columns[0], column])
        assert digest([block])[1] == _reference_digest(timestamps, [columns[0], column])
    assert len(packs) == len(variants)       # never a hit
    assert digest_memo.get((EMPTY, timestamps[0], timestamps[-1], 2))[1] is timestamps


def test_a_data_block_and_a_result_block_never_answer_each_other(tmp_path, monkeypatch):
    packs = _count_packs(monkeypatch)
    _, (_, values) = _full_columns()
    store = SeriesStore(tmp_path)
    meta = store.flush(SeriesPath.parse("root.ln.e1.d1.t3"), [i * 1000 for i in range(BLOCK_ROWS)],
                       list(values)).chunk_index[0]
    [page] = store.load_chunk_pages(meta)
    timestamps, values = page.timestamps, page.values
    reference = _reference_digest(timestamps, [values])
    data = encode_block(page)
    assert digest([_result(timestamps, [values])])[1] == reference
    digest_memo.clear()
    assert digest([_result(timestamps, [values])])[1] == reference
    assert len(packs) == 2                   # the page's DATA payload never answered the checksum
    assert encode_block(page) == data
    assert link_memo.rows == digest_memo.rows == BLOCK_ROWS


def test_an_entry_with_fewer_columns_is_never_returned():
    timestamps, columns = _full_columns()
    key = (EMPTY, timestamps[0], timestamps[-1], 2)
    digest_memo.put(key, (hashlib.sha256(b"short"), tuple(timestamps), tuple(columns[0])), BLOCK_ROWS)
    assert digest([_result(timestamps, columns)])[1] == _reference_digest(timestamps, columns)


def test_mutating_a_block_after_update_does_not_change_the_next_digest(monkeypatch):
    packs = _count_packs(monkeypatch)
    timestamps, columns = _full_columns()
    block = _result(timestamps, columns)
    reference = _reference_digest(timestamps, columns)
    assert digest([block])[1] == reference
    for column in (timestamps, *columns):    # a memo's columns cannot be changed
        with pytest.raises(TypeError):
            column[500] = column[0]
    assert digest([block])[1] == reference
    assert len(packs) == 1                   # a miss, then a hit
    # a block over lists is packed on every call, so a change always shows
    block = _result(list(timestamps), [list(values) for values in columns])
    for row in (0, 500, BLOCK_ROWS - 1):
        digest([block])
        block.columns[0][2][row] = "changed"
        block.columns[1][2][row] = -1.5
        assert digest([block])[1] == _reference_digest(block.timestamps,
                                                       [values for _, _, values in block.columns])
    assert len(packs) == 1 + 2 * 3
    assert digest_memo.rows == BLOCK_ROWS


@pytest.mark.parametrize("rows", [1, BLOCK_ROWS - 1])
def test_a_short_block_never_enters_the_memo(rows):
    timestamps, columns = _full_columns()
    block = _result(timestamps[:rows], [values[:rows] for values in columns])
    assert digest([block] * 2) == (2 * rows, _reference_digest(
        timestamps[:rows] * 2, [values[:rows] * 2 for values in columns]))
    assert digest_memo.rows == 0
    digest([_result(timestamps, columns)])
    assert digest_memo.rows == BLOCK_ROWS


def test_the_slices_of_a_long_block_never_enter_the_memo():
    # a long block comes from outside the engine, and no other block repeats its slices
    assert digest([fixed_block()] * 2) == (2 * ROWS, _reference_digest(
        fixed_block().timestamps * 2, [values * 2 for _, _, values in fixed_block().columns]))
    assert digest_memo.rows == 0


def test_the_memo_stays_within_its_bound():
    builder = ChecksumBuilder()
    for k in range(2 * DIGEST_MEMO_ROWS // BLOCK_ROWS):
        builder.update(_result(*_full_columns(k * BLOCK_ROWS)))
        assert digest_memo.rows <= DIGEST_MEMO_ROWS
    assert digest_memo.rows == DIGEST_MEMO_ROWS


@pytest.mark.parametrize("mode", ["edge_only", "cloud_only"])
def test_concurrent_queries_pack_each_full_block_once(tmp_path, monkeypatch, mode):
    packs = _count_packs(monkeypatch)
    q3 = QuerySpec("Q3", TABLE_II["Q3"], concurrency=4)
    _, report = run(make_scenario(TABLE_II["Q3"], mode=mode, queries=(q3,)), tmp_path)
    assert [q.rows for q in report.queries] == [6 * BLOCK_ROWS] * 4
    assert len({q.checksum for q in report.queries}) == 1
    assert packs == [BLOCK_ROWS] * 6


def test_three_modes_of_q3_share_one_decode_of_each_chunk_and_pack_each_merged_block_once(tmp_path, monkeypatch):
    """Q3 reads two whole series of a 50,000-row dataset, 26 chunks of 4,000
    rows, and three runs back to back read equal chunk bytes: the edge's, a
    copy's, the cloud mirror's.  The decode memo holds that working set, and
    the digest memo the hash state after each of the 50 merged blocks, so
    the later runs hash nothing."""
    packs = _count_packs(monkeypatch)
    q3 = QuerySpec("Q3", TABLE_II["Q3"], concurrency=4)
    workload = small_workload(total_rows=50_000, chunk_rows=4000)
    decoded, checksums = 0, set()
    for mode in ("edge_only", "collaborative", "cloud_only"):
        cluster, report = run(make_scenario(
            TABLE_II["Q3"], mode=mode, queries=(q3,), workload=workload,
            monitor_enabled=True, cpu_load=4, monitor_period_s=0.02,
        ), tmp_path)
        decoded += cluster.edge_store.io.chunks_decoded + cluster.cloud_store.io.chunks_decoded
        assert [q.rows for q in report.queries] == [50_000] * 4
        checksums |= {q.checksum for q in report.queries}
    assert packs == [BLOCK_ROWS] * 50        # each merged block once, for all twelve queries
    assert decoded == 26
    assert len(checksums) == 1


def test_concurrent_cloud_queries_pack_and_decode_each_data_block_once(tmp_path, monkeypatch):
    packed, decoded = [], []
    real_pack, real_decode = wire._pack_block, wire.decode_block

    def pack(block):
        if block.row_count:
            packed.append((str(block.series_id), block.timestamps[0]))
        return real_pack(block)

    def decode(buf):
        block, end = real_decode(buf)
        if block.row_count:
            decoded.append((str(block.series_id), block.timestamps[0]))
        return block, end

    monkeypatch.setattr(wire, "_pack_block", pack)
    monkeypatch.setattr(wire, "decode_block", decode)
    q3 = QuerySpec("Q3", TABLE_II["Q3"], concurrency=4)
    _, report = run(make_scenario(TABLE_II["Q3"], mode="cloud_only", queries=(q3,)), tmp_path)
    assert [q.rows for q in report.queries] == [6 * BLOCK_ROWS] * 4
    assert len(packed) == len(set(packed)) == 2 * 6      # two series of six 1000-row blocks
    assert decoded == []                     # each payload was seeded by its packer


# Block sequences that share prefixes: each step names a pooled block, built
# once over tuples (the columns a memo hands out), or the same rows in a fresh
# list, or their first rows only.
_POOLED = [_full_columns(k * BLOCK_ROWS) for k in range(3)]


def _pooled_block(which: int, form: str) -> ResultBlock:
    timestamps, columns = _POOLED[which]
    if form == "frozen":
        return _result(timestamps, columns)
    if form == "list":
        return _result(list(timestamps), [list(values) for values in columns])
    return _result(timestamps[:7], [values[:7] for values in columns])


_SEQUENCES = st.lists(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(["frozen", "frozen", "list", "short"])),
                               max_size=5), min_size=2, max_size=4)


# Takes its example count from the profile: 60 in tier-1, 300 under --hypothesis-profile=oracle.
@settings(deadline=None)
@given(sequences=_SEQUENCES, prefix=st.lists(st.tuples(st.integers(0, 2), st.just("frozen")), max_size=3),
       order=st.randoms(use_true_random=False))
def test_builders_fed_interleaved_sequences_equal_the_memo_less_reference(sequences, prefix, order):
    """Each builder is fed a shared prefix and then its own sequence, one
    block at a time, interleaved in a drawn order, as concurrent queries
    are."""
    digest_memo.clear()
    plans = [prefix + sequence for sequence in sequences]
    builders = [ChecksumBuilder() for _ in plans]
    turns = [i for i, plan in enumerate(plans) for _ in plan]
    order.shuffle(turns)
    fed = [0] * len(plans)
    for i in turns:
        builders[i].update(_pooled_block(*plans[i][fed[i]]))
        fed[i] += 1
    for builder, plan in zip(builders, plans):
        blocks = [_pooled_block(*step) for step in plan]
        timestamps = [t for block in blocks for t in block.timestamps]
        columns = [[v for block in blocks for v in block.columns[j][2]] for j in range(2)]
        assert (builder.rows, builder.hexdigest()) == (len(timestamps), _reference_digest(timestamps, columns))


# --- blocks of every size and cell kind -------------------------------------------------

_KINDS = {
    "int": [-(2**63), 2**63 - 1, 0, -7],
    "float": [0.5, -0.0, float("nan"), float("-inf")],
    "bool": [True, False],
    "none": [None],
    "str": ["v1", "", "日本"],
    "mixed": [1, 0.0, True, None, -(2**63)],
    "mixed-str": [1.5, "x", None],
}
_SIZES = [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2500]


def _kind_block(start, rows, kinds) -> ResultBlock:
    return ResultBlock(
        [start + i for i in range(rows)],
        [(kind, ValueType.INT64, [_KINDS[kind][(start + i) % len(_KINDS[kind])]
                                  for i in range(rows)]) for kind in kinds],
    )


def _reference_of(blocks) -> str:
    h = hashlib.sha256()
    for block in blocks:
        for i, ts in enumerate(block.timestamps):
            h.update(I64.pack(ts))
            for _, _, values in block.columns:
                h.update(_reference_cell(values[i]))
    return h.hexdigest()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_SIZES), st.sampled_from(sorted(_KINDS)),
                          st.sampled_from(sorted(_KINDS))), min_size=1, max_size=6))
def test_interleaved_short_and_long_blocks_equal_the_per_row_reference(plan):
    builder, blocks, start = ChecksumBuilder(), [], 0
    for rows, first, second in plan:
        block = _kind_block(start, rows, (first, second))
        builder.update(block)
        blocks.append(block)
        start += rows
    assert (builder.rows, builder.hexdigest()) == (start, _reference_of(blocks))


def test_short_blocks_of_other_column_counts_equal_the_reference():
    blocks = [_kind_block(0, 3, ("float",)), _kind_block(3, 2, ("int", "none")),
              _kind_block(5, 4, ()), _kind_block(9, 1, ("bool",))]
    assert digest(blocks) == (10, _reference_of(blocks))


def test_a_lone_surrogate_in_a_short_block_raises_from_its_update():
    builder = ChecksumBuilder()
    builder.update(_kind_block(0, 5, ("float",)))
    with pytest.raises(UnicodeEncodeError):
        builder.update(ResultBlock([5], [("a", ValueType.STRING, ["\ud800"])]))
    assert builder.rows == 5
    assert builder.hexdigest() == _reference_of([_kind_block(0, 5, ("float",))])


@pytest.mark.parametrize("timestamps,error", [
    ([2**63], struct.error), ([-(2**63) - 1], struct.error), (["a"], struct.error),
    ([1.5], struct.error), ([object()], struct.error),
])
def test_a_short_block_with_unpackable_timestamps_raises_from_its_update(timestamps, error):
    builder = ChecksumBuilder()
    builder.update(_kind_block(0, 2, ("float",)))
    with pytest.raises(error):
        builder.update(ResultBlock(timestamps, [("a", ValueType.FLOAT64, [0.5])]))
    assert builder.hexdigest() == _reference_of([_kind_block(0, 2, ("float",))])


def test_hexdigest_twice_gives_one_value_and_updates_go_on_after_it():
    blocks = [_kind_block(0, 7, ("float", "int")), _kind_block(7, 1, ("none", "bool"))]
    builder = ChecksumBuilder()
    builder.update(blocks[0])
    first = builder.hexdigest()
    assert builder.hexdigest() == first == _reference_of(blocks[:1])
    builder.update(blocks[1])
    assert builder.hexdigest() == builder.hexdigest() == _reference_of(blocks)


def test_mutating_a_short_block_after_update_does_not_change_the_digest():
    block = _kind_block(0, 10, ("float", "mixed"))
    expected = _reference_of([_kind_block(0, 10, ("float", "mixed"))])
    builder = ChecksumBuilder()
    builder.update(block)
    block.timestamps[3] = -1
    block.columns[0][2][4] = 2.5
    block.columns[1][2].clear()
    assert builder.hexdigest() == expected
