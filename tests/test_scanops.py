"""Scan operators: the resume index, resume, skipping, filter/merge plumbing."""

import builtins
import math
import random

import pytest
from conftest import ScriptedChild, parent
from hypothesis import given, settings
from hypothesis import strategies as st

from ced import scanops
from ced.errors import GuardViolation, MisalignedOffset
from ced.queryplan import parse, plan
from ced.scanops import (
    NOT_READY,
    PENDING,
    AggregationScanOp,
    FilterOp,
    MergeOp,
    RemoteEnd,
    ResultBlock,
    RootAdapter,
    SeriesScanOp,
    WindowSpec,
    build_operator,
)
from ced.tsstore import BLOCK_ROWS, MAX_TS, SeriesPath, SeriesStore, TsBlock, ValueType

S = SeriesPath.parse("root.ln.e1.d1.t3")


def build_store(tmp_path, chunk_rows_list, value=lambda i: float(i), start_ts=0, name="data"):
    """One flush per listed chunk size, 1 ms spacing: a row's timestamp is its
    offset, so a chunk's ``max_ts + 1`` is the rows up to its end."""
    store = SeriesStore(tmp_path / name, page_rows=1000)
    ts = start_ts
    for chunk_rows in chunk_rows_list:
        timestamps = range(ts, ts + chunk_rows)
        store.flush(S, timestamps, [value(t) for t in timestamps], chunk_target_rows=chunk_rows)
        ts += chunk_rows
    return store


def resumed(leaf, index):
    """``leaf`` after ``resume_local(index)``."""
    leaf.resume_local(index)
    return leaf


def collect_rows(op) -> list:
    """Drain an operator synchronously into (ts, value) rows, or (ts, values) for a
    ResultBlock; PENDING is an error, because nothing here can make progress."""
    rows = []
    while True:
        block = op.next_block()
        if block is NOT_READY:
            continue
        if block is PENDING:
            raise RuntimeError("operator pending with no way to make progress")
        if block is None:
            return rows
        if isinstance(block, ResultBlock):
            for i, ts in enumerate(block.timestamps):
                rows.append((ts, tuple(values[i] for _, _, values in block.columns)))
        else:
            rows.extend(zip(block.timestamps, block.values))


def drain_blocks(op):
    """All emitted blocks, skipping NOT_READY progress markers."""
    blocks = []
    while True:
        b = op.next_block()
        if b is NOT_READY:
            continue
        if b is None:
            return blocks
        blocks.append(b)


def drain_scan(op):
    """(blocks, index-after-each-block) trace."""
    blocks, offsets = [], []
    while True:
        block = op.next_block()
        if block is None:
            return blocks, offsets
        blocks.append(block)
        offsets.append(op.logical_index)


# --- series scan -----------------------------------------------------------

def test_fresh_scan_blocks_and_offset_trace(tmp_path):
    store = build_store(tmp_path, [4000, 2000])
    op = SeriesScanOp(store, S)
    blocks, offsets = drain_scan(op)
    assert [b.row_count for b in blocks] == [1000] * 6
    # the index advances to max_ts + 1 only when the last block of a chunk is handed over
    assert offsets == [-(2**63)] * 3 + [4000, 4000, 6000]
    assert not op.has_next()


def test_has_next_polling_is_non_destructive(tmp_path):
    store = build_store(tmp_path, [1500, 800])
    pure = [b.row_count for b in drain_scan(SeriesScanOp(store, S))[0]]
    op = SeriesScanOp(store, S)
    polled = []
    while op.has_next():
        op.has_next(), op.has_next()
        block = op.next_block()
        polled.append(block.row_count)
    assert polled == pure


# --- resume_local: skip whole chunks from metadata (Algorithm 1) -----------------

def test_skip_positions_at_third_chunk(tmp_path):
    store = build_store(tmp_path, [4000, 4000, 2000])
    fresh = collect_rows(SeriesScanOp(store, S))
    loaded = store.io.chunks_loaded
    op = resumed(SeriesScanOp(store, S), 8000)          # the third chunk's min_ts
    assert store.io.chunks_loaded == loaded
    assert collect_rows(op) == fresh[8000:]
    assert store.io.chunks_loaded == loaded + 1          # the skipped chunks are never loaded


def test_skip_zero_is_identity(tmp_path):
    store = build_store(tmp_path, [1000, 1000])
    assert collect_rows(resumed(SeriesScanOp(store, S), -(2**63))) == collect_rows(SeriesScanOp(store, S))


def test_skip_to_total_rows_exhausts_iterator(tmp_path):
    store = build_store(tmp_path, [4000, 4000, 2000])
    op = resumed(SeriesScanOp(store, S), 10_000)        # the last max_ts + 1
    assert not op.has_next()
    assert collect_rows(op) == []


def test_skip_beyond_data_exhausts_not_raises(tmp_path):
    store = build_store(tmp_path, [1000])
    assert collect_rows(resumed(SeriesScanOp(store, S), 5000)) == []


def test_intra_chunk_offset_rejected(tmp_path):
    store = build_store(tmp_path, [1000, 1000])
    with pytest.raises(MisalignedOffset):
        SeriesScanOp(store, S).resume_local(1500)


# --- resume from a start index -----------------------------------------------------

def test_resume_suffix_equality_at_chunk_boundary(tmp_path):
    store = build_store(tmp_path, [4000, 2000])
    fresh = collect_rows(SeriesScanOp(store, S))
    resumed_rows = collect_rows(resumed(SeriesScanOp(store, S), 4000))
    assert resumed_rows == fresh[4000:]


def test_resume_zero_equals_fresh(tmp_path):
    store = build_store(tmp_path, [1200, 600])
    assert collect_rows(resumed(SeriesScanOp(store, S), 0)) == collect_rows(SeriesScanOp(store, S))


def test_resume_suffix_property_random_layouts(tmp_path):
    rng = random.Random(23)
    for trial in range(25):
        layout = [rng.randrange(1, 40) * 25 for _ in range(rng.randrange(1, 6))]
        store = build_store(tmp_path, layout, name=f"r{trial}")
        fresh = collect_rows(SeriesScanOp(store, S))
        boundary = 0
        for rows in layout[: rng.randrange(0, len(layout) + 1)]:
            boundary += rows
        assert fresh[:boundary] + collect_rows(resumed(SeriesScanOp(store, S), boundary)) == fresh


def test_export_guard_rejects_in_flight_blocks(tmp_path):
    store = build_store(tmp_path, [2000])
    op = SeriesScanOp(store, S)
    op.next_block()   # one block of the chunk returned, one still in flight
    with pytest.raises(GuardViolation):
        op.export_index()


# --- aggregation scan -------------------------------------------------------------

def brute_force_windows(rows, spec, fn):
    """Independent oracle: per-window aggregate over a materialized row list."""
    out = []
    for lo in range(spec.lo, spec.hi, spec.width):
        hi = min(lo + spec.width, spec.hi)
        inside = [v for ts, v in rows if lo <= ts < hi]
        if fn == "count":
            out.append((lo, len(inside)))
        else:
            out.append((lo, max(inside) if inside else None))
    return out


def test_count_windows_match_brute_force_uniform(tmp_path):
    store = build_store(tmp_path, [3000])
    spec = WindowSpec(0, 3000, 500)
    op = AggregationScanOp(store, S, spec, "count")
    rows = collect_rows(SeriesScanOp(store, S))
    assert collect_rows(op) == brute_force_windows(rows, spec, "count") == [
        (i * 500, 500) for i in range(6)
    ]


def test_empty_window_emits_zero_count_and_null_max(tmp_path):
    # rows only in [0, 100); window range extends to 300
    store = build_store(tmp_path, [100])
    spec = WindowSpec(0, 300, 100)
    assert collect_rows(AggregationScanOp(store, S, spec, "count")) == [
        (0, 100), (100, 0), (200, 0)
    ]
    assert collect_rows(AggregationScanOp(store, S, spec, "max_value")) == [
        (0, 99.0), (100, None), (200, None)
    ]


def test_max_value_literal_from_value_pool(tmp_path):
    store = SeriesStore(tmp_path)
    store.flush(S, [0, 1, 2], [1.0, 497.44467, 3.5])
    spec = WindowSpec(0, 3, 3)
    assert collect_rows(AggregationScanOp(store, S, spec, "max_value")) == [(0, 497.44467)]


def test_agg_skip_soundness_and_io_counters(tmp_path):
    rng = random.Random(5)
    for trial in range(20):
        layout = [rng.randrange(2, 30) * 10 for _ in range(rng.randrange(2, 6))]
        store = build_store(tmp_path, layout, value=lambda t: (t * 37 % 1000) / 3.0, name=f"g{trial}")
        total = sum(layout)
        width = rng.randrange(1, total // 2)
        spec = WindowSpec(0, total, width)
        rows = collect_rows(SeriesScanOp(store, S))
        oracle = brute_force_windows(rows, spec, "max_value")
        # resume mid-range: every window before the index was already served
        k = rng.randrange(0, len(oracle))
        resume_ts = spec.lo + k * width
        op = resumed(AggregationScanOp(store, S, spec, "max_value"), resume_ts)
        assert collect_rows(op) == oracle[k:]
        eligible = any(m.max_ts < resume_ts for m in store.chunk_metas(S))
        if eligible:
            assert op.chunks_skipped >= 1


def test_window_start_resume_identity(tmp_path):
    store = build_store(tmp_path, [600])
    spec = WindowSpec(0, 600, 100)
    fresh = collect_rows(AggregationScanOp(store, S, spec, "count"))
    assert fresh == collect_rows(resumed(AggregationScanOp(store, S, spec, "count"), 0))


def test_misaligned_window_start_rejected(tmp_path):
    store = build_store(tmp_path, [600])
    spec = WindowSpec(0, 600, 100)
    with pytest.raises(MisalignedOffset):
        AggregationScanOp(store, S, spec, "count").resume_local(123)


def test_export_guard_rejects_partial_window(tmp_path):
    store = build_store(tmp_path, [600, 900])
    op = AggregationScanOp(store, S, WindowSpec(0, 1500, 1500), "count")
    assert op.next_block() is NOT_READY      # window 0 needs a second chunk load
    assert not op.at_boundary()
    with pytest.raises(GuardViolation):
        op.export_index()


# --- source switch, for either leaf -------------------------------------------------

SWITCH_LAYOUT = [600, 900, 500, 1200, 800, 700, 1300]     # 6000 rows, uneven chunks

SWITCH_LEAVES = {
    "series": lambda store: SeriesScanOp(store, S),
    # 1500 ms windows span chunks, so windows are held partial across calls
    "aggregation": lambda store: AggregationScanOp(store, S, WindowSpec(0, 6000, 1500), "max_value"),
}


def _mid_unit(leaf):
    return not leaf.at_boundary()


class StubRemote:
    """A RemoteSource serving a fresh scan from the activated index.

    The first poll is PENDING.  With ``end="remigrate"`` it streams until
    its producer has emitted a block and stands at a boundary, then ends
    with that boundary; ``end="broken"`` fails before any data, as a
    handshake timeout does.
    """

    def __init__(self, make_leaf, store, end):
        self.make_leaf = make_leaf
        self.store = store
        self.end = end
        self.activated = []
        self.blocks = []
        self.final_index = None
        self.items = []

    def activate(self, index):
        self.activated.append(index)
        self.final_index = index
        if self.end == "remigrate":
            producer = resumed(self.make_leaf(self.store), index)
            while not self.blocks or _mid_unit(producer):
                block = producer.next_block()
                if block is not NOT_READY:
                    self.blocks.append(block)
            self.final_index = producer.export_index()
        self.items = [PENDING, *self.blocks, RemoteEnd(self.end, self.final_index)]

    def poll(self):
        return self.items.pop(0)


@pytest.mark.parametrize("end", ["remigrate", "broken"])
@pytest.mark.parametrize("kind", sorted(SWITCH_LEAVES))
def test_leaf_switch_to_remote_and_back_equals_fresh_scan(tmp_path, kind, end):
    make_leaf = SWITCH_LEAVES[kind]
    store = build_store(tmp_path, SWITCH_LAYOUT)
    fresh = collect_rows(make_leaf(store))
    leaf = make_leaf(store)
    remote = StubRemote(make_leaf, store, end)
    armed_at = None
    out = []
    while True:
        block = leaf.next_block()
        if block is PENDING:
            assert leaf.source_mode == "remote"
            continue
        if block is None:
            break
        if block is not NOT_READY:
            out.extend(zip(block.timestamps, block.values))
        if armed_at is None and out and _mid_unit(leaf):
            # armed mid-chunk / mid-window: the switch waits for the boundary
            armed_at = leaf.logical_index
            leaf.request_switch(remote)
    assert out == fresh
    assert not leaf.has_next() and leaf.source_mode == "local"

    [index] = remote.activated
    assert index > armed_at
    if kind == "series":
        boundaries = [m.max_ts + 1 for m in store.chunk_metas(S)]
        assert index in boundaries                       # between chunks
    else:
        assert index % 1500 == 0                         # a window start
    assert leaf.rows_remote == sum(b.row_count for b in remote.blocks)
    if end == "remigrate":
        assert remote.blocks
    assert remote.final_index <= fresh[-1][0]            # local rows follow the remote ones


# --- the resume rule, for either leaf, over random layouts -------------------------

@st.composite
def resume_cases(draw):
    """A series in random chunks and pages, with gaps, anywhere in the store's
    timestamp range, and a window spec of at most 40 windows over it."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    offsets, chunks = 0, []
    for size in draw(st.lists(st.integers(1, 300), min_size=1, max_size=6)):
        chunk = []
        for _ in range(size):
            chunk.append(offsets)
            offsets += rng.choice((1,) * 6 + (2, 7, 500))
        chunks.append(chunk)
    span = chunks[-1][-1]
    first = draw(st.sampled_from([-(2**63), -1000, 0, MAX_TS - span]))   # both ends of the range
    chunks = [[first + t for t in chunk] for chunk in chunks]
    lo = max(-(2**63), first - rng.randint(0, 20))
    hi = min(2**63 - 1, first + span + 1 + rng.randint(0, 40))
    width = max(1, round(math.exp(rng.uniform(math.log(max(1, (hi - lo) // 40)), math.log(hi - lo)))))
    return dict(chunks=chunks, spec=WindowSpec(lo, hi, width), page_rows=draw(st.sampled_from([3, 50, 1000])))


def _boundary_trace(leaf):
    """A fresh scan's rows, and each boundary index it reaches with the rows delivered before it."""
    rows, trace = [], [(leaf.logical_index, 0)]
    while True:
        block = leaf.next_block()
        if block is None:
            return rows, trace
        if block is not NOT_READY:
            rows.extend(zip(block.timestamps, block.values))
        if leaf.at_boundary() and leaf.logical_index != trace[-1][0]:
            trace.append((leaf.logical_index, len(rows)))


@settings(deadline=None)
@given(resume_cases())
@pytest.mark.parametrize("kind", ["series", "aggregation"])
def test_resuming_from_every_boundary_index_yields_the_fresh_suffix(tmp_path_factory, kind, case):
    store = SeriesStore(tmp_path_factory.mktemp("resume"), page_rows=case["page_rows"])
    for chunk in case["chunks"]:
        store.flush(S, chunk, [t % 997 for t in chunk], chunk_target_rows=len(chunk))
    spec = case["spec"]
    if kind == "series":
        make = lambda: SeriesScanOp(store, S)                    # noqa: E731
        # every timestamp strictly inside a chunk: past its min_ts, up to its max_ts
        misaligned = [t for c in case["chunks"] if len(c) > 1 for t in (c[0] + 1, c[len(c) // 2], c[-1])]
    else:
        make = lambda: AggregationScanOp(store, S, spec, "max_value")     # noqa: E731
        # anything but a window start below hi, or hi
        candidates = (spec.lo - 1, spec.lo + 1, spec.lo + spec.width // 2, spec.hi - 1, spec.hi + 1)
        misaligned = [t for t in candidates if t != spec.hi and not (
            spec.lo <= t < spec.hi and (t - spec.lo) % spec.width == 0)]
    rows, trace = _boundary_trace(make())
    assert len(trace) > 1
    for index, delivered in trace:
        assert collect_rows(resumed(make(), index)) == rows[delivered:], index
    for t in misaligned:
        with pytest.raises(MisalignedOffset):
            make().resume_local(t)


# --- filter / merge ----------------------------------------------------------------

def test_filter_brute_force_oracle_single_match(tmp_path):
    store = build_store(tmp_path, [3000], value=lambda t: "v999" if t == 1700 else f"v{t % 999}")
    scan = SeriesScanOp(store, S)
    filt = FilterOp(scan, "=", "v999")
    blocks = drain_blocks(filt)
    assert len(blocks) == 1 and blocks[0].row_count == 1
    assert blocks[0].timestamps == [1700]


def test_filter_always_true_is_identity(tmp_path):
    store = build_store(tmp_path, [2500])
    rows = collect_rows(FilterOp(SeriesScanOp(store, S), ">=", -1.0))
    assert rows == collect_rows(SeriesScanOp(store, S))


def test_filter_rebatches_to_block_rows(tmp_path):
    store = build_store(tmp_path, [3000], value=lambda t: float(t % 2))
    filt = FilterOp(SeriesScanOp(store, S), "=", 1.0)
    sizes = [b.row_count for b in drain_blocks(filt)]
    assert sizes == [1000, 500]


NAN = float("nan")      # one NaN object, so a NaN literal can be the very object a row holds
FILTER_POOL = [None, NAN, float("nan"), 0, 1, 2, True, False, 0.0, -0.0, 1.0, 2.5, "a", "", "ü"]
FILTER_LITERALS = [0, 1, True, False, 0.0, -0.0, 1.0, 2.5, "a", "", "ü", NAN, float("nan")]


def _reference_filter(blocks, literal):
    """The row loop: a row is kept when its value is not None and ``value == literal``."""
    return [(ts, value) for block in blocks for ts, value in zip(block.timestamps, block.values)
            if value is not None and value == literal]


@settings(max_examples=200, deadline=None)
@given(
    pattern=st.lists(st.sampled_from(FILTER_POOL), min_size=1, max_size=30),
    sizes=st.lists(st.integers(min_value=1, max_value=BLOCK_ROWS), min_size=1, max_size=4),
    literal=st.sampled_from(FILTER_LITERALS),
)
def test_equality_filter_keeps_the_rows_of_the_row_loop(pattern, sizes, literal):
    blocks, ts = [], 0
    for n in sizes:
        blocks.append(TsBlock(S, list(range(ts, ts + n)),
                              [pattern[i % len(pattern)] for i in range(ts, ts + n)],
                              ValueType.FLOAT64))
        ts += n
    filt = FilterOp(ScriptedChild("s", blocks, []), "=", literal)
    out = [(t, v) for block in drain_blocks(filt) for t, v in zip(block.timestamps, block.values)]
    expected = _reference_filter(blocks, literal)
    # the same rows, and in each the very value object the child produced
    assert [(t, id(v)) for t, v in out] == [(t, id(v)) for t, v in expected]
    assert (filt.rows_in, filt.rows_out) == (ts, len(expected))


def test_merge_identical_timestamps_two_columns(tmp_path):
    store = build_store(tmp_path, [500])
    m = MergeOp([SeriesScanOp(store, S), SeriesScanOp(store, S)], ["a", "b"])
    out = []
    while True:
        block = m.next_block()
        if block is NOT_READY:
            continue
        if block is None:
            break
        assert isinstance(block, ResultBlock)
        assert [name for name, _, _ in block.columns] == ["a", "b"]
        out.extend(zip(block.timestamps, block.columns[0][2], block.columns[1][2]))
    assert len(out) == 500
    assert all(a == b for _, a, b in out)


def test_merge_null_fills_missing_timestamps(tmp_path):
    s2 = SeriesPath.parse("root.ln.e1.d1.t9")
    store = SeriesStore(tmp_path)
    store.flush(S, [0, 2, 4], [0.0, 2.0, 4.0])
    store.flush(s2, [1, 2, 3], [10.0, 20.0, 30.0])
    m = MergeOp([SeriesScanOp(store, S), SeriesScanOp(store, s2)], ["x", "y"])
    rows = collect_rows(m)
    assert rows == [
        (0, (0.0, None)),
        (1, (None, 10.0)),
        (2, (2.0, 20.0)),
        (3, (None, 30.0)),
        (4, (4.0, None)),
    ]


def test_build_operator_from_plan_q1_shape(tmp_path):
    store = build_store(tmp_path, [1000], value=lambda t: f"v{t % 1000}")
    scans = plan(parse("SELECT t3 FROM d1 WHERE t3='v999'"), store, parent(S))
    op, leaves = build_operator(scans, store)
    assert isinstance(op, RootAdapter) and isinstance(op.child, FilterOp)
    assert len(leaves) == 1 and isinstance(leaves[0], SeriesScanOp)
    rows = collect_rows(op)
    assert rows == [(999, ("v999",))]


def _blocks(lo, hi, step, value):
    """range(lo, hi, step) as full blocks of BLOCK_ROWS rows, the last one partial."""
    span = BLOCK_ROWS * step
    return [TsBlock(S, list(range(s, min(s + span, hi), step)),
                    [value(t) for t in range(s, min(s + span, hi), step)],
                    ValueType.FLOAT64)
            for s in range(lo, hi, span)]


MERGE_SCRIPTS = {
    # a and b agree on 0..2199; b then drifts to odd timestamps and ends before a
    "a": [*_blocks(0, 1000, 1, float), PENDING, *_blocks(1000, 2500, 1, float), NOT_READY,
          *_blocks(2500, 3001, 2, float)],
    "b": [*_blocks(0, 600, 1, str), *_blocks(600, 1600, 1, str), NOT_READY, *_blocks(1600, 2200, 1, str),
          PENDING, *_blocks(2201, 2602, 2, str)],
    # c is misaligned with both and ends first
    "c": _blocks(3, 901, 3, int),
}

# child calls and MergeOp returns, recorded from the row-at-a-time MergeOp:
# "a?" has_next, "a!" next_block, P PENDING, N NOT_READY, Bn an n-row block, E end
MERGE_TRACES = {
    "ab": (
        "a? a! b? b! N b? b! a? a! B1000 "
        "a? a! b? b! N "
        "b? b! a? a! B1000 "
        "b? b! P "
        "b? b! a? a! N "
        "a? a! b? a? B802 E"
    ),
    "abc": (
        "a? a! b? b! c? c! N b? b! c? a? a! B1000 "
        "a? a! b? b! N "
        "b? b! a? a! B1000 "
        "b? b! P "
        "b? b! a? a! N "
        "a? a! b? a? B802 E"
    ),
}


def _reference_merge(children):
    rows = {}
    for k, name in enumerate(children):
        for block in MERGE_SCRIPTS[name]:
            if isinstance(block, TsBlock):
                for ts, value in zip(block.timestamps, block.values):
                    rows.setdefault(ts, [None] * len(children))[k] = value
    return [(ts, tuple(rows[ts])) for ts in sorted(rows)]


@pytest.mark.parametrize("children", sorted(MERGE_TRACES))
def test_merge_child_calls_and_blocks_are_pinned(children):
    log = []
    merge = MergeOp([ScriptedChild(n, MERGE_SCRIPTS[n], log) for n in children], list(children))
    rows = []
    while True:
        block = merge.next_block()
        if block is PENDING or block is NOT_READY:
            log.append("P" if block is PENDING else "N")
            continue
        if block is None:
            log.append("E")
            break
        log.append(f"B{block.row_count}")
        assert [name for name, _, _ in block.columns] == list(children)
        rows.extend((ts, tuple(col[i] for _, _, col in block.columns))
                    for i, ts in enumerate(block.timestamps))
    assert " ".join(log) == MERGE_TRACES[children]
    assert rows == _reference_merge(children)


def test_a_stall_holds_the_partial_block_and_only_it_keeps_has_next_true():
    log = []
    a = ScriptedChild("a", _blocks(0, 500, 1, float), log)
    b = ScriptedChild("b", [*_blocks(0, 500, 1, str), NOT_READY], log)
    merge = MergeOp([a, b], ["a", "b"])
    assert merge.next_block() is NOT_READY          # 500 rows merged, each child pulled once
    assert merge.next_block() is NOT_READY          # a ends, then b stalls
    assert not a.script and not b.script            # the children are used up ...
    assert merge.has_next()                         # ... and the held rows remain
    block = merge.next_block()
    assert block.timestamps == list(range(500))
    assert [col for _, _, col in block.columns] == [
        [float(t) for t in range(500)], [str(t) for t in range(500)]]
    assert not merge.has_next() and merge.next_block() is None
    assert " ".join(log) == "a? a! b? b! a? b? b! b?"


def _tuple_block(stamps, value):
    """One block over tuples, as a memo hands its columns out."""
    return TsBlock(S, tuple(stamps), tuple(map(value, stamps)), ValueType.FLOAT64)


def test_an_aligned_full_block_is_its_childrens_own_tuples():
    a = [_tuple_block(range(k, k + BLOCK_ROWS), float) for k in (0, BLOCK_ROWS)]
    b = [_tuple_block(range(k, k + BLOCK_ROWS), str) for k in (0, BLOCK_ROWS)]
    log = []
    merge = MergeOp([ScriptedChild("a", a, log), ScriptedChild("b", b, log)], ["a", "b"])
    for block_a, block_b in zip(a, b):
        block = merge.next_block()
        assert block.timestamps is block_a.timestamps
        assert all(col is child.values for (_, _, col), child in zip(block.columns, (block_a, block_b)))
    assert merge.next_block() is None


@pytest.mark.parametrize("scripts", [
    {   # an aligned segment of 300 rows, then a misaligned one: b has no row at 500
        "a": [_tuple_block(range(BLOCK_ROWS), float)],
        "b": [_tuple_block(range(300), str),
              _tuple_block([t for t in range(300, BLOCK_ROWS) if t != 500], str)],
    },
    {   # two aligned segments with a stall between them
        "a": [_tuple_block(range(BLOCK_ROWS), float)],
        "b": [_tuple_block(range(500), str), NOT_READY, _tuple_block(range(500, BLOCK_ROWS), str)],
    },
], ids=["misaligned", "stall"])
def test_a_block_of_several_segments_is_fresh_lists(scripts):
    trace = _trace(MergeOp, scripts)
    assert trace == _trace(RowMergeOp, scripts)
    (timestamps, columns), = [step for step in trace if type(step) is tuple]
    assert len(timestamps) == BLOCK_ROWS
    children = [block for script in scripts.values() for block in script if isinstance(block, TsBlock)]
    for column in (timestamps, *(col for _, _, col in columns)):
        assert type(column) is list
        assert all(column is not child.timestamps and column is not child.values for child in children)


class RowMergeOp(MergeOp):
    """Reference: the row-at-a-time merge over list buffers popped from the front."""

    def __init__(self, children, columns):
        super().__init__(children, columns)
        self._buf_ts = [[] for _ in children]
        self._buf_values = [[] for _ in children]

    def _refill(self, i):
        while not self._buf_ts[i] and not self._done[i]:
            if not self.children[i].has_next():
                self._done[i] = True
                break
            block = self.children[i].next_block()
            self._pulled.add(i)
            if block is PENDING or block is NOT_READY:
                return block
            if block is None:
                self._done[i] = True
                break
            self._buf_ts[i].extend(block.timestamps)
            self._buf_values[i].extend(block.values)
            self._types[i] = block.value_type
        return True

    def next_block(self):
        self._pulled.clear()
        for i in range(len(self.children)):
            state = self._refill(i)
            if state is not True:
                return state
        out_ts, out_cols = [], [[] for _ in self.children]
        given = [[] for _ in self.children]         # the (ts, value) rows each child gave this call
        while len(out_ts) < BLOCK_ROWS:
            heads = [ts[0] if ts else None for ts in self._buf_ts]
            live = [h for h in heads if h is not None]
            if not live:
                break
            ts = min(live)
            out_ts.append(ts)
            ask_pacing = True       # once per row that uses a child up, before its refills
            for i, head in enumerate(heads):
                if head == ts:
                    value = self._buf_values[i].pop(0)
                    out_cols[i].append(value)
                    given[i].append((self._buf_ts[i].pop(0), value))
                    if not self._buf_ts[i]:
                        if ask_pacing and len(self._pulled) == len(self.children) and len(out_ts) < BLOCK_ROWS:
                            state = NOT_READY           # every child pulled once this call
                        else:
                            state = self._refill(i)
                        ask_pacing = False
                        if state is not True and len(out_ts) < BLOCK_ROWS:
                            for k, rows in enumerate(given):
                                self._buf_ts[k][:0] = [t for t, _ in rows]
                                self._buf_values[k][:0] = [v for _, v in rows]
                            return state
                else:
                    out_cols[i].append(None)
        if not out_ts:
            return None
        return ResultBlock(out_ts, [(n, vt, c) for n, vt, c in zip(self.columns, self._types, out_cols)])


@st.composite
def merge_scripts(draw):
    """Children over one timestamp domain with a few holes and None cells each, in random blocks."""
    domain = range(draw(st.integers(1, 2600)))
    scripts = {}
    for name in "abc"[:draw(st.integers(1, 3))]:
        holes = draw(st.sets(st.integers(0, len(domain)), max_size=6))
        if draw(st.booleans()):
            holes |= set(range(draw(st.integers(0, len(domain))), len(domain), 2))
        stamps = [t for t in domain if t not in holes]
        nulls = draw(st.sets(st.sampled_from(stamps), max_size=6)) if stamps else set()
        script, lo = [], 0
        while lo < len(stamps):
            hi = lo + draw(st.integers(1, 1000))
            if draw(st.integers(0, 4)) == 0:
                script.append(draw(st.sampled_from([PENDING, NOT_READY])))
            script.append(TsBlock(S, stamps[lo:hi],
                                  [None if t in nulls else f"{name}{t}" for t in stamps[lo:hi]],
                                  ValueType.STRING))
            lo = hi
        scripts[name] = script
    return scripts


def _trace(merge_cls, scripts):
    log = []
    merge = merge_cls([ScriptedChild(n, s, log) for n, s in scripts.items()], list(scripts))
    while True:
        block = merge.next_block()
        log.append(block if block is None or block is PENDING or block is NOT_READY
                   else (block.timestamps, block.columns))
        if block is None:
            return log


@settings(max_examples=150, deadline=None)
@given(merge_scripts())
def test_merge_matches_row_at_a_time_reference(scripts):
    assert _trace(MergeOp, scripts) == _trace(RowMergeOp, scripts)


# --- aggregation: window-at-a-time against the row-at-a-time reference --------------

class RowAggregationScanOp(AggregationScanOp):
    """Reference: the row-at-a-time window loop over its own chunk buffer."""

    def _open_local(self, index):
        super()._open_local(index)
        self._rows_ts, self._rows_values, self._rows_pos = [], [], 0

    def _next_local(self):
        if self.logical_index >= self.spec.hi:
            return None
        if self._partial is None:
            window_start, window_end = self.spec.window_at(self.logical_index)
            count, maximum = 0, None
        else:
            (window_start, window_end), (count, maximum) = self._partial
        loads_budget = 1
        while True:
            ts, value, loaded = self._peek_row(window_start, window_end, loads_budget)
            loads_budget -= loaded
            if ts == "defer":
                self._partial = ((window_start, window_end), (count, maximum))
                return NOT_READY
            if ts is None or ts >= window_end:
                break
            self._rows_pos += 1
            self.rows_local += 1
            if ts < window_start:
                continue
            count += 1
            if maximum is None or value > maximum:
                maximum = value
        self._partial = None
        block = TsBlock(self.series, [window_start], [count if self.fn == "count" else maximum],
                        self._value_type)
        self.logical_index = min(window_end, self.spec.hi)
        return block

    def _peek_row(self, window_start, window_end, loads_budget):
        loads = 0
        while self._rows_pos >= len(self._rows_ts):
            if not self._iterator.has_next():
                return None, None, loads
            meta = self._iterator.peek()
            if meta.max_ts < window_start:
                self._iterator.advance()
                self.chunks_skipped += 1
                continue
            if meta.min_ts >= window_end:
                return meta.min_ts, None, loads
            if loads_budget - loads <= 0:
                return "defer", None, loads
            self._iterator.advance()
            blocks = self.store.load_chunk_pages(meta)
            self._rows_ts = [t for b in blocks for t in b.timestamps]
            self._rows_values = [v for b in blocks for v in b.values]
            self._rows_pos = 0
            loads += 1
        return self._rows_ts[self._rows_pos], self._rows_values[self._rows_pos], loads


_NAN = float("nan")
AGG_VALUE_POOLS = {
    "float": [_NAN, 0.0, -0.0, 1.5, 1.5, -2.0, float("inf")],    # ties, NaN first or later
    "int": [-3, 0, 7, 7, 2**40],
    "str": ["", "a", "b", "b", "ab", "ü"],
}


@st.composite
def aggregation_cases(draw):
    """A series in random chunks, a window spec and a resume point."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    values = AGG_VALUE_POOLS[draw(st.sampled_from(sorted(AGG_VALUE_POOLS)))]
    pool = rng.sample(values, draw(st.integers(1, 3)))    # few values: many ties
    if draw(st.booleans()):
        pool.append(values[0])                              # NaN, for FLOAT64
    layout = draw(st.lists(st.integers(1, 1200), min_size=1, max_size=8))
    ts = draw(st.integers(0, 50))
    chunks = []
    for size in layout:
        rows = []
        for _ in range(size):
            rows.append((ts, rng.choice(pool)))
            ts += rng.choice((1,) * 12 + (2, 3, 400))
        chunks.append(rows)
    first, last = chunks[0][0][0], chunks[-1][-1][0]
    lo = rng.randint(first - 20, (first + last) // 2)
    span = max(1, last - lo)
    width = round(math.exp(rng.uniform(math.log(max(1, span // 600)), math.log(span))))   # log-uniform
    hi = last + rng.randint(1, 40) if rng.random() < 0.5 else lo + rng.randint(1, last - lo + 40)
    start = lo + width * rng.randint(0, (hi - lo - 1) // width)
    return dict(
        chunks=chunks, spec=WindowSpec(lo, hi, width), start=start,
        page_rows=draw(st.sampled_from([3, 250, 1000])),
    )


def _aggregation_trace(op_cls, store, case, fn):
    """Each call's return (NOT_READY, None or the block) and its rows_local delta."""
    op = resumed(op_cls(store, S, case["spec"], fn), case["start"])
    loaded = store.io.chunks_loaded
    log = []
    while True:
        before = op.rows_local
        block = op.next_block()
        delta = op.rows_local - before
        if block is None or block is NOT_READY:
            log.append((block, delta))
        else:
            log.append((block.timestamps, repr(block.values), block.value_type, delta))
        if block is None:
            return log, op.chunks_skipped, store.io.chunks_loaded - loaded


@settings(max_examples=100, deadline=None)
@given(aggregation_cases())
@pytest.mark.parametrize("fn", ["count", "max_value"])
def test_aggregation_matches_row_at_a_time_reference(tmp_path_factory, fn, case):
    store = SeriesStore(tmp_path_factory.mktemp("agg"), page_rows=case["page_rows"])
    for rows in case["chunks"]:
        store.flush(S, [t for t, _ in rows], [v for _, v in rows], chunk_target_rows=len(rows))
    expected = _aggregation_trace(RowAggregationScanOp, store, case, fn)
    assert _aggregation_trace(AggregationScanOp, store, case, fn) == expected


@pytest.mark.parametrize("chunks,expected", [
    ([[_NAN, 1.5], [2.0]], "nan"),                 # NaN first: nothing compares greater
    ([[1.5, _NAN], [_NAN, 2.0]], "2.0"),           # NaN later: skipped
    ([[0.0], [-0.0]], "0.0"),                      # a tie keeps the first
    ([[-0.0], [0.0, -1.0]], "-0.0"),
])
def test_max_value_carried_across_chunks_keeps_ties_and_nan(tmp_path, chunks, expected):
    store = SeriesStore(tmp_path)
    ts = 0
    for values in chunks:
        store.flush(S, range(ts, ts + len(values)), values)
        ts += len(values)
    case = {"spec": WindowSpec(0, ts, ts), "start": 0}
    trace = _aggregation_trace(AggregationScanOp, store, case, "max_value")
    assert trace == _aggregation_trace(RowAggregationScanOp, store, case, "max_value")
    log, _, loaded = trace
    assert [entry[1] for entry in log if len(entry) == 4] == [f"[{expected}]"]
    assert loaded == len(chunks)


# --- page answers: concurrent and repeated scans share them -----------------------

class RowFilterOp(FilterOp):
    """Reference: the row loop for every operator, equality included."""

    def __init__(self, child, op, literal):
        super().__init__(child, op, literal)
        self._find_equal = False


SHARED_VALUE_POOLS = {
    ValueType.BOOL: [True, False],
    ValueType.INT64: [0, 1, 1, -1, 2**40],
    ValueType.FLOAT64: [0.0, -0.0, 1.0, 1.0, _NAN, 2.5],     # ties, both zeros, NaN
    ValueType.STRING: ["", "a", "a", "1", "ü"],
}
SHARED_LITERALS = [1, 1.0, True, False, 0, 0.0, -0.0, 2.5, _NAN, "a", "1", "ü"]


@st.composite
def shared_scan_cases(draw):
    """A series of one value type in random chunks and pages, and 2-4 scans of
    it: equality filters from a chunk boundary, or windowed aggregations from
    a window start."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    vt = draw(st.sampled_from(sorted(SHARED_VALUE_POOLS)))
    pool = SHARED_VALUE_POOLS[vt]
    layout = draw(st.lists(st.integers(1, 2500), min_size=1, max_size=4))
    ts, chunks = draw(st.integers(0, 50)), []
    for size in layout:
        rows = []
        for _ in range(size):
            rows.append((ts, rng.choice(pool)))
            ts += rng.choice((1,) * 12 + (2, 3, 400))
        chunks.append(rows)
    first, last = chunks[0][0][0], chunks[-1][-1][0]
    scans = []
    for _ in range(draw(st.integers(2, 4))):
        if draw(st.booleans()):
            start = rng.choice([-(2**63)] + [rows[-1][0] + 1 for rows in chunks])
            scans.append(("filter", draw(st.sampled_from(SHARED_LITERALS)), start))
            continue
        lo = rng.randint(first - 20, (first + last) // 2)
        width = rng.choice([1, 7, 250, 999, 1000, 1500, max(1, last - lo)])
        hi = last + rng.randint(1, 40)
        start = lo + width * rng.randint(0, (hi - lo - 1) // width)
        scans.append((draw(st.sampled_from(["count", "max_value"])), WindowSpec(lo, hi, width), start))
    return dict(vt=vt, chunks=chunks, page_rows=draw(st.sampled_from([3, 250, 1000])), scans=scans,
                rounds=draw(st.integers(1, 2)))


def _shared_scan_op(store, scan, reference):
    """The op of ``scan``, or its row-at-a-time reference, its leaf and its kind."""
    kind, arg, start = scan
    if kind == "filter":
        leaf = resumed(SeriesScanOp(store, S), start)
        return (RowFilterOp if reference else FilterOp)(leaf, "=", arg), leaf, kind
    leaf = resumed((RowAggregationScanOp if reference else AggregationScanOp)(store, S, arg, kind), start)
    return leaf, leaf, kind


def _step_trace(op, leaf, kind):
    """One call's return and the leaf's rows_local delta; a filter's rows and
    a maximum are the very value objects of the pages."""
    before = leaf.rows_local
    block = op.next_block()
    delta = leaf.rows_local - before
    if block is None or block is NOT_READY:
        return block, (block, delta)
    values = list(block.values)
    objects = None if kind == "count" else [id(v) for v in values]
    return block, (list(block.timestamps), repr(values), objects, block.value_type, delta)


@settings(deadline=None)
@given(shared_scan_cases())
def test_scans_sharing_page_answers_match_the_row_at_a_time_reference(tmp_path_factory, case):
    store = SeriesStore(tmp_path_factory.mktemp("shared"), page_rows=case["page_rows"])
    for rows in case["chunks"]:
        store.flush(S, [t for t, _ in rows], [v for _, v in rows], chunk_target_rows=len(rows))
    expected = []
    for scan in case["scans"]:
        op = _shared_scan_op(store, scan, reference=True)
        trace = [_step_trace(*op)[1]]
        while trace[-1][0] is not None:
            trace.append(_step_trace(*op)[1])
        expected.append(trace)
    for _ in range(case["rounds"]):          # a second round asks the answers the first kept
        ops = [_shared_scan_op(store, scan, reference=False) for scan in case["scans"]]
        traces = [[] for _ in ops]
        live = set(range(len(ops)))
        while live:                           # the scans take turns, a call each
            for i in sorted(live):
                block, step = _step_trace(*ops[i])
                traces[i].append(step)
                if block is None:
                    live.discard(i)
        assert traces == expected


def test_concurrent_scans_of_a_chunk_compute_each_page_answer_once(tmp_path, monkeypatch):
    store = build_store(tmp_path, [3000], value=lambda t: float((t * 7919) % 13))
    maxima = []

    def counting_max(*args):
        maxima.append(args)
        return builtins.max(*args)

    monkeypatch.setattr(scanops, "max", counting_max, raising=False)

    def alternate(make):
        ops = [make(), make()]
        outputs = [[], []]
        live = [True, True]
        while any(live):
            for i, op in enumerate(ops):
                if live[i]:
                    block = op.next_block()
                    if block is None:
                        live[i] = False
                    elif block is not NOT_READY:
                        outputs[i] += zip(block.timestamps, block.values)
        return outputs

    # 250 ms windows never cross a 1000-row page: every maximum is a page answer
    first, second = alternate(lambda: AggregationScanOp(store, S, WindowSpec(0, 3000, 250), "max_value"))
    assert first == second == [(w, builtins.max(float((t * 7919) % 13) for t in range(w, w + 250)))
                               for w in range(0, 3000, 250)]
    assert len(maxima) == 12                  # one per window, not one per window and scan

    answers = []
    page_answer = scanops._page_answer

    def recording_page_answer(block, key, compute, *args):
        answer = page_answer(block, key, compute, *args)
        answers.append((key, answer))
        return answer

    monkeypatch.setattr(scanops, "_page_answer", recording_page_answer)
    first, second = alternate(lambda: FilterOp(SeriesScanOp(store, S), "=", 3.0))
    assert first == second and len(first) == sum((t * 7919) % 13 == 3 for t in range(3000))
    positions = [answer for key, answer in answers if key[0] == "="]
    # the scans alternate page by page: the second's positions are the first's objects
    assert len(positions) == 6
    assert all(positions[i] is positions[i + 1] for i in range(0, 6, 2))
