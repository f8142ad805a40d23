"""Collaborative scan operators under the Volcano next()/has_next() contract.

The collaborative scan is one migratable leaf.  It reads local storage,
can hand its progress to a remote block stream mid-query and take it back,
and carries a resume index that either tier can resume from.  The shared
base owns the whole switch:

* ``request_switch`` arms a switch that is taken only when ``at_boundary()``
  holds, so the index handed to the remote side never falls inside a unit;
* the remote poll loop: PENDING while nothing is buffered, then a
  :class:`RemoteEnd` that either completes the scan (``complete``) or
  resumes it locally from the index it carries (``remigrate``, ``broken``);
* ``resume_local``, through which the constructors also start;
* ``export_index``, which hands out the index only at a boundary;
* ``boundary_listener``, called with the leaf from one place, ``next_block``,
  after each local pull that leaves the leaf at a boundary (once more at its end);
* the counters ``rows_local`` (source rows read from local storage, the
  work the simulator charges CPU time for) and ``rows_remote``.

Each kind supplies the local half: ``_open_local`` (reposition, rejecting a
misaligned index), ``at_boundary``, ``_has_local`` and ``_next_local``.
While remote, the leaf's index stays where the switch handed it over; the
stream's end carries the index to resume from.

The index is one ``int``, the first timestamp not yet delivered: every
source row below it has been delivered, as itself or inside an emitted
window.  Timestamps strictly increase within a series, so it names a
position in either kind, and a leaf resumes only from one of its
boundaries, raising MisalignedOffset otherwise.  SeriesScanOp starts below
every timestamp and moves to a chunk's ``max_ts + 1`` when the chunk's last
block is handed over, so a boundary is "no block of a chunk in flight" and
the index always lies between chunks.  AggregationScanOp starts at the
start of the first window of an equal-width partition of its time range
and moves to the next window's start; a boundary is "no partially
aggregated window held", and chunks lying wholly before the window are
skipped from metadata alone.

The leaf holds its own state: the index, its source
(``source_mode`` local, remote or done, and ``remote``), and the one unit
in flight, a series scan's undelivered blocks of the current chunk or an
aggregation's partially aggregated window.

The remote side is any object with the surface of :class:`RemoteSource`,
``activate`` and ``poll``; the migration machinery supplies the real one.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional, Sequence

from .errors import GuardViolation, MisalignedOffset
from .queryplan import ScanPlan
from .tsstore import (
    BLOCK_ROWS,
    SeriesPath,
    SeriesStore,
    TsBlock,
    ValueType,
)

__all__ = [
    "PENDING",
    "NOT_READY",
    "RemoteEnd",
    "RemoteSource",
    "WindowSpec",
    "SeriesScanOp",
    "AggregationScanOp",
    "FilterOp",
    "MergeOp",
    "ResultBlock",
    "RootAdapter",
    "build_scan",
    "build_operator",
]


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return f"<{self._name}>"


# No block available yet; retry after the channel makes progress.
PENDING = _Sentinel("PENDING")

# One unit of local work was done but no block is complete yet.  Callers
# re-invoke immediately (after charging simulated time for the work
# observed); unlike PENDING there is nothing to wait for.  This keeps every
# next_block call bounded to roughly one chunk of I/O, which is what gives
# the simulation per-chunk timing granularity.
NOT_READY = _Sentinel("NOT_READY")


@dataclass(frozen=True)
class RemoteEnd:
    """Terminal state of a remote stream as observed by the consuming leaf."""

    kind: str                                   # complete | remigrate | broken
    final_index: Optional[int] = None


class RemoteSource:
    """What a scan leaf needs of a streaming channel; ``poll`` returns each block's credit."""

    def activate(self, index: int) -> None:              # send delta, start handshake
        raise NotImplementedError

    def poll(self):                                      # TsBlock | PENDING | RemoteEnd
        raise NotImplementedError


@dataclass(frozen=True)
class WindowSpec:
    """Equal-length windows [lo + k*width, lo + (k+1)*width) clipped to hi."""

    lo: int
    hi: int
    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("window width must be positive")

    def is_boundary(self, ts: int) -> bool:
        return ts == self.hi or (self.lo <= ts and (ts - self.lo) % self.width == 0)

    def window_at(self, start: int) -> tuple[int, int]:
        if not self.is_boundary(start) or start >= self.hi:
            raise MisalignedOffset(f"{start} is not a window start in {self}")
        return start, min(start + self.width, self.hi)


class _OperatorBase:
    def has_next(self) -> bool:
        raise NotImplementedError

    def next_block(self):
        raise NotImplementedError

    def flush_partial(self) -> Optional[TsBlock]:
        """Emit rows held back from a partial block; only a filter holds any."""
        return None


class _ScanLeaf(_OperatorBase):
    """The migratable leaf: the switch, the remote stream and the resume (see above)."""

    def __init__(self, store: SeriesStore, series: SeriesPath, index: int):
        self.store = store
        self.series = series
        self.rows_local = 0       # source rows read from local storage
        self.rows_remote = 0      # rows received from the remote source
        self.boundary_listener: Optional[Callable[["_ScanLeaf"], None]] = None
        self.pending_remote: Optional[RemoteSource] = None
        self.resume_local(index)

    # -- migration hooks ----------------------------------------------------

    def request_switch(self, remote: RemoteSource) -> None:
        """Arm a source switch; it takes effect at the next boundary."""
        self.pending_remote = remote

    def resume_local(self, index: int) -> None:
        """Read locally from ``index``, which must be a boundary of this leaf."""
        self._open_local(index)
        self.source_mode = "local"          # local | remote | done
        self.remote: Optional[RemoteSource] = None
        self.logical_index = index

    def export_index(self) -> int:
        """The index to resume from; only a boundary may be handed to the other tier."""
        if not self.at_boundary():
            raise GuardViolation(
                f"{type(self).__name__} holds a unit in flight; "
                "delta may only be packaged after full consumption"
            )
        return self.logical_index

    def _switch(self) -> None:
        remote = self.pending_remote
        self.pending_remote = None
        index = self.export_index()
        self.source_mode = "remote"
        self.remote = remote
        remote.activate(index)

    # -- volcano ----------------------------------------------------------------

    def has_next(self) -> bool:
        mode = self.source_mode
        if mode == "remote":
            return True     # until the termination marker is consumed
        return mode != "done" and self._has_local()

    def next_block(self):
        if self.source_mode == "local" and self.pending_remote is not None and self.at_boundary():
            self._switch()
        if self.source_mode == "remote":
            return self._next_remote()
        if self.source_mode == "done":
            return None
        block = self._next_local()
        if self.boundary_listener is not None and self.at_boundary():
            self.boundary_listener(self)
        return block

    def _next_remote(self):
        result = self.remote.poll()
        if result is PENDING:
            return PENDING
        if isinstance(result, RemoteEnd):
            if result.kind == "complete":
                self.source_mode = "done"
                return None
            # remigration or broken channel: continue locally from the index
            self.resume_local(result.final_index)
            return self.next_block() if self.has_next() else None
        self.rows_remote += result.row_count
        return result

    # -- per-kind hooks -------------------------------------------------------------

    def _open_local(self, index: int) -> None:
        raise NotImplementedError

    def at_boundary(self) -> bool:
        raise NotImplementedError

    def _has_local(self) -> bool:
        raise NotImplementedError

    def _next_local(self):
        raise NotImplementedError


class SeriesScanOp(_ScanLeaf):
    """Leaf scan over one series; ≤1000-row blocks in timestamp order."""

    def __init__(self, store: SeriesStore, series: SeriesPath):
        self._in_flight: list[TsBlock] = []      # undelivered blocks of the current chunk
        super().__init__(store, series, -(2**63))       # below every i64 timestamp

    def _open_local(self, index: int) -> None:
        """Skip, from metadata alone, every chunk delivered below ``index``."""
        iterator = self._iterator = self.store.open_chunk_iterator(self.series)
        while iterator.has_next() and iterator.peek().max_ts < index:
            iterator.advance()
        if iterator.has_next() and iterator.peek().min_ts < index:
            raise MisalignedOffset(f"timestamp {index} lies inside a chunk of {self.series}")

    def at_boundary(self) -> bool:
        return not self._in_flight

    def _has_local(self) -> bool:
        return (
            bool(self._in_flight)
            or self.pending_remote is not None
            or self._iterator.has_next()
        )

    def _next_local(self):
        if not self._in_flight:
            if not self._iterator.has_next():
                return None
            meta = self._iterator.advance()
            self._in_flight = self.store.load_chunk_pages(meta)
        block = self._in_flight.pop(0)
        self.rows_local += block.row_count
        if not self._in_flight:
            self.logical_index = block.timestamps[-1] + 1    # the chunk's max_ts + 1
        return block


class AggregationScanOp(_ScanLeaf):
    """Windowed count/max_value over one series with metadata-level skipping.

    A window's maximum over the rows of one page is ``max`` of their values'
    slice.  Its first non-empty slice in a page, taken while the running
    maximum is None, is asked of the page's answers under ``("max", first,
    end)``, so concurrent and repeated scans of the page compute it once;
    a slice that continues a window takes ``max`` over the running maximum
    and the slice, so ties and NaN resolve exactly as a row loop with ``>``.
    """

    def __init__(self, store: SeriesStore, series: SeriesPath, spec: WindowSpec, fn: str):
        if fn not in ("count", "max_value"):
            raise ValueError(f"unsupported aggregate {fn!r}")
        self.spec = spec
        self.fn = fn
        self.chunks_skipped = 0
        # ((window start, end), (count, max)) of a window held across calls
        self._partial: Optional[tuple] = None
        super().__init__(store, series, spec.lo)
        self._value_type = ValueType.INT64 if fn == "count" else store.value_type(series)

    def _open_local(self, index: int) -> None:
        if index != self.spec.hi:
            self.spec.window_at(index)     # validates alignment
        self._iterator = self.store.open_chunk_iterator(self.series)
        self._pages: list[TsBlock] = []      # the loaded chunk's pages not yet read to their end
        self._page_pos = 0                   # rows of the first of them already read

    def at_boundary(self) -> bool:
        return self._partial is None

    def _has_local(self) -> bool:
        return self.logical_index < self.spec.hi

    def _next_local(self):
        """Aggregate the current window a page at a time, by bisection.

        At most one chunk is loaded per call; a window that needs another
        returns NOT_READY with its running aggregate held.  Rows before the
        window start (a resume inside a chunk) are read but not aggregated.
        """
        if self.logical_index >= self.spec.hi:
            return None
        if self._partial is None:
            window_start, window_end = self.spec.window_at(self.logical_index)
            count, maximum = 0, None
        else:
            (window_start, window_end), (count, maximum) = self._partial
        loaded = False          # at most one chunk load per call
        iterator = self._iterator
        pages = self._pages
        while True:
            if pages:
                page_ts, pos = pages[0].timestamps, self._page_pos
                end = bisect_left(page_ts, window_end, pos)
                # past the first window, every row before the start was read already
                first = pos if page_ts[pos] >= window_start else bisect_left(page_ts, window_start, pos, end)
                if first < end:
                    count += end - first
                    if self.fn == "max_value":
                        # max() keeps its current item unless a later one is
                        # greater, exactly as a row loop with ``>``: ties and NaN
                        values = pages[0].values
                        if maximum is None:
                            maximum = _page_answer(pages[0], ("max", first, end), _slice_max, values, first, end)
                        else:
                            maximum = max(chain((maximum,), values[first:end]))
                self.rows_local += end - pos
                if end < len(page_ts):
                    self._page_pos = end
                    break                # the next row opens a later window
                del pages[0]
                self._page_pos = 0
                continue
            if not iterator.has_next():
                break
            meta = iterator.peek()
            if meta.max_ts < window_start:
                # entirely before the current window: no page I/O
                iterator.advance()
                self.chunks_skipped += 1
                continue
            if meta.min_ts >= window_end:
                break                    # nothing more for this window
            if loaded:
                # another chunk is needed; persist the running aggregate and yield
                self._partial = ((window_start, window_end), (count, maximum))
                return NOT_READY
            iterator.advance()
            pages[:] = self.store.load_chunk_pages(meta)
            loaded = True
        self._partial = None
        result = count if self.fn == "count" else maximum
        block = TsBlock(self.series, [window_start], [result], self._value_type)
        self.logical_index = window_end       # the next window's start, or hi
        return block


class FilterOp(_OperatorBase):
    """Row filter preserving order, re-batching output to <= BLOCK_ROWS rows.

    A row is kept when its value is not None and ``value <op> literal``.  An
    equality filter with a bool, int, float or str literal that equals itself
    finds its matches with repeated ``list.index``, one C-level scan per
    block: that compares ``value == literal`` in the same direction as the
    row loop, its identity shortcut agrees with ``==`` for such a literal, and
    a ``None`` value never equals one.  The matching row positions are asked
    of the block's page answers under ``("=", type(literal), literal)``, so
    concurrent and repeated filters of a loaded page scan it once; equal keys
    (``0.0`` and ``-0.0``) equal the same values, and the type keeps ``1``,
    ``1.0`` and ``True`` apart.  A NaN literal, which does not equal itself,
    and the other operators take the row loop.
    """

    def __init__(self, child: _OperatorBase, op: str, literal):
        self.child = child
        self.op = op
        self.literal = literal
        self.rows_in = 0
        self.rows_out = 0
        self._series: Optional[SeriesPath] = None
        self._value_type: Optional[ValueType] = None
        self._buf_ts: list[int] = []
        self._buf_values: list = []
        self._child_done = False
        self._compare = _comparator(op)
        self._find_equal = (
            op == "=" and type(literal) in (bool, int, float, str) and literal == literal
        )
        self._answer_key = ("=", type(literal), literal)

    def has_next(self) -> bool:
        return bool(self._buf_ts) or (not self._child_done and self.child.has_next())

    def next_block(self):
        # one child block per call: keeps simulated I/O charging per-chunk and
        # leaves gaps for a confirmed migration to flip the leaf's source
        if self._child_done or not self.child.has_next():
            self._child_done = True
            return self._emit()
        block = self.child.next_block()
        if block is PENDING or block is NOT_READY:
            return block
        if block is None:
            self._child_done = True
            return self._emit()
        self._series = block.series_id
        self._value_type = block.value_type
        self.rows_in += block.row_count
        literal = self.literal
        if self._find_equal:
            values = block.values
            positions = _page_answer(block, self._answer_key, _equal_positions, values, literal)
            self._buf_ts += map(block.timestamps.__getitem__, positions)
            self._buf_values += map(values.__getitem__, positions)
        else:
            compare = self._compare
            for ts, value in zip(block.timestamps, block.values):
                if value is not None and compare(value, literal):
                    self._buf_ts.append(ts)
                    self._buf_values.append(value)
        if len(self._buf_ts) >= BLOCK_ROWS:
            return self._emit()
        return NOT_READY

    def _emit(self):
        if not self._buf_ts:
            return None if self._child_done else NOT_READY
        n = min(BLOCK_ROWS, len(self._buf_ts))
        block = TsBlock(self._series, self._buf_ts[:n], self._buf_values[:n], self._value_type)
        del self._buf_ts[:n]
        del self._buf_values[:n]
        self.rows_out += block.row_count
        return block

    def flush_partial(self) -> Optional[TsBlock]:
        """Emit buffered matches early; a remigrating producer must not strand them."""
        if not self._buf_ts:
            return None
        return self._emit()


@dataclass
class ResultBlock:
    """Client-facing batch: timestamps plus one or more named columns (nullable).

    The columns are read-only, tuples or read-only int64 views or lists as
    ``TsBlock``'s are.
    """

    timestamps: Sequence[int]
    columns: list[tuple[str, ValueType, Sequence]]

    @property
    def row_count(self) -> int:
        return len(self.timestamps)


class RootAdapter(_OperatorBase):
    """Wraps a single TsBlock stream as one-column ResultBlocks."""

    def __init__(self, child: _OperatorBase, column: str):
        self.child = child
        self.column = column

    def has_next(self) -> bool:
        return self.child.has_next()

    def next_block(self):
        block = self.child.next_block()
        if block is PENDING or block is NOT_READY or block is None:
            return block
        return ResultBlock(block.timestamps, [(self.column, block.value_type, block.values)])


class MergeOp(_OperatorBase):
    """Timestamp-aligned merge of N single-series streams with null fill.

    Each child has a cursor into its current block, and each child's
    timestamps strictly increase.  The output block being built is held
    across calls as a list of segments, so a stall neither loses nor repeats
    a row.  A call loops: it refills each used-up child in child order, and a
    refill that answers PENDING or NOT_READY returns that answer while the
    block is short of ``BLOCK_ROWS``.  It emits the block once it is full or
    no child has rows.  Otherwise it merges one segment: every buffered row
    up to ``end``, the earliest last timestamp among the children's current
    blocks, capped at the rows the block has room for.  When the children's
    timestamp slices are equal the segment is that slice and each child's
    value slice; otherwise it is their sorted union, and a child without a
    row at a timestamp gives ``None`` there.  A block of one segment is
    emitted as it is, so an aligned block that spans the children's whole
    blocks carries their very column objects (the memos' tuples and views,
    see ``ced.wire``; ``_part`` never re-slices a whole column, since a view's
    slice is always a new object); a block of several segments is
    concatenated into fresh lists.

    Pacing: a call that has pulled every child and merged a segment that
    leaves the block short returns NOT_READY and holds the block.  So a merge
    of aggregations, whose children give one-row window blocks, takes one
    call per window, and a migration can switch its leaves between two.
    """

    def __init__(self, children: Sequence[_OperatorBase], columns: Sequence[str]):
        if len(children) != len(columns):
            raise ValueError("one column name per child")
        self.children = list(children)
        self.columns = list(columns)
        self._ts: list[Sequence[int]] = [[] for _ in children]  # current block per child
        self._values: list[Sequence] = [[] for _ in children]
        self._pos = [0] * len(children)                         # cursor into that block
        self._types: list[ValueType] = [ValueType.FLOAT64] * len(children)
        self._done = [False] * len(children)
        # the block being built: (timestamps, one column per child) per segment
        self._segments: list[tuple[Sequence[int], list[Sequence]]] = []
        self._pulled: set[int] = set()      # children whose next_block this call called

    def has_next(self) -> bool:
        return (
            bool(self._segments)
            or any(p < len(ts) for ts, p in zip(self._ts, self._pos))
            or any(not done and child.has_next() for done, child in zip(self._done, self.children))
        )

    def _refill(self, i: int):
        """True when child i has rows or is exhausted; PENDING/NOT_READY to back off."""
        while self._pos[i] >= len(self._ts[i]) and not self._done[i]:
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
            self._ts[i] = block.timestamps
            self._values[i] = block.values
            self._pos[i] = 0
            self._types[i] = block.value_type
        return True

    def next_block(self):
        ts_bufs, value_bufs, pos = self._ts, self._values, self._pos
        segments = self._segments
        rows = sum(len(ts) for ts, _ in segments)
        self._pulled.clear()
        while True:
            for i in range(len(self.children)):
                state = self._refill(i)
                if state is not True and rows < BLOCK_ROWS:
                    return state
            ends = [t[-1] for t, p in zip(ts_bufs, pos) if p < len(t)]
            if rows >= BLOCK_ROWS or not ends:
                break
            end = min(ends)
            slices = [_part(t, p, bisect_right(t, end, p)) for t, p in zip(ts_bufs, pos)]
            first = slices[0]
            if all(s == first for s in slices):
                segment = _part(first, 0, BLOCK_ROWS - rows)
                n = len(segment)
                cells = [_part(values, p, p + n) for values, p in zip(value_bufs, pos)]
                pos[:] = [p + n for p in pos]
            else:
                segment = sorted(set().union(*slices))[:BLOCK_ROWS - rows]
                cells = []
                for i, (s, values, p) in enumerate(zip(slices, value_bufs, pos)):
                    n = bisect_right(s, segment[-1])
                    cells.append(list(map(dict(zip(s, values[p:p + n])).get, segment)))
                    pos[i] = p + n
            segments.append((segment, cells))
            rows += len(segment)
            if rows < BLOCK_ROWS and len(self._pulled) == len(self.children):
                return NOT_READY         # one pull of every child per call, held
        if not segments:
            return None
        self._segments = []
        if len(segments) == 1:
            timestamps, columns = segments[0]
        else:
            timestamps = list(chain.from_iterable(ts for ts, _ in segments))
            columns = [list(chain.from_iterable(parts)) for parts in zip(*(cells for _, cells in segments))]
        return ResultBlock(
            timestamps,
            [(name, vt, col) for name, vt, col in zip(self.columns, self._types, columns)],
        )


def _part(column: Sequence, lo: int, hi: int) -> Sequence:
    """``column[lo:hi]``, or ``column`` itself when that is all of it."""
    return column if lo == 0 and hi >= len(column) else column[lo:hi]


def _page_answer(block: TsBlock, key: tuple, compute: Callable, *args):
    """``compute(*args)``, computed once per page: kept in the block's page
    answers under ``key`` when it has them (see ``ced.tsstore``)."""
    answers = block.answers
    if answers is None:
        return compute(*args)
    answer = answers.get(key)
    if answer is None:
        answer = answers[key] = compute(*args)
    return answer


def _slice_max(values: Sequence, first: int, end: int):
    return max(values[first:end])


def _equal_positions(values: Sequence, literal) -> array:
    """Positions of the values equal to ``literal``, by repeated ``index``;
    a page holds at most BLOCK_ROWS rows, so each fits an unsigned short."""
    positions = array("H")
    i = -1
    try:
        while True:
            i = values.index(literal, i + 1)
            positions.append(i)
    except ValueError:
        return positions


_COMPARATORS = {"=": operator.eq, "<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge}


def _comparator(op: str) -> Callable:
    try:
        return _COMPARATORS[op]
    except KeyError:
        raise ValueError(f"unknown comparison {op!r}") from None


def build_scan(scan: ScanPlan, store: SeriesStore) -> tuple[_OperatorBase, _ScanLeaf]:
    """A scan's ``(top, leaf)``: the top is the leaf, or a FilterOp over it for a predicate."""
    if scan.window is None:
        leaf: _ScanLeaf = SeriesScanOp(store, scan.series)
    else:
        leaf = AggregationScanOp(store, scan.series, WindowSpec(*scan.window), scan.fn)
    if scan.predicate is None:
        return leaf, leaf
    return FilterOp(leaf, scan.predicate.op, scan.predicate.literal), leaf


def build_operator(scans: Sequence[ScanPlan], store: SeriesStore) -> tuple[_OperatorBase, list[_ScanLeaf]]:
    """A plan's client-facing root, emitting ResultBlocks, and its scan leaves in plan order."""
    built = [build_scan(scan, store) for scan in scans]
    if len(built) == 1:
        root: _OperatorBase = RootAdapter(built[0][0], scans[0].label)
    else:
        root = MergeOp([top for top, _ in built], [scan.label for scan in scans])
    return root, [leaf for _, leaf in built]
