"""Result checksums, the evaluation metrics, and CSV export.

Query execution time is total time over query count; QPS is the number
of parallel queries divided by the longest query's execution time.  All
times are simulated seconds, so reruns with the same seed reproduce every
figure bit-for-bit.
"""

from __future__ import annotations

import csv
import hashlib
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ..scanops import ResultBlock
from ..tsstore import BLOCK_ROWS, RowMemo, frozen_column
from ..wire import encode_rows

__all__ = ["ChecksumBuilder", "DIGEST_MEMO_ROWS", "digest_memo", "QueryResult", "MetricsReport", "emit"]


# Most result rows whose digest states the process keeps: one whole
# desk-scale result (Q3's 50 blocks of BLOCK_ROWS rows), so the later runs of a
# sweep resume from the first run's states.  An entry keeps its columns alive,
# which costs memory when the decode memo has already evicted them.
DIGEST_MEMO_ROWS = 52 * BLOCK_ROWS

# (hash state after the block, timestamps, *columns) of full result blocks,
# keyed by (digest of the rows hashed before the block, first ts, last ts,
# column count)
digest_memo = RowMemo(DIGEST_MEMO_ROWS)


class ChecksumBuilder:
    """Order-sensitive canonical checksum over client-visible rows.

    SHA-256 over ``ts i64 | cell*`` per row, one cell per column in column
    order, with ``cell`` as on the wire (see :mod:`ced.wire`).  Each cell is
    encoded by its value's Python type, so the digest does not depend on the
    declared column types or on how rows are split into blocks.

    Each block is hashed when it arrives, at most ``BLOCK_ROWS`` rows per
    ``encode_rows`` call, so a value that does not pack raises from that
    block's ``update``.  A column with ``None`` cells or mixed types is packed
    cell by cell there, and the other columns are not, to the same bytes.

    Concurrent queries, and the runs of a sweep, return the same blocks in
    the same order, so each builder would hash the same prefixes.  A block of
    exactly ``BLOCK_ROWS`` rows whose columns are all frozen (tuples or
    read-only int64 views, ``ced.tsstore.frozen_column``: the columns the
    memos hand out) leaves the hash state it produced in ``digest_memo``,
    under the digest of the rows hashed before it.  A builder at that digest
    that is handed the very same column objects (one identity test per
    column) takes a copy of that state, with no pack and no hash update.
    That is sound because a SHA-256 state is a function of the bytes hashed
    so far, which the digest stands for, and a frozen column cannot change
    while the entry keeps it alive, so its identity is never reused.  A
    shorter block, a list column (a filter's output, a merge of several
    segments) or the slices of a longer block are hashed directly, to the
    same digest.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.rows = 0

    def update(self, block: ResultBlock) -> None:
        timestamps = block.timestamps
        columns = [values for _name, _vt, values in block.columns]
        n = len(timestamps)
        if n == BLOCK_ROWS:
            key = (self._hash.digest(), timestamps[0], timestamps[-1], len(columns))
            held = (timestamps, *columns)
            entry = digest_memo.get(key)
            if entry is not None and len(entry) == len(held) + 1 and all(map(operator.is_, held, entry[1:])):
                self._hash = entry[0].copy()
            else:
                self._hash.update(encode_rows(timestamps, columns))
                if all(map(frozen_column, held)):
                    digest_memo.put(key, (self._hash.copy(), *held), n)
        elif n < BLOCK_ROWS:
            self._hash.update(encode_rows(timestamps, columns))
        else:
            # BLOCK_ROWS rows at a time, so that peak memory does not grow
            # with the size of the block; no other block repeats these slices.
            # No scenario returns a longer block, but perfbench's oracle
            # checksums each reference result as one: Q3's 50,000 rows of two
            # columns peak at 0.6 MiB here (tracemalloc) and at 30 MiB packed
            # whole, which doubled stream_merge's reported peak_rss_mb.
            for lo in range(0, n, BLOCK_ROWS):
                hi = lo + BLOCK_ROWS
                self._hash.update(encode_rows(timestamps[lo:hi], [values[lo:hi] for values in columns]))
        self.rows += n

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


@dataclass
class QueryResult:
    run: str
    name: str
    instance: int
    sql: str
    start_s: float
    end_s: float
    rows: int
    checksum: str
    migrated: int
    remigrated: int
    rejected: int
    handshake_failures: int
    final_placement: str

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class MetricsReport:
    run: str
    mode: str
    queries: list[QueryResult] = field(default_factory=list)
    decisions: list[tuple[float, float, float, str, str]] = field(default_factory=list)
    bytes_rows: list[tuple[str, str, int, int, int]] = field(default_factory=list)
    cache_lookups: int = 0
    cache_hits: int = 0
    migrations: int = 0
    remigrations: int = 0

    @property
    def query_execution_time(self) -> float:
        """Mean per-query latency: total time over query count."""
        if not self.queries:
            return 0.0
        return sum(q.duration_s for q in self.queries) / len(self.queries)

    @property
    def max_time(self) -> float:
        return max((q.duration_s for q in self.queries), default=0.0)

    @property
    def qps(self) -> float:
        """Parallel query count over the longest execution time."""
        if not self.queries or self.max_time == 0.0:
            return 0.0
        return len(self.queries) / self.max_time


METRICS_COLUMNS = [
    "run", "name", "instance", "sql", "start_s", "end_s", "duration_s", "rows",
    "checksum", "migrated", "remigrated", "rejected", "handshake_failures",
    "final_placement",
]
DECISIONS_COLUMNS = ["run", "time_s", "io_usage", "cpu_usage", "placement", "decision"]
BYTES_COLUMNS = ["run", "channel", "direction", "sent", "delivered", "dropped"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, columns: list[str], rows: Iterable[tuple]) -> None:
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def emit(reports: Iterable[MetricsReport], outdir: Path) -> dict[str, Path]:
    """Write metrics.csv / decisions.csv / bytes.csv with a stable column order."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    reports = list(reports)
    paths = {kind: outdir / f"{kind}.csv" for kind in ("metrics", "decisions", "bytes")}
    _write_csv(paths["metrics"], METRICS_COLUMNS, (
        (r.run, q.name, q.instance, q.sql, q.start_s, q.end_s, q.duration_s, q.rows, q.checksum,
         q.migrated, q.remigrated, q.rejected, q.handshake_failures, q.final_placement)
        for r in reports for q in r.queries
    ))
    _write_csv(paths["decisions"], DECISIONS_COLUMNS,
               ((r.run, *decision) for r in reports for decision in r.decisions))
    _write_csv(paths["bytes"], BYTES_COLUMNS,
               ((r.run, *row) for r in reports for row in r.bytes_rows))
    return paths
