"""Result checksums, the evaluation metrics, and CSV export.

Query execution time is total time over query count; QPS is the number
of parallel queries divided by the longest query's execution time.  All
times are simulated seconds, so reruns with the same seed reproduce every
figure bit-for-bit.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ..scanops import ResultBlock
from ..tsstore import BLOCK_ROWS
from ..wire import encode_rows, encode_rows_once

__all__ = ["ChecksumBuilder", "QueryResult", "MetricsReport", "emit"]


class ChecksumBuilder:
    """Order-sensitive canonical checksum over client-visible rows.

    SHA-256 over ``ts i64 | cell*`` per row, one cell per column in column
    order, with ``cell`` as on the wire (see :mod:`ced.wire`).  Each cell is
    encoded by its value's Python type, so the digest does not depend on the
    declared column types or on how rows are split into blocks.

    Each block is hashed when it arrives, at most ``BLOCK_ROWS`` rows per
    ``encode_rows`` call, so a value that does not pack raises from that
    block's ``update``.  A column with ``None`` cells or mixed types is packed
    cell by cell there, and the other columns are not, to the same bytes.  A
    block of exactly ``BLOCK_ROWS`` rows whose columns are all tuples or
    read-only int64 views (a loaded page's timestamps) is packed once for all
    the concurrent queries that return it (``ced.wire.encode_rows_once``):
    they share the columns the memos hand out, and a hit is one identity test
    per column.  A shorter block, or one with a list column (a filter's
    output, a merge of several segments), is packed anew, to the same bytes.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.rows = 0

    def update(self, block: ResultBlock) -> None:
        timestamps = block.timestamps
        columns = [values for _name, _vt, values in block.columns]
        if len(timestamps) <= BLOCK_ROWS:
            self._hash.update(encode_rows_once(timestamps, columns))
        else:
            # BLOCK_ROWS rows at a time, so that peak memory does not grow
            # with the size of the block; no other block repeats these slices.
            # No scenario returns a longer block, but perfbench's oracle
            # checksums each reference result as one: Q3's 50,000 rows of two
            # columns peak at 0.6 MiB here (tracemalloc) and at 30 MiB packed
            # whole, which doubled stream_merge's reported peak_rss_mb.
            for lo in range(0, len(timestamps), BLOCK_ROWS):
                hi = lo + BLOCK_ROWS
                self._hash.update(encode_rows(timestamps[lo:hi], [values[lo:hi] for values in columns]))
        self.rows += len(timestamps)

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
