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
from typing import Iterable, Optional

from ..scanops import ResultBlock
from ..tsstore import BLOCK_ROWS
from ..wire import encode_rows, encode_rows_once

__all__ = ["ChecksumBuilder", "QueryResult", "MetricsReport", "emit"]


_CELL_TYPES = frozenset((int, float, bool, type(None)))    # always pack, an int within i64


def _always_packs(timestamps, columns) -> bool:
    """Whether ``encode_rows`` packs these rows without an error."""
    if not set(map(type, timestamps)) <= {int}:
        return False
    ints = list(timestamps)
    for values in columns:
        types = set(map(type, values))
        if not types <= _CELL_TYPES:
            return False
        if int in types:
            ints += values if len(types) == 1 else [v for v in values if type(v) is int]
    return not ints or (-(1 << 63) <= min(ints) and max(ints) < 1 << 63)


class ChecksumBuilder:
    """Order-sensitive canonical checksum over client-visible rows.

    SHA-256 over ``ts i64 | cell*`` per row, one cell per column in column
    order, with ``cell`` as on the wire (see :mod:`ced.wire`).  Each cell is
    encoded by its value's Python type, so the digest does not depend on the
    declared column types or on how rows are split into blocks.

    Rows are packed ``BLOCK_ROWS`` at a time, in one ``encode_rows`` call; a
    column with ``None`` cells or mixed types is packed cell by cell there,
    and the other columns are not, to the same bytes.  A block of exactly
    ``BLOCK_ROWS`` rows is packed once for all the concurrent queries that
    return it (``ced.wire.encode_rows_once``).  Shorter blocks with no str and
    no int outside i64 are copied into fewer than ``BLOCK_ROWS`` pending rows;
    any other block is packed after them, so a bad value raises from its ``update``.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.rows = 0
        self._timestamps, self._columns = [], []     # pending rows, see above

    def update(self, block: ResultBlock) -> None:
        timestamps = block.timestamps
        columns = [values for _name, _vt, values in block.columns]
        if len(timestamps) < BLOCK_ROWS and _always_packs(timestamps, columns):
            if len(columns) != len(self._columns):
                self._hash_pending()
                self._columns = [[] for _ in columns]
            self._timestamps += timestamps
            for pending, values in zip(self._columns, columns):
                pending += values
            if len(self._timestamps) >= BLOCK_ROWS:
                self._hash_pending(BLOCK_ROWS)
        else:
            self._hash_pending()
            if len(timestamps) <= BLOCK_ROWS:
                self._hash.update(encode_rows_once(timestamps, columns))
            else:
                # BLOCK_ROWS rows at a time, so that peak memory does not grow
                # with the size of the block; no other block repeats these slices
                for lo in range(0, len(timestamps), BLOCK_ROWS):
                    hi = lo + BLOCK_ROWS
                    self._hash.update(encode_rows(timestamps[lo:hi], [values[lo:hi] for values in columns]))
        self.rows += len(timestamps)

    def _hash_pending(self, n: Optional[int] = None) -> None:
        """Hash the first ``n`` pending rows, or all of them."""
        timestamps, columns = self._timestamps, self._columns
        if timestamps:
            self._hash.update(encode_rows(timestamps[:n], [values[:n] for values in columns]))
            for values in (timestamps, *columns):
                del values[:n]

    def hexdigest(self) -> str:
        self._hash_pending()
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


def emit(reports: Iterable[MetricsReport], outdir: Path) -> dict[str, Path]:
    """Write metrics.csv / decisions.csv / bytes.csv with a stable column order."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    reports = list(reports)
    paths = {
        "metrics": outdir / "metrics.csv",
        "decisions": outdir / "decisions.csv",
        "bytes": outdir / "bytes.csv",
    }
    with open(paths["metrics"], "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(METRICS_COLUMNS)
        for report in reports:
            for q in report.queries:
                writer.writerow([_fmt(v) for v in (
                    report.run, q.name, q.instance, q.sql, q.start_s, q.end_s,
                    q.duration_s, q.rows, q.checksum, q.migrated, q.remigrated,
                    q.rejected, q.handshake_failures, q.final_placement,
                )])
    with open(paths["decisions"], "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(DECISIONS_COLUMNS)
        for report in reports:
            for time_s, io, cpu, placement, decision in report.decisions:
                writer.writerow([_fmt(v) for v in (report.run, time_s, io, cpu, placement, decision)])
    with open(paths["bytes"], "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(BYTES_COLUMNS)
        for report in reports:
            for channel, direction, sent, delivered, dropped in report.bytes_rows:
                writer.writerow([_fmt(v) for v in (report.run, channel, direction, sent, delivered, dropped)])
    return paths
