"""Reference results for the benchmark's queries, computed without the engine.

The dataset is regenerated here from the seed, with the same random streams
as ``ced.harness.workload`` but none of its code, and each query is answered
over plain Python lists.  Nothing from the store, planner, scan operators,
wire codec or migration protocol is used; only the client-visible checksum
definition (``ChecksumBuilder`` over a ``ResultBlock``) is the program's.
"""

from __future__ import annotations

import random

from ced.harness.metrics import ChecksumBuilder
from ced.harness.workload import WorkloadConfig
from ced.scanops import ResultBlock
from ced.tsstore import ValueType

__all__ = ["expected_results"]

_WINDOW_MS = 5 * 60_000        # GROUP BY 5m


def _column(config: WorkloadConfig, name: str, kind: str) -> list:
    rng = random.Random(f"{config.seed}:{name}")
    n = config.total_rows
    if kind == "string":
        return [f"v{rng.randrange(config.string_pool)}" for _ in range(n)]
    values = [rng.random() * 1000.0 for _ in range(n)]
    if name == config.plant_sensor:
        for position in rng.sample(range(n), min(config.effective_plant_count, n)):
            values[position] = config.plant_value
    return values


def _windows(timestamps: list[int], values: list, fn) -> tuple[list[int], list]:
    hi = timestamps[-1] + 1
    starts, out = [], []
    start, i = timestamps[0], 0
    while start < hi:
        end = min(start + _WINDOW_MS, hi)
        j = i
        while j < len(timestamps) and timestamps[j] < end:
            j += 1
        starts.append(start)
        out.append(fn(values[i:j]))
        start, i = end, j
    return starts, out


def _digest(timestamps: list[int], *columns: list) -> tuple[int, str]:
    builder = ChecksumBuilder()
    builder.update(ResultBlock(list(timestamps), [("c", ValueType.INT64, list(c)) for c in columns]))
    return builder.rows, builder.hexdigest()


def expected_results(config: WorkloadConfig) -> dict[str, tuple[int, str]]:
    """Query name -> (row count, checksum) for Q1..Q5 over ``config``'s dataset.

    The sensors are t1 (strings v0..v999) and t3 (floats in [0, 1000) with
    ``plant_value`` planted), one row every ``sampling_interval_ms`` from 0.
    """
    ts = [i * config.sampling_interval_ms for i in range(config.total_rows)]
    t1 = _column(config, "t1", "string")
    t3 = _column(config, "t3", "float")
    q1 = [i for i, v in enumerate(t1) if v == "v999"]
    q2 = [i for i, v in enumerate(t3) if v == 497.44467]
    q4_ts, q4 = _windows(ts, t1, len)
    q5_ts, q5 = _windows(ts, t3, max)
    return {
        "Q1": _digest([ts[i] for i in q1], [t1[i] for i in q1]),
        "Q2": _digest([ts[i] for i in q2], [t3[i] for i in q2]),
        "Q3": _digest(ts, t1, t3),
        "Q4": _digest(q4_ts, q4),
        "Q5": _digest(q5_ts, q5),
    }
