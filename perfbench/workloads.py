"""The benchmark's three workloads, pinned here rather than taken from presets.

Each workload is a closed batch of ``ced`` scenario runs executed back to
back, one at a time.  The configurations are built from the public
dataclasses so that an edit to ``ced.harness.presets`` cannot change what
is measured.  ``WHY`` records, for each workload, the layer it stresses and
the contrast it gives to the others.
"""

from __future__ import annotations

from ced.harness.scenario import (
    CLOUD_ONLY,
    COLLABORATIVE,
    EDGE_ONLY,
    QuerySpec,
    ScenarioConfig,
)
from ced.harness.workload import WorkloadConfig
from ced.netsim import LinkConfig

Q1 = QuerySpec("Q1", "SELECT t1 FROM dev WHERE t1='v999'")
Q2 = QuerySpec("Q2", "SELECT t3 FROM dev WHERE t3=497.44467")
Q3 = QuerySpec("Q3", "SELECT t1, t3 FROM dev")
Q4 = QuerySpec("Q4", "SELECT count(t1) FROM dev GROUP BY 5m")
Q5 = QuerySpec("Q5", "SELECT max_value(t3) FROM dev GROUP BY 5m")

# 50k rows x 3 sensors at 1 s spacing, 4000-row chunks: the desk-scale
# dataset every preset uses.
DATASET = WorkloadConfig(
    sensor_count=3,
    sampling_interval_ms=1000,
    total_rows=50_000,
    chunk_target_rows=4000,
)
FAST_LINK = LinkConfig(bandwidth_mbps=1000.0, rtt_ms=1.0)

STREAM_MERGE_CONCURRENCY = 4
EDGE_SCAN_CONCURRENCY = 16

WHY = {
    "migration_sweep": (
        "tsstore write path: ten identical 50k x 3 datasets are generated and flushed; "
        "Q1 with forced switches at 5k..45k rows streams almost nothing"
    ),
    "stream_merge": (
        "row streaming: Q3 returns 600k rows through MergeOp, the wire codec and the "
        "checksum, in edge_only, collaborative and cloud_only over identical data"
    ),
    "edge_scan": (
        "tsstore read path: one dataset, filters and 5m aggregations re-read the same "
        "chunks under throttled edge I/O, no channel opens"
    ),
}


# Traced boundaries each workload must call.  Zero calls means a wrapper sits
# on a name the runtime no longer looks up, so the traced run fails instead
# of reporting an empty layer.
_EVERY_WORKLOAD = [
    "harness.workload.generate", "tsstore.flush", "tsstore.load_chunk_pages",
    "tsstore.export_snapshot", "tsstore.import_snapshot", "coherence.encode_snapshot",
    "coherence.decode_snapshot", "scanops.SeriesScanOp", "harness.metrics.checksum",
    "queryplan.parse", "queryplan.plan", "netsim.run_until_idle",
]
EXERCISES = {
    "migration_sweep": _EVERY_WORKLOAD + [
        "scanops.FilterOp", "wire.encode_message", "wire.decode_message",
    ],
    "stream_merge": _EVERY_WORKLOAD + [
        "scanops.MergeOp", "wire.encode_message", "wire.decode_message", "monitor.decide",
    ],
    "edge_scan": _EVERY_WORKLOAD + ["scanops.AggregationScanOp", "scanops.FilterOp"],
}


def _scenario(name: str, seed: int, **kw) -> ScenarioConfig:
    fields = dict(
        name=name,
        workload=DATASET,
        link=FAST_LINK,
        warm_series=("t1", "t3"),
    )
    fields.update(kw)
    return ScenarioConfig(**fields).with_seed(seed)


def migration_sweep(seed: int) -> list[ScenarioConfig]:
    runs = [_scenario("migration_sweep/Q1/edge_only", seed, mode=EDGE_ONLY,
                      queries=(Q1,), monitor_enabled=False)]
    step = DATASET.total_rows // 10
    for k in range(1, 10):
        runs.append(_scenario(
            f"migration_sweep/Q1/at_{k * step}", seed, mode=COLLABORATIVE, queries=(Q1,),
            monitor_enabled=False, forced_migration_at_rows=k * step,
        ))
    return runs


def stream_merge(seed: int) -> list[ScenarioConfig]:
    q3 = QuerySpec(Q3.name, Q3.sql, concurrency=STREAM_MERGE_CONCURRENCY)
    return [
        _scenario(f"stream_merge/Q3/{mode}", seed, mode=mode, queries=(q3,),
                  cpu_load=4, monitor_period_s=0.02)
        for mode in (EDGE_ONLY, COLLABORATIVE, CLOUD_ONLY)
    ]


def edge_scan(seed: int) -> list[ScenarioConfig]:
    queries = tuple(
        QuerySpec(q.name, q.sql, concurrency=EDGE_SCAN_CONCURRENCY) for q in (Q1, Q2, Q4, Q5)
    )
    return [_scenario("edge_scan/Q1Q2Q4Q5/edge_only", seed, mode=EDGE_ONLY, queries=queries,
                      io_throttle=10.0, background_io_duty=0.85, cpu_load=2)]


WORKLOADS = {
    "migration_sweep": migration_sweep,
    "stream_merge": stream_merge,
    "edge_scan": edge_scan,
}
