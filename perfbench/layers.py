"""Per-layer metrics of the traced run, and what each one should move.

A layer is a ``ced`` module.  ``busy_s`` is the summed wall time of calls
into the named function, ``self_s`` that minus the time of wrapped child
calls.  ``moves`` names the end-to-end metric a change to the layer should
move; ``mostly_on`` is the workload where the layer has a large share, and
``little_on`` the one where it has a small share, so that a change to the
layer predicts no change there.  The counts repeat exactly between runs.
"""

from __future__ import annotations

__all__ = ["LAYER_METRICS", "COUNT_METRICS", "DESIGN_SHARES"]

_WRITE = ("setup_s", "migration_sweep", "edge_scan")
_READ = ("run_s", "edge_scan", "migration_sweep")
_SCAN = ("run_s", "edge_scan", "stream_merge")
_MERGE = ("run_s", "stream_merge", "edge_scan, migration_sweep")
_STREAM = ("run_s", "stream_merge", "edge_scan, migration_sweep")
_SYNC = ("run_s", "all (under 1% today)", "-")
_PLAN = ("run_s", "all (negligible today)", "-")
_PROTOCOL = ("run_s", "stream_merge", "edge_scan")
_ENGINE = ("run_s", "edge_scan, stream_merge", "migration_sweep")

# name, unit, better, (moves, mostly_on, little_on)
LAYER_METRICS = [
    ("harness.workload.generate.busy_s", "s", "lower", _WRITE),
    ("harness.workload.generate.points", "count", "lower", _WRITE),
    ("tsstore.flush.busy_s", "s", "lower", _WRITE),
    ("tsstore.flush.calls", "count", "lower", _WRITE),
    ("tsstore.load_chunk_pages.busy_s", "s", "lower", _READ),
    ("tsstore.load_chunk_pages.calls", "count", "lower", _READ),
    ("tsstore.load_chunk_pages.repeat_ratio", "ratio", "lower", _READ),
    ("tsstore.bytes_read", "bytes", "lower", _READ),
    ("tsstore.chunks_loaded", "count", "lower", _READ),
    ("scanops.SeriesScanOp.self_s", "s", "lower", _SCAN),
    ("scanops.SeriesScanOp.calls", "count", "lower", _SCAN),
    ("scanops.AggregationScanOp.self_s", "s", "lower", _SCAN),
    ("scanops.AggregationScanOp.calls", "count", "lower", _SCAN),
    ("scanops.FilterOp.self_s", "s", "lower", _SCAN),
    ("scanops.FilterOp.calls", "count", "lower", _SCAN),
    ("scanops.MergeOp.self_s", "s", "lower", _MERGE),
    ("scanops.MergeOp.calls", "count", "lower", _MERGE),
    ("wire.encode_message.busy_s", "s", "lower", _STREAM),
    ("wire.decode_message.busy_s", "s", "lower", _STREAM),
    ("wire.messages", "count", "lower", _STREAM),
    ("wire.data_bytes", "bytes", "lower", _STREAM),
    ("harness.metrics.checksum.busy_s", "s", "lower", _STREAM),
    ("harness.metrics.checksum.rows", "count", "lower", _STREAM),
    ("coherence.encode_snapshot.busy_s", "s", "lower", _SYNC),
    ("coherence.decode_snapshot.busy_s", "s", "lower", _SYNC),
    ("tsstore.export_snapshot.busy_s", "s", "lower", _SYNC),
    ("tsstore.import_snapshot.busy_s", "s", "lower", _SYNC),
    ("coherence.cache_hit_ratio", "ratio", "higher", _SYNC),
    ("queryplan.parse.busy_s", "s", "lower", _PLAN),
    ("queryplan.parse.calls", "count", "lower", _PLAN),
    ("queryplan.plan.busy_s", "s", "lower", _PLAN),
    ("queryplan.plan.calls", "count", "lower", _PLAN),
    ("migrate.switches", "count", "lower", _PROTOCOL),
    ("migrate.remigrations", "count", "lower", _PROTOCOL),
    ("monitor.decide.calls", "count", "lower", _PROTOCOL),
    ("netsim.events", "count", "lower", _ENGINE),
    ("netsim.run_until_idle.self_s", "s", "lower", _ENGINE),
    ("trace.overhead_ratio", "ratio", "lower", ("-", "all", "-")),
]

# Deterministic figures: identical in every traced repetition of one seed.
COUNT_METRICS = [name for name, unit, _, _ in LAYER_METRICS if unit in ("count", "bytes")]

# The layer groups the workloads were chosen to separate: each group should
# hold a large share of traced wall time on its own workload only.
DESIGN_SHARES = {
    "write_path": ["harness.workload.generate.busy_s"],
    "row_streaming": [
        "wire.encode_message.busy_s", "wire.decode_message.busy_s",
        "scanops.MergeOp.self_s", "harness.metrics.checksum.busy_s",
    ],
    "read_path": [
        "tsstore.load_chunk_pages.busy_s", "scanops.AggregationScanOp.self_s",
        "scanops.FilterOp.self_s",
    ],
}
