"""Per-layer timing of ``ced`` from outside the package.

The tracer replaces public functions and methods with timing wrappers, each
patched at the name through which the runtime looks it up.  Only call- or
block-granular boundaries are wrapped; per-row and per-cell functions
(``SeriesStore.append``, ``wire.encode_scalar``) are never wrapped, and
their work is counted from the enclosing call instead.

Spans are kept in memory and written out by :meth:`Tracer.write_spans`
at the end.  Times are read from the process CPU clock, which matches wall
time for this single-threaded program but leaves out the slices that the
benchmark's speed probe takes on the same core.  A layer's busy time is the
summed time of its outermost calls; its self time is that minus the time
covered by wrapped child calls.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import ced.harness.runtime as runtime
import ced.harness.scenario as scenario
import ced.migrate as migrate
import ced.monitor as monitor
from ced.harness.metrics import ChecksumBuilder
from ced.netsim import Engine
from ced.scanops import AggregationScanOp, FilterOp, MergeOp, SeriesScanOp
from ced.tsstore import SeriesStore
from ced.wire import MessageType

__all__ = ["Tracer"]


class Tracer:
    def __init__(self) -> None:
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self.run_label = ""
        self._stack: list[list] = []          # [span id, covered child time]
        self._active: Counter[str] = Counter()
        self._chunks_seen: set = set()

    # --- wrapping ---------------------------------------------------------------

    def _wrap(self, layer: str, fn, after=None):
        stack, active = self._stack, self._active
        clock = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)              # reserve the id; filled on exit
            frame = [span_id, 0.0]
            stack.append(frame)
            active[layer] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[layer] -= 1
                elapsed = t1 - t0
                if not active[layer]:            # recursive calls count once
                    self.busy[layer] += elapsed
                self.self_time[layer] += elapsed - frame[1]
                self.calls[layer] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                self.spans[span_id] = (
                    span_id, parent[0] if parent else None, self.run_label, layer, t0, t1
                )
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner, name: str, layer: str, after=None) -> None:
        setattr(owner, name, self._wrap(layer, getattr(owner, name), after))

    def install(self) -> None:
        """Patch every boundary; each name is patched where the runtime looks it up."""
        count = self.counts

        def on_generate(args, dataset):
            count["harness.workload.generate.points"] += dataset.total_points

        def on_load(args, blocks):
            meta = args[1]
            key = (meta.file_path, meta.offset, id(meta.mem_rows))
            if key in self._chunks_seen:
                count["tsstore.load_chunk_pages.repeats"] += 1
            self._chunks_seen.add(key)

        def on_checksum(args, _):
            count["harness.metrics.checksum.rows"] += args[1].row_count

        def on_encode(args, payload):
            count["wire.messages"] += 1
            if args[0].type is MessageType.DATA:
                count["wire.data_bytes"] += len(payload)

        self._patch(runtime, "generate", "harness.workload.generate", on_generate)
        self._patch(SeriesStore, "flush", "tsstore.flush")
        self._patch(SeriesStore, "load_chunk_pages", "tsstore.load_chunk_pages", on_load)
        self._patch(SeriesStore, "export_snapshot", "tsstore.export_snapshot")
        self._patch(SeriesStore, "import_snapshot", "tsstore.import_snapshot")
        for op in (SeriesScanOp, AggregationScanOp, FilterOp, MergeOp):
            self._patch(op, "next_block", f"scanops.{op.__name__}")
        self._patch(migrate, "encode_message", "wire.encode_message", on_encode)
        self._patch(migrate, "decode_message", "wire.decode_message")
        self._patch(ChecksumBuilder, "update", "harness.metrics.checksum", on_checksum)
        self._patch(runtime, "encode_snapshot", "coherence.encode_snapshot")
        self._patch(runtime, "decode_snapshot", "coherence.decode_snapshot")
        self._patch(runtime, "parse", "queryplan.parse")
        self._patch(scenario, "parse", "queryplan.parse")
        self._patch(runtime, "plan", "queryplan.plan")
        self._patch(monitor, "decide", "monitor.decide")
        self._patch(Engine, "run_until_idle", "netsim.run_until_idle")

    # --- per-run bookkeeping ----------------------------------------------------

    def begin_run(self, label: str) -> None:
        self.run_label = label
        self._chunks_seen.clear()

    def end_run(self, cluster) -> None:
        """Add the counters the program keeps itself, read from the finished cluster."""
        count = self.counts
        for store in (cluster.edge_store, cluster.cloud_store):
            count["tsstore.bytes_read"] += store.io.bytes_read
            count["tsstore.chunks_loaded"] += store.io.chunks_loaded
        count["migrate.switches"] += cluster.telemetry.switches
        count["migrate.remigrations"] += cluster.telemetry.remigrations
        count["netsim.events"] += cluster.engine.events_dispatched
        count["coherence.cache_lookups"] += cluster.cache.lookups
        count["coherence.cache_hits"] += cluster.cache.hits

    # --- output ------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer figure, summed over the runs traced so far."""
        out: dict[str, float] = {}
        for layer, value in self.busy.items():
            out[f"{layer}.busy_s"] = value
        for layer, value in self.self_time.items():
            out[f"{layer}.self_s"] = value
        for layer, value in self.calls.items():
            out[f"{layer}.calls"] = value
        out.update(self.counts)
        loads = self.calls["tsstore.load_chunk_pages"]
        out["tsstore.load_chunk_pages.repeat_ratio"] = (
            self.counts["tsstore.load_chunk_pages.repeats"] / loads if loads else 0.0
        )
        lookups = self.counts["coherence.cache_lookups"]
        out["coherence.cache_hit_ratio"] = (
            self.counts["coherence.cache_hits"] / lookups if lookups else 0.0
        )
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON object per span: id, parent id, run label, layer, start and end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fp:
            for span_id, parent, run, layer, t0, t1 in self.spans:
                fp.write(json.dumps({
                    "id": span_id, "parent": parent, "run": run,
                    "layer": layer, "start": t0, "end": t1,
                }) + "\n")
