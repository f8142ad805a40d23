"""Scenario execution: one edge node, one cloud node, one link.

The edge node owns the primary store, the resource monitor, and the query
drivers; the cloud node owns the cache mirror and the migration gateway.
Everything runs on a single deterministic event engine: disk reads and
CPU work are charged to per-node FIFO resources, protocol messages ride
the simulated link, and background load processes keep the edge busy in
the overload scenarios.

Execution modes:

* edge_only       -- queries never leave the edge.
* collaborative   -- the monitor (or a forced row threshold) triggers the
                     six-step migration exchange mid-query.
* cloud_only      -- migration is initiated before the first block, so
                     every row is produced by the cloud from its cache.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import partial
from pathlib import Path
from typing import Optional

from ..coherence import CloudCache, decode_snapshot, encode_snapshot
from ..errors import CedError, LinkClosed, ScenarioError
from ..migrate import (
    ChannelId,
    ChannelPhase,
    CloudGateway,
    ProtocolTelemetry,
    SinkChannel,
    SourceChannel,
    Transport,
)
from ..monitor import ResourceMonitor
from ..netsim import Engine, FifoResource, Link, Signal
from ..queryplan import parse, plan
from ..scanops import NOT_READY, PENDING, build_operator, build_scan
from ..tsstore import SeriesPath, SeriesStore
from .metrics import ChecksumBuilder, MetricsReport, QueryResult
from .scenario import CLOUD_ONLY, COLLABORATIVE, ScenarioConfig
from .workload import generate

__all__ = ["Cluster", "run_scenario"]

CLOUD_ADDRESS = "cloud"
CLOUD_PORT = 9000

_HOG_PERIOD_S = 0.02
_TICK_PERIOD_S = 0.05


class QueryContext:
    """One running query instance on the edge node."""

    def __init__(self, cluster: "Cluster", name: str, instance: int, sql: str, query_id: int):
        self.cluster = cluster
        self.name = name
        self.instance = instance
        self.sql = sql
        self.query_id = query_id
        self.signal = Signal(cluster.engine)
        self.checksum = ChecksumBuilder()
        self.running = True
        cluster.queries_running += 1
        self.start_s = 0.0
        self.end_s = 0.0

        store = cluster.edge_store
        self.root, self.leaf_ops = build_operator(plan(parse(sql), store, cluster.dataset.device), store)
        self.channels: list[SinkChannel] = []      # one per leaf once migration starts
        if cluster.scenario.forced_migration_at_rows is not None:
            for leaf in self.leaf_ops:
                leaf.boundary_listener = self._on_boundary

    # --- migration triggers -------------------------------------------------

    def _on_boundary(self, leaf) -> None:
        """Force a migration at a boundary of a leaf that has read the threshold's rows."""
        if leaf.rows_local >= self.cluster.scenario.forced_migration_at_rows:
            self.start_migration()

    def start_migration(self) -> None:
        """Step 1: open one channel per leaf and send the quintuple + SQL."""
        if self.channels:
            return
        cluster = self.cluster
        try:
            for i, leaf in enumerate(self.leaf_ops):
                sink = SinkChannel(
                    cluster.engine, cluster.edge_transport,
                    ChannelId(CLOUD_ADDRESS, CLOUD_PORT, 1, i + 1, self.query_id), self.sql,
                    leaf.series, cluster.scenario.channel, cluster.telemetry, self.signal.notify,
                    on_confirmed=leaf.request_switch,
                )
                self.channels.append(sink)
                sink.send_request()
        except LinkClosed:
            # compensation: local execution simply continues.  A closed link
            # stays closed, so the channels stay listed and nothing retries.
            for sink in self.channels:
                sink.close()

    def placement(self) -> str:
        for leaf in self.leaf_ops:
            if leaf.source_mode in ("remote", "done"):
                return "cloud"
        return "edge"

    def _channels_settled(self) -> bool:
        return all(s.phase != ChannelPhase.REQUESTED for s in self.channels)

    # --- the driver --------------------------------------------------------------

    def run_process(self):
        cluster = self.cluster
        self.start_s = cluster.engine.now
        if cluster.scenario.mode == CLOUD_ONLY:
            self.start_migration()
            while not self._channels_settled():
                yield self.signal.wait()
        while True:
            if not self.root.has_next():
                break
            block = yield from cluster._step(
                cluster.edge_store, cluster.edge_disk, cluster.edge_cpu, self.root, self.leaf_ops
            )
            if block is NOT_READY:
                continue
            if block is PENDING:
                yield self.signal.wait()
                continue
            if block is None:
                break
            self.checksum.update(block)
        self.end_s = cluster.engine.now
        self.running = False
        cluster.queries_running -= 1
        for sink in self.channels:
            sink.cancel("query complete")
        # a cancelled channel must not flip the leaf source afterwards
        for leaf in self.leaf_ops:
            leaf.pending_remote = None

    # --- reporting -------------------------------------------------------------------

    def result(self, run_label: str, counts: Counter) -> QueryResult:
        """The query's row; ``counts`` is the protocol event count per (query id, kind)."""
        qid = self.query_id
        return QueryResult(
            run=run_label,
            name=self.name,
            instance=self.instance,
            sql=self.sql,
            start_s=self.start_s,
            end_s=self.end_s,
            rows=self.checksum.rows,
            checksum=self.checksum.hexdigest(),
            migrated=counts[qid, "delta"],
            remigrated=counts[qid, "closed_remigrate"],
            rejected=counts[qid, "rejected"],
            handshake_failures=counts[qid, "handshake_timeout"],
            final_placement=self.placement(),
        )


class Cluster:
    """One edge node + one cloud node wired through a deterministic link."""

    def __init__(self, scenario: ScenarioConfig, workdir: Path):
        scenario.validate()
        self.scenario = scenario
        self.workdir = Path(workdir)
        self.engine = Engine()
        self.telemetry = ProtocolTelemetry()

        workload = scenario.workload
        self.edge_store = SeriesStore(
            self.workdir / "edge",
            chunk_target_rows=workload.chunk_target_rows,
            page_rows=workload.page_rows,
        )
        self.dataset = generate(self.edge_store, workload)

        self.link = Link(self.engine, scenario.link)
        self.edge_transport = Transport(self.engine, self.link, "edge", "cloud")
        self.cloud_transport = Transport(self.engine, self.link, "cloud", "edge")

        cost = scenario.cost
        self.edge_disk = FifoResource(
            self.engine, cost.edge_disk_mb_s * 1e6 / scenario.io_throttle, "edge-disk"
        )
        self.cloud_disk = FifoResource(self.engine, cost.cloud_disk_mb_s * 1e6, "cloud-disk")
        self.edge_cpu = FifoResource(self.engine, cost.edge_cpu_cores, "edge-cpu")
        self.cloud_cpu = FifoResource(self.engine, cost.cloud_cpu_cores, "cloud-cpu")

        self.cloud_store = SeriesStore(
            self.workdir / "cloud",
            chunk_target_rows=workload.chunk_target_rows,
            page_rows=workload.page_rows,
        )
        self.cache = CloudCache(self.cloud_store)
        self.gateway = CloudGateway(
            self.engine,
            self.cloud_transport,
            self.telemetry,
            make_producer=self._make_producer,
        )
        self.edge_transport.register_tag("syncreq", self._on_sync_request)
        self.cloud_transport.register_tag("sync", self._on_snapshot)

        self.monitor: Optional[ResourceMonitor] = None
        self.contexts: list[QueryContext] = []
        self.queries_running = 0      # contexts whose driver has not finished
        self._query_ids = itertools.count(1)

    # --- cache sync plumbing ---------------------------------------------------

    def _request_sync(self, series: str) -> None:
        self.cloud_transport.send_raw(("syncreq", series), series.encode("utf-8"))

    def _on_sync_request(self, envelope) -> None:
        series = envelope.payload.decode("utf-8")

        def ship():
            path = SeriesPath.parse(series)
            size = self.edge_store.snapshot_size_bytes(path)
            if size:
                yield self.edge_disk.acquire(size)
            snapshot = self.edge_store.export_snapshot(path)
            self.edge_transport.send_raw(("sync", series), encode_snapshot(snapshot))

        self.engine.spawn(ship())

    def _on_snapshot(self, envelope) -> None:
        self.cache.admit_snapshot(decode_snapshot(envelope.payload))

    # --- simulated cost -----------------------------------------------------------

    def _step(self, store, disk, cpu, root, leaves):
        """Pull one block from ``root`` and charge the node's disk, then its CPU,
        for the store bytes and the leaf rows that pull took."""
        cost = self.scenario.cost
        io_before = store.io.bytes_read
        local = remote = 0
        for leaf in leaves:
            local -= leaf.rows_local
            remote -= leaf.rows_remote
        block = root.next_block()
        io_bytes = store.io.bytes_read - io_before
        if io_bytes:
            yield disk.acquire(io_bytes)
        for leaf in leaves:
            local += leaf.rows_local
            remote += leaf.rows_remote
        work = local * cost.row_cpu_cost_s + remote * cost.recv_row_cost_s
        if work:
            yield cpu.acquire(work)
        return block

    # --- cloud producer construction -----------------------------------------------

    def _make_producer(self, msg) -> Optional[SourceChannel]:
        # the shipped SQL, planned against the edge's metadata, gives the edge's scans
        try:
            scans = plan(parse(msg.sql), self.edge_store, self.dataset.device)
        except CedError:
            return None
        source_id = msg.channel.source_id
        if not (1 <= source_id <= len(scans)):
            return None
        scan = scans[source_id - 1]
        if not self.cache.cache_lookup(scan.series):
            return None
        # predicate pushdown when the scan has a WHERE clause, block streaming otherwise
        root, leaf = build_scan(scan, self.cloud_store)
        return SourceChannel(
            self.engine,
            self.cloud_transport,
            msg.channel,
            root,
            leaf,
            partial(self._step, self.cloud_store, self.cloud_disk, self.cloud_cpu),
            self.telemetry,
            queue_depth=self.scenario.channel.queue_depth,
            fallback_after_rows=self.scenario.forced_fallback_after_rows,
        )

    # --- lifecycle -------------------------------------------------------------------

    def queried_series(self) -> list[SeriesPath]:
        return list(dict.fromkeys(
            scan.series for spec in self.scenario.queries
            for scan in plan(parse(spec.sql), self.edge_store, self.dataset.device)
        ))

    def warm_series_paths(self) -> list[SeriesPath]:
        warm = self.scenario.warm_series
        if self.scenario.mode == CLOUD_ONLY or "*" in warm:
            return self.queried_series()
        device = self.dataset.device
        return [device.child(sensor) for sensor in dict.fromkeys(warm)]

    def warm_cache(self) -> None:
        """Pre-experiment phase: check every named warm sensor against the edge
        store (in every mode), sync each warm series not yet cached, let syncs finish."""
        device = self.dataset.device
        for sensor in self.scenario.warm_series:
            if sensor != "*" and not self.edge_store.has_series(device.child(sensor)):
                raise ScenarioError(f"warm series {device.child(sensor)} is not in the edge store")
        warm = self.warm_series_paths()
        for series in warm:
            if not self.cloud_store.has_series(series):
                self._request_sync(str(series))
        self.engine.run_until_idle()
        for series in warm:
            if not self.cache.cache_lookup(series):
                raise ScenarioError(f"warm-up failed to sync {series}")

    def any_running(self) -> bool:
        return self.queries_running > 0

    def _hog_process(self, resource: FifoResource, duty: float):
        # open-loop demand: external tenants keep asking for disk or CPU time
        # whether or not the queue is drained, which is what sustains high usage
        while self.any_running():
            resource.acquire(duty * _HOG_PERIOD_S * resource.rate)
            yield _HOG_PERIOD_S

    def _coherence_tick(self):
        # does nothing, but each wake-up is an engine event that the pinned
        # simulated figures count, so the timer stays until they are re-recorded
        while self.any_running():
            yield _TICK_PERIOD_S

    def _placement_counts(self) -> tuple[int, int]:
        n_edge = n_cloud = 0
        for ctx in self.contexts:
            if not ctx.running:
                continue
            if ctx.placement() == "cloud":
                n_cloud += 1
            else:
                n_edge += 1
        return n_edge, n_cloud

    def _on_monitor_migrate(self) -> None:
        for ctx in self.contexts:
            if ctx.running:
                ctx.start_migration()

    def run(self, run_label: Optional[str] = None) -> MetricsReport:
        scenario = self.scenario
        label = run_label or scenario.name
        if scenario.warm_series or scenario.mode == CLOUD_ONLY:
            self.warm_cache()

        for spec in scenario.queries:
            for instance in range(spec.concurrency):
                ctx = QueryContext(self, spec.name, instance, spec.sql, next(self._query_ids))
                self.contexts.append(ctx)
        for ctx in self.contexts:
            self.engine.spawn(ctx.run_process())

        if scenario.background_io_duty > 0:
            self.engine.spawn(self._hog_process(self.edge_disk, scenario.background_io_duty))
        for _ in range(scenario.cpu_load):
            self.engine.spawn(self._hog_process(self.edge_cpu, scenario.cpu_hog_duty))
        if scenario.mode == COLLABORATIVE and scenario.monitor_enabled:
            self.monitor = ResourceMonitor(
                self.engine,
                self.edge_disk,
                self.edge_cpu,
                scenario.policy,
                period_s=scenario.monitor_period_s,
                placement_counts=self._placement_counts,
                on_migrate=self._on_monitor_migrate,
                on_fallback=self.gateway.request_remigration_all,
                keep_running=self.any_running,
            )
            self.monitor.start()
        self.engine.spawn(self._coherence_tick())

        self.engine.run_until_idle()
        if self.any_running():
            raise ScenarioError("queries must finish before the engine idles")
        return self._build_report(label)

    def _build_report(self, label: str) -> MetricsReport:
        report = MetricsReport(run=label, mode=self.scenario.mode)
        counts = self.telemetry.counts_by_query()
        for ctx in self.contexts:
            report.queries.append(ctx.result(label, counts))
        if self.monitor is not None:
            report.decisions = list(self.monitor.decision_log)
        report.bytes_rows = list(self.link.iter_report_rows())
        report.cache_lookups = self.cache.lookups
        report.cache_hits = self.cache.hits
        report.migrations = self.telemetry.switches
        report.remigrations = self.telemetry.remigrations
        return report


def run_scenario(scenario: ScenarioConfig, workdir: Path, run_label: Optional[str] = None) -> MetricsReport:
    return Cluster(scenario, workdir).run(run_label)
