"""Migration protocol: six-step exchange, handshake, isolation, termination."""

import dataclasses
import random

import pytest
from conftest import (
    TABLE_II,
    active_producers,
    edge_baseline_checksum,
    make_cluster,
    make_scenario,
    run,
    small_workload,
)

import ced.harness.runtime
from ced.harness.scenario import CostModel, QuerySpec
from ced.harness.workload import WorkloadConfig
from ced.migrate import ChannelConfig, ChannelPhase, ProtocolTelemetry, SinkChannel
from ced.netsim import Engine, LinkConfig
from ced.queryplan import Predicate, parse, plan
from ced.scanops import PENDING, FilterOp, RemoteEnd, SeriesScanOp, build_scan
from ced.tsstore import SeriesPath, TsBlock, ValueType
from ced.wire import ChannelId, Message, MessageType, TerminateReason


# --- transmission mode: predicate pushdown iff the scan carries the WHERE clause ----

class StoreMetadata:
    """What ``plan`` reads of a store: ``t1`` is STRING and ``t3`` FLOAT64."""

    def value_type(self, series):
        return {"t1": ValueType.STRING, "t3": ValueType.FLOAT64}[series.segments[-1]]

    def time_bounds(self, series):
        return 0, 1000


def predicates(sql):
    device = SeriesPath.parse("root.ln.edge1.dev")
    return [scan.predicate for scan in plan(parse(sql), StoreMetadata(), device)]


def test_q1_selects_pushdown():
    assert predicates(TABLE_II["Q1"]) == [Predicate("t1", "=", "v999")]


def test_q3_selects_block_streaming():
    assert predicates(TABLE_II["Q3"]) == [None] * 2


def test_q4_aggregate_without_where_is_block_streaming():
    assert predicates(TABLE_II["Q4"]) == [None]


def test_leaf_mode_mixed_query():
    # t1 carries the filter, t3 streams its blocks
    assert predicates("SELECT t1, t3 FROM dev WHERE t1='v1'") == [Predicate("t1", "=", "v1"), None]


def test_each_producer_runs_its_own_scan(tmp_path):
    sql = "SELECT t1, t3 FROM dev WHERE t3 < 100.0"
    cluster, report = run(make_scenario(sql, forced_migration_at_rows=1000), tmp_path)
    q = report.queries[0]
    assert q.checksum == edge_baseline_checksum(sql, small_workload(), tmp_path)
    producers = {p.channel_id.source_id: p for p in cluster.gateway.channels.values()}
    assert sorted(producers) == [1, 2]
    streaming, pushdown = producers[1], producers[2]
    assert isinstance(streaming.root_op, SeriesScanOp) and streaming.root_op is streaming.leaf_op
    assert isinstance(pushdown.root_op, FilterOp) and pushdown.root_op.child is pushdown.leaf_op
    assert streaming.leaf_op.series.segments[-1] == "t1" and pushdown.leaf_op.series.segments[-1] == "t3"
    assert (q.migrated, q.final_placement) == (2, "cloud")


def test_a_forced_switch_sweep_decodes_each_chunk_once(tmp_path):
    """Ten runs of Q1 over one dataset, each with its own edge copy and cloud
    mirror of it, decode each ``t1`` chunk once in all: a chunk's decode memo
    entry is keyed by what it holds, so every later load, in any run's store,
    hits it."""
    workload = small_workload()
    scenarios = [make_scenario(mode="edge_only", warm_series=(), workload=workload)]
    scenarios += [make_scenario(forced_migration_at_rows=rows, workload=workload)
                  for rows in range(1000, 5001, 500)]
    clusters, reports = zip(*(run(scenario, tmp_path) for scenario in scenarios))
    assert len({r.queries[0].checksum for r in reports}) == 1
    assert [r.queries[0].migrated for r in reports] == [0] + [1] * 9
    t1 = clusters[0].dataset.device.child("t1")
    stores = [store for c in clusters for store in (c.edge_store, c.cloud_store)]
    distinct = {(m.min_ts, m.max_ts, m.byte_len) for store in stores if store.has_series(t1)
                for m in store.chunk_metas(t1)}
    assert len(distinct) == workload.total_rows // workload.chunk_target_rows
    assert sum(store.io.chunks_loaded for store in stores) > 3 * len(distinct)
    assert sum(store.io.chunks_decoded for store in stores) == len(distinct)


# --- six-step exchange --------------------------------------------------------------

def test_request_carries_quintuple_and_sql_and_triple_echoes(tmp_path):
    scenario = make_scenario(forced_migration_at_rows=2000)
    cluster, report = run(scenario, tmp_path)
    sink = cluster.contexts[0].channels[0]
    assert sink.channel_id == ChannelId("cloud", 9000, 1, 1, 1)
    assert sink.sql == TABLE_II["Q1"]
    # SinkChannel.on_message rejects a confirmation that does not echo the
    # request; reaching streaming proves it matched
    assert cluster.telemetry.count("confirmed") == 1
    assert report.queries[0].migrated == 1


def test_edge_continues_local_reading_until_confirmation(tmp_path):
    # huge rtt: confirmation arrives long after the forced trigger point, so
    # several more chunks are read locally before the switch.  A quarter-core
    # edge makes Q1 take ~49 ms locally, so the query outlasts the round trip.
    scenario = make_scenario(
        forced_migration_at_rows=1000,
        link=LinkConfig(bandwidth_mbps=1000.0, rtt_ms=40.0),
        cost=CostModel(edge_cpu_cores=0.25),
    )
    cluster, report = run(scenario, tmp_path)
    sink = cluster.contexts[0].channels[0]
    assert sink.activation_index is not None
    assert sink.activation_index > 1000 * 1000     # kept reading past the trigger (row 1000, 1 s apart)
    assert report.queries[0].rows == 5


def test_rejection_keeps_edge_local(tmp_path):
    scenario = make_scenario(warm_series=(), forced_migration_at_rows=1000)
    cluster, report = run(scenario, tmp_path)
    q = report.queries[0]
    assert q.rejected == 1 and q.migrated == 0
    assert q.final_placement == "edge"
    assert cluster.telemetry.count("rejected") == 1
    leaf = cluster.contexts[0].leaf_ops[0]
    assert leaf.source_mode == "local"


def test_mismatched_confirmation_is_a_rejection(tmp_path):
    from ced.wire import Message, MessageType

    scenario = make_scenario(forced_migration_at_rows=2000)
    cluster = make_cluster(scenario, tmp_path)
    transport = cluster.gateway.transport

    def forged_confirm(channel):      # echoes the wrong triple
        transport.send_message(Message(
            MessageType.CONFIRMATION, channel,
            confirmation=(channel.fragment_id, channel.source_id + 1, channel.query_id),
        ))

    cluster.gateway._confirm = forged_confirm
    report = cluster.run()
    q = report.queries[0]
    sink = cluster.contexts[0].channels[0]
    assert q.checksum == edge_baseline_checksum(scenario.queries[0].sql, small_workload(), tmp_path)
    assert (q.rejected, q.migrated) == (1, 0)
    assert q.final_placement == "edge"
    assert sink.activation_index is None and cluster.telemetry.switches == 0
    assert cluster.telemetry.count("rejected") == 1 and cluster.telemetry.count("confirmed") == 0
    assert active_producers(cluster.gateway) == 0     # the producer got CANCEL


def test_a_duplicate_request_reaches_the_confirmed_producer_and_is_ignored(tmp_path):
    scenario = make_scenario(forced_migration_at_rows=2000)
    cluster = make_cluster(scenario, tmp_path)
    report = cluster.run()
    assert report.queries[0].migrated == 1
    sink = cluster.contexts[0].channels[0]
    cluster.edge_transport.send_message(
        Message(MessageType.MIGRATION_REQUEST, sink.channel_id, sql=sink.sql)
    )
    cluster.engine.run_until_idle()
    # the producer's own handler takes it: no second producer, no second confirmation
    assert len(cluster.gateway.channels) == 1 and active_producers(cluster.gateway) == 0
    assert cluster.telemetry.count("confirm") == 1


@pytest.mark.parametrize("sql,source_id", [
    ("SELEC t1 FROM dev", 1),                   # does not parse
    ("SELECT t9 FROM dev", 1),                  # names no sensor of the device
    ("SELECT t1, t3 FROM dev", 0),              # source ids start at 1
    ("SELECT t1, t3 FROM dev", 3),              # one past the query's two scans
], ids=["unparsable", "unknown_sensor", "source_0", "source_past_scans"])
def test_an_unplannable_request_is_rejected(tmp_path, sql, source_id):
    cluster = make_cluster(make_scenario(), tmp_path)
    channel = ChannelId("edge", 7000, 1, source_id, 99)
    replies = []
    cluster.edge_transport.register_channel(channel, replies.append)
    cluster.edge_transport.send_message(Message(MessageType.MIGRATION_REQUEST, channel, sql=sql))
    cluster.engine.run_until_idle()
    assert [m.type for m in replies] == [MessageType.REJECTION]
    assert [(kind, ch) for _, kind, ch in cluster.telemetry.events] == [("reject", channel)]
    assert cluster.gateway.channels == {}


def test_delta_switch_lands_on_chunk_boundary(tmp_path):
    scenario = make_scenario(forced_migration_at_rows=2000)
    cluster, report = run(scenario, tmp_path)
    sink = cluster.contexts[0].channels[0]
    # a chunk's max_ts + 1: 1000-row chunks of rows 1 s apart
    assert sink.activation_index % (1000 * 1000) == 999 * 1000 + 1
    assert sink.activation_index > 1999 * 1000         # past the trigger row


def test_migration_at_query_start_is_row_offset_zero(tmp_path):
    scenario = make_scenario(mode="cloud_only", warm_series=("t1",))
    cluster, report = run(scenario, tmp_path)
    sink = cluster.contexts[0].channels[0]
    assert sink.activation_index == -(2**63)      # no row delivered: below every timestamp
    assert report.queries[0].migrated == 1


def test_aggregation_switch_exports_window_start(tmp_path):
    scenario = make_scenario(TABLE_II["Q4"], forced_migration_at_rows=1500)
    cluster, report = run(scenario, tmp_path)
    sink = cluster.contexts[0].channels[0]
    assert (sink.activation_index - 0) % 300_000 == 0


def test_per_query_counts_come_from_that_query_s_channels(tmp_path):
    scenario = make_scenario(
        queries=(QuerySpec("Q1", TABLE_II["Q1"]), QuerySpec("Q2", TABLE_II["Q2"])),
        warm_series=("t3",), forced_migration_at_rows=2000,
    )
    cluster, report = run(scenario, tmp_path)
    q1, q2 = report.queries
    assert (q1.rejected, q1.migrated) == (1, 0)      # t1 is not cached: a cache miss
    assert (q2.migrated, q2.rejected) == (1, 0)
    assert report.migrations == 1


# --- handshake ---------------------------------------------------------------------------

def test_nominal_handshake_probe_then_ack_then_data(tmp_path):
    scenario = make_scenario(forced_migration_at_rows=2000)
    cluster, report = run(scenario, tmp_path)
    t = cluster.telemetry
    assert t.count("probe") == 1
    assert t.count("data_before_ack") == 0
    assert t.count("block") > 0
    order = [kind for _, kind, _ in t.events]
    assert order.index("delta") < order.index("streaming")


def test_probe_lost_once_retry_succeeds(tmp_path):
    # seed chosen so the first droppable send is lost, the retry survives
    base = make_scenario(forced_migration_at_rows=2000)
    for seed in range(40):
        scenario = dataclasses.replace(
            base,
            name=f"probe-loss-{seed}",
            link=LinkConfig(bandwidth_mbps=1000.0, rtt_ms=1.0, loss_rate=0.5, seed=seed),
            channel=ChannelConfig(probe_retries=3, probe_timeout_s=0.004),
        )
        cluster, report = run(scenario, tmp_path)
        t = cluster.telemetry
        if t.count("probe") >= 2 and t.count("handshake_timeout") == 0:
            assert report.queries[0].migrated == 1
            assert t.count("data_before_ack") == 0
            return
    pytest.fail("no seed exercised the probe-retry path")


def test_all_probes_lost_edge_resumes_locally_exact(tmp_path):
    baseline = None
    hit = False
    for seed in range(60):
        scenario = dataclasses.replace(
            make_scenario(forced_migration_at_rows=2000),
            name=f"all-loss-{seed}",
            link=LinkConfig(bandwidth_mbps=1000.0, rtt_ms=1.0, loss_rate=0.93, seed=seed),
            channel=ChannelConfig(probe_retries=2, probe_timeout_s=0.003),
        )
        cluster, report = run(scenario, tmp_path)
        q = report.queries[0]
        if baseline is None:
            base_scenario = make_scenario(mode="edge_only", warm_series=())
            _, base_report = run(base_scenario, tmp_path)
            baseline = base_report.queries[0].checksum
        assert q.checksum == baseline, f"seed {seed} lost exactness"
        if cluster.telemetry.count("handshake_timeout"):
            hit = True
            assert q.final_placement == "edge"
            assert q.handshake_failures == 1
    assert hit, "no seed exhausted the retry budget"


def test_all_probes_lost_aggregation_resumes_locally_exact(tmp_path):
    baseline = edge_baseline_checksum(TABLE_II["Q4"], small_workload(), tmp_path)
    hit = False
    for seed in range(60):
        scenario = dataclasses.replace(
            make_scenario(TABLE_II["Q4"], forced_migration_at_rows=2000),
            name=f"agg-all-loss-{seed}",
            link=LinkConfig(bandwidth_mbps=1000.0, rtt_ms=1.0, loss_rate=0.93, seed=seed),
            channel=ChannelConfig(probe_retries=2, probe_timeout_s=0.003),
        )
        cluster, report = run(scenario, tmp_path)
        q = report.queries[0]
        assert q.checksum == baseline, f"seed {seed} lost exactness"
        if cluster.telemetry.count("handshake_timeout"):
            hit = True
            assert q.final_placement == "edge"
            assert q.handshake_failures == 1
    assert hit, "no seed exhausted the retry budget"


def test_handshake_timeout_channel_reaches_terminated(tmp_path):
    for seed in range(60):
        scenario = dataclasses.replace(
            make_scenario(forced_migration_at_rows=2000),
            name=f"timeout-{seed}",
            link=LinkConfig(bandwidth_mbps=1000.0, rtt_ms=1.0, loss_rate=0.93, seed=seed),
            channel=ChannelConfig(probe_retries=2, probe_timeout_s=0.003),
        )
        cluster, _ = run(scenario, tmp_path)
        if cluster.telemetry.count("handshake_timeout"):
            sink = cluster.contexts[0].channels[0]
            assert sink.phase == ChannelPhase.TERMINATED
            return
    pytest.fail("timeout path never exercised")


# --- streaming / termination -----------------------------------------------------------------

def test_stream_block_count_conservation(tmp_path):
    scenario = make_scenario(TABLE_II["Q3"], name="Q3", forced_migration_at_rows=2000)
    cluster, report = run(scenario, tmp_path)
    sinks = cluster.contexts[0].channels
    produced = sum(p.leaf_op.rows_local for p in cluster.gateway.channels.values())
    received = sum(leaf.rows_remote for leaf in cluster.contexts[0].leaf_ops)
    assert produced == received > 0
    assert all(s.phase == ChannelPhase.TERMINATED for s in sinks)


class RecordingTransport:
    """The part of a Transport a SinkChannel uses; keeps the type of each message sent."""

    def __init__(self):
        self.sent = []

    def register_channel(self, channel, handler):
        pass

    def unregister_channel(self, channel):
        pass

    def send_message(self, msg, droppable=False):
        self.sent.append(msg.type)


def test_poll_returns_one_credit_per_block_until_the_terminate_arrives():
    series = SeriesPath.parse("root.ln.edge1.dev.t1")
    channel = ChannelId("cloud", 9000, 1, 1, 1)
    transport = RecordingTransport()
    sink = SinkChannel(Engine(), transport, channel, TABLE_II["Q3"], series, ChannelConfig(),
                       ProtocolTelemetry(), notify=lambda: None, on_confirmed=lambda _: None)
    blocks = [TsBlock(series, [t], [float(t)], ValueType.FLOAT64) for t in range(3)]
    for block in blocks:
        sink.on_message(Message(MessageType.DATA, channel, block=block))
    assert sink.poll() is blocks[0] and transport.sent == [MessageType.CREDIT]
    assert sink.poll() is blocks[1] and transport.sent == [MessageType.CREDIT] * 2
    sink.on_message(Message(MessageType.TERMINATE, channel,
                            terminate_reason=TerminateReason.CLOUD_COMPLETED))
    assert sink.poll() is blocks[2]                 # queued before the marker, handed out after it
    assert sink.poll() == RemoteEnd("complete")
    assert sink.poll() is PENDING
    assert transport.sent == [MessageType.CREDIT] * 2


def test_a_data_block_before_the_ack_or_of_another_series_is_recorded_and_still_queued():
    series = SeriesPath.parse("root.ln.edge1.dev.t1")
    channel = ChannelId("cloud", 9000, 1, 1, 1)
    telemetry = ProtocolTelemetry()
    sink = SinkChannel(Engine(), RecordingTransport(), channel, TABLE_II["Q3"], series, ChannelConfig(),
                       telemetry, notify=lambda: None, on_confirmed=lambda _: None)
    sink.activate(-(2**63))                         # the delta is out, the ACK not yet in
    early = TsBlock(series, [0], [0.0], ValueType.FLOAT64)
    sink.on_message(Message(MessageType.DATA, channel, block=early))
    sink.on_message(Message(MessageType.ACK, channel))
    stray = TsBlock(SeriesPath.parse("root.ln.edge1.dev.t3"), [1], [1.0], ValueType.FLOAT64)
    sink.on_message(Message(MessageType.DATA, channel, block=stray))
    anomalies = [(kind, ch) for _, kind, ch in telemetry.events if kind not in ("delta", "probe", "streaming")]
    assert anomalies == [("data_before_ack", channel), ("cross_channel_block", channel)]
    assert sink.recv_queue == [early, stray]


def test_the_gateway_drops_a_stray_message_for_an_unknown_channel(tmp_path):
    cluster = make_cluster(make_scenario(), tmp_path)
    channel = ChannelId("edge", 7000, 1, 1, 99)
    replies = []
    cluster.edge_transport.register_channel(channel, replies.append)
    cluster.edge_transport.send_message(Message(MessageType.CREDIT, channel))
    cluster.engine.run_until_idle()
    assert replies == [] and cluster.telemetry.events == [] and cluster.gateway.channels == {}
    assert [direction for _, direction in cluster.link.counters] == ["edge->cloud"]


def test_backpressure_queue_never_exceeds_depth(tmp_path):
    scenario = make_scenario(TABLE_II["Q3"], name="Q3", forced_migration_at_rows=1000)
    cluster, _ = run(scenario, tmp_path)
    for sink in cluster.contexts[0].channels:
        assert sink.max_queue_seen <= scenario.channel.queue_depth + 1  # +1: termination marker


def test_channel_isolation_under_concurrency(tmp_path):
    q3 = QuerySpec("Q3", TABLE_II["Q3"], concurrency=4)
    scenario = make_scenario(
        TABLE_II["Q3"], queries=(q3,), forced_migration_at_rows=1000,
        workload=small_workload(total_rows=4000),
    )
    cluster, report = run(scenario, tmp_path)
    assert cluster.telemetry.count("cross_channel_block") == 0
    assert cluster.telemetry.count("block") > 0
    # 4 queries x 2 scans -> 8 distinct quintuples
    keys = {s.channel_id.key() for ctx in cluster.contexts for s in ctx.channels}
    assert len(keys) == 8


def test_terminate_idempotent(tmp_path):
    scenario = make_scenario(forced_migration_at_rows=2000)
    cluster, _ = run(scenario, tmp_path)
    producer = next(iter(cluster.gateway.channels.values()))
    assert producer.phase == ChannelPhase.TERMINATED
    before = len(cluster.telemetry.events)
    producer._terminate(TerminateReason.CLOUD_COMPLETED)     # second call: no-op
    assert len(cluster.telemetry.events) == before


def test_remigration_pipe_closes_only_after_blocks_consumed(tmp_path):
    scenario = make_scenario(
        TABLE_II["Q3"], name="Q3",
        forced_migration_at_rows=1000, forced_fallback_after_rows=3000,
    )
    cluster, report = run(scenario, tmp_path)
    q = report.queries[0]
    assert q.remigrated >= 1
    remigrated = {ch for _, kind, ch in cluster.telemetry.events if kind == "closed_remigrate"}
    for sink in cluster.contexts[0].channels:
        if sink.channel_id in remigrated:
            assert not sink.recv_queue       # fully drained before close
    assert q.final_placement == "edge"


@pytest.mark.parametrize("name", ["Q4", "Q5"])
def test_aggregation_remigration_resumes_locally_exact(tmp_path, name):
    scenario = make_scenario(
        TABLE_II[name], name=name,
        forced_migration_at_rows=1000, forced_fallback_after_rows=3000,
    )
    cluster, report = run(scenario, tmp_path)
    q = report.queries[0]
    assert (q.migrated, q.remigrated) == (1, 1)
    assert q.final_placement == "edge"
    assert q.checksum == edge_baseline_checksum(TABLE_II[name], small_workload(), tmp_path, name)


def test_sparse_window_pair_is_exact_in_every_mode(tmp_path):
    # every other 5m window is empty, so both merged columns are None on half the rows
    sql = "SELECT max_value(t3), max_value(t4) FROM dev GROUP BY 5m"
    workload = WorkloadConfig(sensor_count=4, sampling_interval_ms=600_000, total_rows=600,
                              chunk_target_rows=100)
    results = {}
    for mode, kw in [("edge_only", dict(warm_series=())),
                     ("cloud_only", dict(warm_series=("t3", "t4"))),
                     ("collaborative", dict(warm_series=("t3", "t4"), forced_migration_at_rows=150))]:
        _, report = run(make_scenario(sql, mode=mode, workload=workload, **kw), tmp_path)
        q = report.queries[0]
        results[mode] = (q.rows, q.checksum)
        if mode == "collaborative":
            assert q.migrated == 2
    assert results["edge_only"][0] == 1199
    assert results["cloud_only"] == results["collaborative"] == results["edge_only"]


def test_transport_down_aborts_migration_and_query_completes(tmp_path):
    scenario = make_scenario(forced_migration_at_rows=2000)
    cluster = make_cluster(scenario, tmp_path)
    baseline_scenario = make_scenario(mode="edge_only", warm_series=())
    _, base_report = run(baseline_scenario, tmp_path)
    cluster.warm_cache()
    cluster.link.close()       # transport drops before the query begins
    report = cluster.run()
    q = report.queries[0]
    assert q.migrated == 0
    assert q.checksum == base_report.queries[0].checksum
    assert cluster.telemetry.count("request") == 0      # nothing was sent
    # the closed link is not retried: no channel is left registered, and at most one per leaf
    ctx = cluster.contexts[0]
    assert cluster.edge_transport._channel_handlers == {}
    assert len(ctx.channels) <= len(ctx.leaf_ops)


@pytest.mark.parametrize("sql, forge", [
    # the next chunk starts 999 ms after the index; 500 of its rows on, 1 s apart
    (TABLE_II["Q1"], lambda index: index + 999 + 500 * 1000),
    (TABLE_II["Q4"], lambda index: index + 1),
], ids=["timestamp-inside-a-chunk", "window-start-off-the-grid"])
def test_a_delta_the_producer_cannot_resume_from_ends_in_a_local_resume(tmp_path, sql, forge):
    cluster = make_cluster(make_scenario(sql, forced_migration_at_rows=2000), tmp_path)
    send = cluster.edge_transport.send_message

    def forge_delta(msg, droppable=False):
        if msg.type is MessageType.DELTA:
            index = forge(msg.delta.logical_index)
            msg = dataclasses.replace(msg, delta=dataclasses.replace(msg.delta, logical_index=index))
        send(msg, droppable)

    cluster.edge_transport.send_message = forge_delta
    q = cluster.run().queries[0]
    # the producer takes no delta and ACKs no probe; the edge times out and cancels it
    assert q.checksum == edge_baseline_checksum(sql, small_workload(), tmp_path)
    assert (q.migrated, q.handshake_failures, q.final_placement) == (1, 1, "edge")
    assert active_producers(cluster.gateway) == 0


def test_a_merge_of_aggregations_pulls_once_per_window_so_a_switch_lands(tmp_path):
    sql = "SELECT count(t1), max_value(t3) FROM dev GROUP BY 5m"
    cluster = make_cluster(make_scenario(sql, mode="edge_only", warm_series=()), tmp_path)
    step, pulls = cluster._step, []
    cluster._step = lambda *args: pulls.append(args) or step(*args)
    edge_only = cluster.run().queries[0]
    assert edge_only.rows == 20                       # 6000 s of rows in 5 min windows
    assert len(pulls) == edge_only.rows + 1           # one pull per window, one to end
    for at_rows in (0, 1000, 3000):
        _, report = run(make_scenario(sql, forced_migration_at_rows=at_rows), tmp_path)
        q = report.queries[0]
        assert (q.migrated, q.final_placement) == (2, "cloud"), at_rows
        assert q.checksum == edge_only.checksum


# --- pushdown economy --------------------------------------------------------------------------

def bytes_to_edge(cluster):
    total = 0
    for (channel, direction), counter in cluster.link.counters.items():
        if direction == "cloud->edge" and isinstance(channel, tuple) and channel[0] == "chan":
            total += counter.delivered
    return total


def pushdown_and_streaming_runs(monkeypatch, scenario, tmp_path):
    """(cluster, report) of ``scenario`` as planned, then with the cloud streaming blocks."""
    pushdown = run(scenario, tmp_path)
    monkeypatch.setattr(ced.harness.runtime, "build_scan",
                        lambda scan, store: build_scan(dataclasses.replace(scan, predicate=None), store))
    return pushdown, run(scenario, tmp_path)


def test_pushdown_transfers_far_fewer_bytes_than_streaming(monkeypatch, tmp_path):
    scenario = make_scenario(
        forced_migration_at_rows=1000, workload=small_workload(total_rows=10_000),
    )
    results = []
    for cluster, report in pushdown_and_streaming_runs(monkeypatch, scenario, tmp_path):
        assert report.queries[0].migrated == 1
        results.append((bytes_to_edge(cluster), report.queries[0].checksum))
    (pushdown_bytes, ck1), (streaming_bytes, ck2) = results
    assert ck1 == ck2
    assert pushdown_bytes < streaming_bytes
    assert pushdown_bytes / streaming_bytes < 0.05


def test_pushdown_equals_streaming_at_full_selectivity(monkeypatch, tmp_path):
    # always-true predicate: every row crosses either way
    scenario = make_scenario(
        "SELECT t3 FROM dev WHERE t3 >= -1.0", forced_migration_at_rows=1000,
        workload=small_workload(total_rows=5000),
    )
    pushdown, streaming = pushdown_and_streaming_runs(monkeypatch, scenario, tmp_path)
    assert bytes_to_edge(pushdown[0]) <= bytes_to_edge(streaming[0])
