"""Randomized protocol oracle: every collaborative run over small scenarios
returns the edge-only rows and checksum, and leaves no channel open.

The example count comes from the loaded hypothesis profile (see conftest):
tier-1 runs a short sweep, ``--hypothesis-profile=oracle`` a longer one.
"""

import re
import tempfile

from conftest import TABLE_II, active_producers, make_cluster, make_scenario, small_workload
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ced.migrate
from ced.harness.scenario import QuerySpec
from ced.migrate import ChannelConfig, ChannelPhase
from ced.monitor import ThresholdPolicy
from ced.netsim import LinkConfig

QUERIES = {
    **TABLE_II,
    "hot": "SELECT t3 FROM dev WHERE t3 > 900.0",
    "cold_pair": "SELECT t1, t3 FROM dev WHERE t3 < 100.0",
    "agg_pair": "SELECT count(t1), max_value(t3) FROM dev GROUP BY 5m",   # two aggregation leaves merged
}

# every event kind the protocol may record is named in the module docstring
DOCUMENTED_KINDS = set(re.findall(r"``(\w+)``", ced.migrate.__doc__))


def case(name, rows, concurrency, cpu_load, io_duty, bandwidth_mbps, rtt_ms, loss_rate,
         link_seed, probe_retries, probe_timeout_s, queue_depth, forced_at, fallback_after):
    """The query name and the collaborative scenario's knobs; the monitor
    decides when no switch is forced."""
    return name, dict(
        queries=(QuerySpec(name, QUERIES[name], concurrency),),
        workload=small_workload(total_rows=rows),
        cpu_load=cpu_load,
        background_io_duty=io_duty,
        link=LinkConfig(bandwidth_mbps, rtt_ms, loss_rate, link_seed),
        channel=ChannelConfig(probe_retries, probe_timeout_s, queue_depth),
        monitor_enabled=forced_at is None,
        monitor_period_s=0.005,
        policy=ThresholdPolicy(dwell=1),
        forced_migration_at_rows=forced_at,
        forced_fallback_after_rows=fallback_after,
    )


CASES = st.builds(
    case,
    name=st.sampled_from(sorted(QUERIES)),
    rows=st.integers(2000, 6000),
    concurrency=st.sampled_from([1, 2, 4]),
    cpu_load=st.sampled_from([0, 4]),
    io_duty=st.sampled_from([0.0, 0.5]),
    bandwidth_mbps=st.sampled_from([10.0, 100.0, 1000.0]),
    rtt_ms=st.sampled_from([1.0, 5.0, 40.0]),
    loss_rate=st.sampled_from([0.0, 0.3, 0.7, 0.95]),
    link_seed=st.integers(0, 3),
    probe_retries=st.integers(0, 3),
    probe_timeout_s=st.sampled_from([0.002, 0.01, 0.05]),
    queue_depth=st.integers(1, 4),
    forced_at=st.none() | st.integers(0, 6000),
    fallback_after=st.none() | st.integers(0, 6000),
)


@settings(derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(CASES)
# the monitor migrates, then the producer falls back holding a pushed-down match
@example(case("Q1", 2000, 1, 4, 0.0, 1000.0, 1.0, 0.0, 0, 0, 0.002, 1, None, 1))
def test_collaborative_runs_match_edge_only_and_close_every_channel(drawn):
    name, knobs = drawn
    with tempfile.TemporaryDirectory(prefix="ced-oracle-") as workdir:
        base = make_cluster(
            make_scenario(QUERIES[name], name=name, mode="edge_only",
                          workload=knobs["workload"], warm_series=()),
            workdir,
        ).run()
        expected = (base.queries[0].rows, base.queries[0].checksum)
        cluster = make_cluster(make_scenario(**knobs), workdir)
        report = cluster.run()
    assert {(q.rows, q.checksum) for q in report.queries} == {expected}
    assert active_producers(cluster.gateway) == 0
    assert cluster.edge_transport._channel_handlers == {}
    assert all(s.phase == ChannelPhase.TERMINATED for c in cluster.contexts for s in c.channels)
    assert {kind for _, kind, _ in cluster.telemetry.events} <= DOCUMENTED_KINDS
