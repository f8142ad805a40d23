"""Shared test helpers: scenario factories and a prober for malformed wire input."""

import dataclasses
import itertools
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings

from ced.errors import MalformedMessage
from ced.harness.metrics import digest_memo
from ced.harness.runtime import Cluster
from ced.harness.scenario import QuerySpec, ScenarioConfig
from ced.harness.workload import WorkloadConfig
from ced.migrate import ChannelPhase
from ced.tsstore import SeriesPath, _file_index, decode_memo
from ced.wire import link_memo

Q1_SQL = "SELECT t1 FROM dev WHERE t1='v999'"
Q2_SQL = "SELECT t3 FROM dev WHERE t3=497.44467"
Q3_SQL = "SELECT t1, t3 FROM dev"
Q4_SQL = "SELECT count(t1) FROM dev GROUP BY 5m"
Q5_SQL = "SELECT max_value(t3) FROM dev GROUP BY 5m"

TABLE_II = {"Q1": Q1_SQL, "Q2": Q2_SQL, "Q3": Q3_SQL, "Q4": Q4_SQL, "Q5": Q5_SQL}

_counter = itertools.count()

# A test that sets no example count of its own (the protocol oracle) runs 60
# examples in tier-1 and 300 under ``--hypothesis-profile=oracle``.
settings.register_profile("tier1", max_examples=60)
settings.register_profile("oracle", max_examples=300)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def empty_memos():
    """Each test starts with no decoded chunk (nor its pages' packed
    payloads), decoded link block or checksum state retained, so pack and
    decode counts do not depend on which tests ran before it in the process."""
    for memo in (decode_memo, link_memo, digest_memo):
        memo.clear()


def small_workload(total_rows=6000, chunk_rows=1000, sensors=3, interval_ms=1000, seed=0):
    return WorkloadConfig(
        sensor_count=sensors,
        sampling_interval_ms=interval_ms,
        total_rows=total_rows,
        chunk_target_rows=chunk_rows,
        seed=seed,
    )


def make_scenario(sql="SELECT t1 FROM dev WHERE t1='v999'", name="Q", **kw):
    defaults = dict(
        name=f"test-{next(_counter)}",
        mode="collaborative",
        queries=(QuerySpec(name, sql),),
        workload=small_workload(),
        warm_series=("t1", "t3"),
        monitor_enabled=False,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def make_cluster(scenario, tmp_path=None) -> Cluster:
    workdir = Path(tmp_path) if tmp_path else Path(tempfile.mkdtemp(prefix="ced-test-"))
    return Cluster(scenario, workdir / f"c{next(_counter)}")


def run(scenario, tmp_path=None):
    cluster = make_cluster(scenario, tmp_path)
    report = cluster.run()
    return cluster, report


def edge_baseline_checksum(sql, workload, tmp_path=None, name="Q"):
    scenario = make_scenario(sql, name=name, mode="edge_only", workload=workload, warm_series=())
    _, report = run(scenario, tmp_path)
    return report.queries[0].checksum


def content_fingerprint(store, series) -> bytes:
    """Byte-exact physical content of ``series`` in ``store``: its files' bytes."""
    return b"".join(handle.path.read_bytes() for handle in store._files(series))


def total_rows(store, series) -> int:
    """Rows of ``series`` in ``store``, over its files."""
    return sum(m.row_count for m in store.chunk_metas(series))


def read_file_index(path: Path) -> list:
    """The chunk index of the ``.cedf`` file at ``path``, read from its footer."""
    return _file_index(path.read_bytes(), path)


def parent(path: SeriesPath) -> SeriesPath:
    """The series path one segment up."""
    return SeriesPath(path.segments[:-1])


def active_producers(gateway) -> int:
    """Cloud producers of ``gateway`` that have not terminated."""
    return sum(p.phase != ChannelPhase.TERMINATED for p in gateway.channels.values())


def rejections(decode, sample: bytes, enum_offsets) -> list[str]:
    """Corruptions of ``sample`` that ``decode`` fails to reject with MalformedMessage.

    Tried: every strict prefix, one appended byte, and an unknown value at
    each enum byte offset.
    """
    cases = [(f"prefix[:{n}]", sample[:n]) for n in range(len(sample))]
    cases.append(("appended", sample + b"\x00"))
    cases += [(f"enum@{at}", sample[:at] + b"\xee" + sample[at + 1:]) for at in enum_offsets]
    missed = []
    for name, buf in cases:
        try:
            decode(buf)
        except MalformedMessage:
            continue
        except Exception as exc:             # the failure is reported below, by name
            missed.append(f"{name}: {type(exc).__name__}")
        else:
            missed.append(f"{name}: accepted")
    return missed
