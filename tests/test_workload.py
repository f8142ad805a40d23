"""Dataset generation: pinned file bytes, the order of appends and flushes,
reuse of the last built dataset, and ``ced gen``."""

import dataclasses
import hashlib
import json
import shutil

import pytest

from ced.errors import OutOfOrderTimestamp
from ced.harness.cli import main as ced_main
from ced.harness.workload import WorkloadConfig, generate
from ced.tsstore import DataPoint, SeriesPath, SeriesStore

# all four value types (t1 STRING, t2 BOOL, t3 FLOAT64, t4 INT64, t5 STRING),
# three flushes per sensor, pages of 250 rows in chunks of 600
PINNED = WorkloadConfig(
    sensor_count=5,
    sampling_interval_ms=7,
    total_rows=2500,
    seed=3,
    chunk_target_rows=600,
    page_rows=250,
    flush_every_rows=1000,
    plant_count=4,
)

PINNED_SHA256 = {
    "t1__000000": "94e2e6fc06b6663680a9aa327234f4594a423ae1ac05eac83e779c3c115990ef",
    "t1__000001": "e2285b46e4257bc7d8ec8b961c0f74fe8f8a36b36f0f79e8f91946efab01bf8d",
    "t1__000002": "136c07a8a208e15de13433520a73a80760b1179d2eebd623693273f088269108",
    "t2__000000": "b9248a0539ae15cc2960d89b6bde170590b3892a4029a747e9f0d3b76d1d7238",
    "t2__000001": "7c1d073b038ee209bc51d980143a1c021fa19df30c7dcdc84b82ea55826a70af",
    "t2__000002": "d6717a5d2f9272254b972a5ac65c6eea572474ea402492ece6ab45c001ad4038",
    "t3__000000": "b190671ce949528423606ac2d9992ca61692143323888e8384d71467338de053",
    "t3__000001": "90eb96bfd738d20edee14c3088e87c1a8f187a0d13d94220ef1a478d0c08d2ac",
    "t3__000002": "f988e5ea3dab1493facd651938334f90adc26a87493de7ee82a8744d533afa92",
    "t4__000000": "075fc1565d96f97e117d3d3d8cf6cf0951ce0b07f5c21e4d2fc00e102523d1d3",
    "t4__000001": "d339960555f44f39682db41d4085ee0fbad93b7852172462e3811a035215c733",
    "t4__000002": "65fb0564fa1d3515553c6b8297f7da6d5a8f9f5e6fab26a162ab7c9ae553730e",
    "t5__000000": "43cf28d6e433bdabc667692c32c17e9421924524c86eead3bffb95c87078229c",
    "t5__000001": "e33f1f61e51df3107a3f9d238b69101ccfef07e6404f1537e1621442033cd958",
    "t5__000002": "8b34b374881b62c9df1331366fcbbe11ed89ea92334ee9c47090b3b87dfea799",
}


def store_for(root, config, **kw):
    kw.setdefault("page_rows", config.page_rows)
    return SeriesStore(root, chunk_target_rows=config.chunk_target_rows, **kw)


def file_digests(root):
    prefix = PINNED.device + "."
    return {
        p.name[len(prefix):-len(".cedf")]: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
    }


def scan_rows(store, series):
    return [
        (ts, v)
        for meta in store.chunk_metas(series)
        for block in store.load_chunk_pages(meta)
        for ts, v in zip(block.timestamps, block.values)
    ]


def test_generated_file_digests_are_pinned(tmp_path):
    store = store_for(tmp_path, PINNED)
    dataset = generate(store, PINNED)
    assert file_digests(tmp_path) == PINNED_SHA256
    assert dataset.total_points == 5 * 2500


def test_generate_appends_rows_in_order_and_flushes_every_flush_every_rows(
    tmp_path, monkeypatch
):
    config = WorkloadConfig(
        sensor_count=4, total_rows=30, sampling_interval_ms=3, chunk_target_rows=8,
        page_rows=5, flush_every_rows=12, seed=1,
    )
    events = []
    append_columns, flush = SeriesStore.append_columns, SeriesStore.flush

    def recorded_append(self, series, timestamps, values):
        events.append((str(series), "append", list(zip(timestamps, values))))
        return append_columns(self, series, timestamps, values)

    def recorded_flush(self, series, chunk_target_rows=None):
        events.append((str(series), "flush", chunk_target_rows))
        return flush(self, series, chunk_target_rows)

    monkeypatch.setattr(SeriesStore, "append_columns", recorded_append)
    monkeypatch.setattr(SeriesStore, "flush", recorded_flush)
    store = store_for(tmp_path, config)
    generate(store, config)
    expected = []
    for series in series_of(config):
        rows = scan_rows(store, series)
        assert [ts for ts, _ in rows] == [3 * i for i in range(30)]
        for start, stop in ((0, 12), (12, 24), (24, 30)):
            expected.append((str(series), "append", rows[start:stop]))
            expected.append((str(series), "flush", 8))
    assert events == expected


@pytest.fixture
def flushes(monkeypatch):
    """Count SeriesStore.flush calls: a from-scratch build flushes, a reuse does not."""
    calls = []
    real = SeriesStore.flush

    def counted(self, *args, **kw):
        calls.append(self.root)
        return real(self, *args, **kw)

    monkeypatch.setattr(SeriesStore, "flush", counted)
    return calls


def file_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def series_of(config):
    device = SeriesPath.parse(config.device)
    return [device.child(name) for name in config.sensor_names()]


def test_second_generate_reuses_the_built_files(tmp_path, flushes):
    first = store_for(tmp_path / "a", PINNED)
    generate(first, PINNED)
    flushes.clear()
    second = store_for(tmp_path / "b", PINNED)
    dataset = generate(second, PINNED)
    assert flushes == []
    assert dataset == generate(store_for(tmp_path / "c", PINNED), PINNED)
    assert file_bytes(second.root) == file_bytes(first.root)
    assert file_digests(second.root) == PINNED_SHA256
    for series in series_of(PINNED):
        assert second.content_fingerprint(series) == first.content_fingerprint(series)
        assert second.time_bounds(series) == first.time_bounds(series)
        assert second.total_rows(series) == first.total_rows(series)
        assert second.value_type(series) is first.value_type(series)
        assert all(m.file_path.parent == second.root for m in second.chunk_metas(series))
        assert scan_rows(second, series) == scan_rows(first, series)


def test_reused_store_flushes_its_next_file_in_sequence(tmp_path):
    config = dataclasses.replace(PINNED, flush_every_rows=None)
    generate(store_for(tmp_path / "a", config), config)
    store = store_for(tmp_path / "b", config)
    generate(store, config)
    series = series_of(config)[2]
    with pytest.raises(OutOfOrderTimestamp):
        store.append(series, DataPoint(config.total_rows * 7 - 7, 1.0))
    store.append(series, DataPoint(10**9, 1.0))
    handle = store.flush(series)
    assert handle.path.name == f"{series}__000001.cedf"
    assert store.total_rows(series) == config.total_rows + 1


def test_reuse_survives_removal_of_the_first_store(tmp_path, flushes):
    first = store_for(tmp_path / "a", PINNED)
    generate(first, PINNED)
    expected = file_bytes(first.root)
    shutil.rmtree(first.root)
    flushes.clear()
    second = store_for(tmp_path / "b", PINNED)
    generate(second, PINNED)
    assert flushes == []
    assert file_bytes(second.root) == expected


@pytest.mark.parametrize("variant", ["non_empty", "seed", "page_rows"])
def test_other_stores_and_configs_build_from_scratch(tmp_path, flushes, variant):
    generate(store_for(tmp_path / "a", PINNED), PINNED)
    config, kw = PINNED, {}
    if variant == "seed":
        config = dataclasses.replace(PINNED, seed=PINNED.seed + 1)
    elif variant == "page_rows":                  # same config, another store layout
        kw["page_rows"] = PINNED.page_rows + 1
    store = store_for(tmp_path / "b", config, **kw)
    if variant == "non_empty":
        store.append(SeriesPath.parse("root.other.dev.x"), DataPoint(0, 1))
    flushes.clear()
    generate(store, config)
    assert len(flushes) == 3 * config.sensor_count
    fresh = store_for(tmp_path / "fresh", config, **kw)
    flushes.clear()
    generate(fresh, config)
    for series in series_of(config):
        assert store.content_fingerprint(series) == fresh.content_fingerprint(series)


def test_ced_gen_writes_the_generated_bytes(tmp_path, capsys):
    config_file = tmp_path / "workload.json"
    config_file.write_text(json.dumps(dataclasses.asdict(PINNED)))
    assert ced_main(["gen", "--workload", str(config_file), "--out", str(tmp_path / "out")]) == 0
    assert "generated 12500 points: 5 sensors x 2500 rows" in capsys.readouterr().out
    assert file_digests(tmp_path / "out") == PINNED_SHA256
