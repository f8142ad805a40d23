"""Dataset generation: pinned file bytes, the order of appends and flushes,
reuse of the last built dataset, and ``ced gen``."""

import dataclasses
import errno
import hashlib
import json
import os
import random
import shutil

import pytest
from conftest import content_fingerprint, total_rows

from ced.errors import OutOfOrderTimestamp, ScenarioError
from ced.harness import workload
from ced.harness.cli import main as ced_main
from ced.harness.workload import WorkloadConfig, _randbelow, generate
from ced.tsstore import MAX_TS, SeriesPath, SeriesStore

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
    "t1__000000": "a25973fcdc6cb638b7246fdf7c31ea016f9728d14f1653a67e937138afbb8624",
    "t1__000001": "02901437caaa1d3c4a3cc2e7df04cef6da482f534e7fdfafce30ca8a9a548632",
    "t1__000002": "63ba1d65ee19be28ce692c2bb73074ce07332cd4409b80341fa086384f9c6d89",
    "t2__000000": "8fac152d7c1d15886007aed332c4776bc3fb460ed3199bc03ced003f550ff5f7",
    "t2__000001": "0ab9d06124c5d1789a76c4a3b99e934a7456b192b940bab2cacf5eeaf8b91217",
    "t2__000002": "c16c98adc5a7a1815b37a7e7d7f87637c6063e4dc14d2feae8bcef3f5f2bc0c2",
    "t3__000000": "6dc2cae0bd03613149fc6dc45c9e5ccb374d1890c927f0c949f05ee73eb95d3a",
    "t3__000001": "2672d51abfee0c0d9cd61073675b95b1bd4e344845902eb05b365e3dfe6efeed",
    "t3__000002": "53ee468a57822602a7b618e9e146839536883b32034276f916c9fd50671a1fa9",
    "t4__000000": "0e31aaf0fca2420f34b26e529f94b54b4dd000a1667ddee629c0a2fcc0e4194f",
    "t4__000001": "610365731c4ce471388290cd033959aaa8eceebc025cd82418ca0fcb012bbc82",
    "t4__000002": "bd0460a99ce2fb93a65a5eba595678a1a1183d34af2052393ab5b05e8d221cd1",
    "t5__000000": "b8fcafa99fd5c9725861429be26fe5df80f398f0de7e036ac18f21ddb21a279c",
    "t5__000001": "7daa90441edd13bf67b7dafc11ec759b49bc94807bf733c6a60f84358be7d1f6",
    "t5__000002": "1ec5901d256be0e7dd726fddda9968fc3df5da51ff79837f299fff6f66557f42",
}

# byte length of each file; the same under the row layout of format version 1,
# so chunk offsets, bytes read and snapshot bytes are the same too
PINNED_BYTES = {
    "t1__000000": 16208,
    "t1__000001": 16210,
    "t1__000002": 8104,
    "t2__000000": 9326,
    "t2__000001": 9326,
    "t2__000002": 4664,
    "t3__000000": 16326,
    "t3__000001": 16326,
    "t3__000002": 8164,
    "t4__000000": 16326,
    "t4__000001": 16326,
    "t4__000002": 8164,
    "t5__000000": 16218,
    "t5__000001": 16224,
    "t5__000002": 8108,
}


def store_for(root, config, **kw):
    kw.setdefault("page_rows", config.page_rows)
    return SeriesStore(root, chunk_target_rows=config.chunk_target_rows, **kw)


def file_sizes(root):
    prefix = PINNED.device + "."
    return {p.name[len(prefix):-len(".cedf")]: p.stat().st_size for p in sorted(root.iterdir())}


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
    assert file_sizes(tmp_path) == PINNED_BYTES
    assert file_digests(tmp_path) == PINNED_SHA256
    assert dataset.total_points == 5 * 2500


@pytest.mark.parametrize("bound", [1, 2, 3, 1000, 1024, 1025])
@pytest.mark.parametrize("seed", [0, 5, "3:t1", "13:t4"])
def test_batched_draws_equal_randrange(bound, seed):
    batched, reference = random.Random(seed), random.Random(seed)
    assert _randbelow(batched, bound, 3000) == [reference.randrange(bound) for _ in range(3000)]
    assert batched.getstate() == reference.getstate()      # no draw taken past the last


def test_generate_appends_rows_in_order_and_flushes_every_flush_every_rows(
    tmp_path, monkeypatch
):
    config = WorkloadConfig(
        sensor_count=4, total_rows=30, sampling_interval_ms=3, chunk_target_rows=8,
        page_rows=5, flush_every_rows=12, seed=1,
    )
    events = []
    flush = SeriesStore.flush

    def recorded_flush(self, series, timestamps, values, chunk_target_rows=None):
        events.append((str(series), list(zip(timestamps, values)), chunk_target_rows))
        return flush(self, series, timestamps, values, chunk_target_rows)

    monkeypatch.setattr(SeriesStore, "flush", recorded_flush)
    store = store_for(tmp_path, config)
    generate(store, config)
    expected = []
    for series in series_of(config):
        rows = scan_rows(store, series)
        assert [ts for ts, _ in rows] == [3 * i for i in range(30)]
        for start, stop in ((0, 12), (12, 24), (24, 30)):
            expected.append((str(series), rows[start:stop], 8))
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
    assert_second_generate_reuses_the_built_files(tmp_path, flushes)


def test_reused_files_share_the_kept_datasets_inodes(tmp_path):
    first = store_for(tmp_path / "a", PINNED)
    generate(first, PINNED)
    second = store_for(tmp_path / "b", PINNED)
    generate(second, PINNED)
    kept = workload._last_built[1].root
    for path in sorted(second.root.iterdir()):
        assert path.stat().st_ino == (kept / path.name).stat().st_ino == (first.root / path.name).stat().st_ino


def test_a_refused_link_reuses_by_a_byte_copy(tmp_path, flushes, monkeypatch):
    """A filesystem that refuses the link (the kept dataset on another device)."""
    def refuse(src, dst):
        raise OSError(errno.EXDEV, "Invalid cross-device link", str(src), None, str(dst))

    monkeypatch.setattr(os, "link", refuse)
    first, second = assert_second_generate_reuses_the_built_files(tmp_path, flushes)
    for path in [*first.root.iterdir(), *second.root.iterdir()]:
        assert path.stat().st_nlink == 1


def assert_second_generate_reuses_the_built_files(tmp_path, flushes):
    """Generate PINNED into two stores, the second by reuse; the two stores."""
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
        assert content_fingerprint(second, series) == content_fingerprint(first, series)
        assert second.time_bounds(series) == first.time_bounds(series)
        assert total_rows(second, series) == total_rows(first, series)
        assert second.value_type(series) is first.value_type(series)
        assert all(m.file_path.parent == second.root for m in second.chunk_metas(series))
        assert scan_rows(second, series) == scan_rows(first, series)
    return first, second


def test_reused_store_flushes_its_next_file_in_sequence(tmp_path):
    config = dataclasses.replace(PINNED, flush_every_rows=None)
    generate(store_for(tmp_path / "a", config), config)
    store = store_for(tmp_path / "b", config)
    generate(store, config)
    series = series_of(config)[2]
    with pytest.raises(OutOfOrderTimestamp):
        store.flush(series, [config.total_rows * 7 - 7], [1.0])
    handle = store.flush(series, [10**9], [1.0])
    assert handle.path.name == f"{series}__000001.cedf"
    assert total_rows(store, series) == config.total_rows + 1


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
        store.flush(SeriesPath.parse("root.other.dev.x"), [0], [1])
    flushes.clear()
    generate(store, config)
    assert len(flushes) == 3 * config.sensor_count
    fresh = store_for(tmp_path / "fresh", config, **kw)
    flushes.clear()
    generate(fresh, config)
    for series in series_of(config):
        assert content_fingerprint(store, series) == content_fingerprint(fresh, series)


def test_ced_gen_writes_the_generated_bytes(tmp_path, capsys):
    config_file = tmp_path / "workload.json"
    config_file.write_text(json.dumps(dataclasses.asdict(PINNED)))
    assert ced_main(["gen", "--workload", str(config_file), "--out", str(tmp_path / "out")]) == 0
    assert "generated 12500 points: 5 sensors x 2500 rows" in capsys.readouterr().out
    assert file_digests(tmp_path / "out") == PINNED_SHA256


@pytest.mark.parametrize("content,message", [
    (json.dumps({"sensor_count": 2, "colour": "red"}), "unknown keys ['colour'] in workload"),
    (json.dumps({"total_rows": "100"}), "total_rows must be of type int, not '100'"),
    (json.dumps({"sensor_count": 2.0}), "sensor_count must be of type int, not 2.0"),
    (json.dumps([1, 2]), "workload must be a JSON object"),
    (json.dumps({"total_rows": 0}), "total_rows must be >= 1"),
    (json.dumps({"flush_every_rows": 0}), "flush_every_rows must be >= 1"),
    (json.dumps({"flush_every_rows": -5}), "flush_every_rows must be >= 1"),
    (json.dumps({"device": "dev"}), "device 'dev': series path needs >= 3 segments"),
    (json.dumps({"sampling_interval_ms": 2**62}), "last timestamp above the store's MAX_TS"),
    ('{"total_rows": ', "cannot load workload"),
    (b"\xff\xfe", "cannot load workload"),
    (None, "cannot load workload"),
])
def test_ced_gen_reports_a_bad_workload_file_as_an_error(tmp_path, capsys, content, message):
    config_file = tmp_path / "workload.json"
    if isinstance(content, bytes):
        config_file.write_bytes(content)
    elif content is not None:
        config_file.write_text(content)
    assert ced_main(["gen", "--workload", str(config_file), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_the_last_generated_timestamp_may_be_max_ts_and_no_more():
    WorkloadConfig(sensor_count=1, total_rows=2, sampling_interval_ms=MAX_TS).validate()
    with pytest.raises(ScenarioError, match="MAX_TS"):
        WorkloadConfig(sensor_count=1, total_rows=2, sampling_interval_ms=MAX_TS + 1).validate()


def test_ced_gen_refuses_a_directory_that_already_holds_cedf_files(tmp_path, capsys):
    config_file = tmp_path / "workload.json"
    config_file.write_text(json.dumps({"sensor_count": 1, "total_rows": 2000, "flush_every_rows": 500}))
    out = tmp_path / "out"
    args = ["gen", "--workload", str(config_file), "--out", str(out)]
    assert ced_main(args) == 0
    before = file_digests(out)
    assert len(before) == 4
    capsys.readouterr()
    config_file.write_text(json.dumps({"sensor_count": 1, "total_rows": 2000}))
    assert ced_main(args) == 1                  # its one file would overwrite the first of four
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ".cedf" in err
    assert file_digests(out) == before
