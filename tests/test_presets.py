"""Every preset runs to completion at a small scale and stays exact across modes."""

import csv
import hashlib
import io
import json

import pytest
from conftest import content_fingerprint, make_cluster, make_scenario

from ced.errors import ScenarioError
from ced.harness import cli
from ced.harness.metrics import emit
from ced.harness.presets import list_presets, preset_runs
from ced.harness.runtime import Cluster, run_scenario
from ced.harness.scenario import load_scenario_file
from ced.tsstore import SeriesPath

SCALE = 0.05
QUERY_NAMES = ("Q1", "Q2", "Q3", "Q4", "Q5")      # Q1-Q3 scan series, Q4/Q5 aggregate


@pytest.fixture(scope="module")
def preset_reports(tmp_path_factory):
    """The report of every run of a preset, computed once per module."""
    cache = {}

    def reports(name):
        if name not in cache:
            root = tmp_path_factory.mktemp(name)
            cache[name] = [
                run_scenario(config.scaled(SCALE), root / str(i), run_label=label)
                for i, (label, config) in enumerate(preset_runs(name))
            ]
        return cache[name]

    return reports


@pytest.fixture(scope="module")
def preset_results(preset_reports):
    """Query results of every run of a preset."""
    return lambda name: [q for report in preset_reports(name) for q in report.queries]


@pytest.mark.parametrize("name", list_presets())
def test_preset_completes_with_one_checksum_per_query(preset_results, name):
    results = preset_results(name)
    assert results
    checksums = {}
    for q in results:
        assert q.end_s >= q.start_s
        checksums.setdefault(q.sql, set()).add(q.checksum)
    assert all(len(found) == 1 for found in checksums.values()), checksums


# SHA-256 of the metrics.csv, decisions.csv and bytes.csv that each preset writes
# at SCALE.  Simulated figures are model outputs, not targets: a change that
# moves them re-records these digests on purpose and says why (ROADMAP aim 1).
PRESET_CSV_DIGESTS = {
    "bandwidth_sweep": {
        "metrics": "c7d44124d2cc87797110c2ca9818982e9f19ba6fb20d2ccb2327371ad0c29d93",
        "decisions": "0f241fe0fbe5512e071d8f663155d25fc796754ec13ef1b044e1fca9b8ea8c63",
        "bytes": "94c807337a0de52df78c5ca056ecf91df2a47f36a12bb93311fc84498b789070",
    },
    "cache_sweep": {
        "metrics": "8762be193461138bccb60642dbe3894ee6ad9e01b6f9857ce8ab1711da2486ad",
        "decisions": "589559e1ece9738e3e102ab3b9ea6bab10b6b09d977bbbecd89d5c0f4af6830a",
        "bytes": "322b9db48334f3ac4b693d0ce1197bb380ea556706ff39eb85e6eda922ceb7ab",
    },
    "cpu_sweep": {
        "metrics": "b50e26a887658d22a99fb3ffaadb6b0c01c03a0176ca6665342881ac561934a7",
        "decisions": "c04a22efa9265a520f4dc3a012c1769bea668bba8c36b04713225810be609a1b",
        "bytes": "29b003d137956c54034a58d4552fa013f2bd1e53385390c59f5d5f8399ae30ca",
    },
    "forced_migration": {
        "metrics": "415b19debc0c8f2601bbc1f4d279c820d2020548878c670931a2209e0e14321c",
        "decisions": "0f241fe0fbe5512e071d8f663155d25fc796754ec13ef1b044e1fca9b8ea8c63",
        "bytes": "79c09b6a6dbb310182340ba7a994775364ffb16ecd9085a8eda517b152a9bcef",
    },
    "io_sweep": {
        "metrics": "bf2aeb9bfc7685f8f823576836618651928b88407a0215faf76838459cb35774",
        "decisions": "0f241fe0fbe5512e071d8f663155d25fc796754ec13ef1b044e1fca9b8ea8c63",
        "bytes": "6b0062b2c38c448be4b01014371f982a3bbb53026dce30f2204e8af8412cbc3c",
    },
    "query_sweep": {
        "metrics": "f6a7f2318879244b4fda8ba6eb6d0c1777f87ce88e451253fd4de107e1ed8371",
        "decisions": "0f241fe0fbe5512e071d8f663155d25fc796754ec13ef1b044e1fca9b8ea8c63",
        "bytes": "5e4fbb64db58f11335dd264f996137f09eb99e4656e205d8f208761572adcb52",
    },
}


@pytest.mark.parametrize("name", list_presets())
def test_preset_csvs_match_the_pinned_digests(preset_reports, tmp_path, name):
    paths = emit(preset_reports(name), tmp_path)
    digests = {kind: hashlib.sha256(path.read_bytes()).hexdigest() for kind, path in paths.items()}
    assert digests == PRESET_CSV_DIGESTS[name], (
        f"{name}: the simulated figures changed.  Re-recording PRESET_CSV_DIGESTS is a "
        "deliberate re-baseline (ROADMAP aim 1): do it only with the reason in CHANGES.md"
    )


@pytest.mark.parametrize("name", ["query_sweep", "cpu_sweep"])
def test_preset_switches_every_query(preset_results, name):
    migrated = {q.name for q in preset_results(name) if q.migrated}
    assert migrated == set(QUERY_NAMES)


# every run that fills the cache: all of cache_sweep and the cloud_only runs of query_sweep
CACHE_RUNS = preset_runs("cache_sweep") + [
    (label, config) for label, config in preset_runs("query_sweep") if config.mode == "cloud_only"
]


@pytest.mark.parametrize("label,config", CACHE_RUNS, ids=[label for label, _ in CACHE_RUNS])
def test_cached_series_match_the_edge_after_a_run(tmp_path, label, config):
    cluster = Cluster(config.scaled(SCALE), tmp_path)
    cluster.run(label)
    cached = cluster.cloud_store.series_names()
    assert len(cached) == len(cluster.warm_series_paths()), label
    for key in cached:
        series = SeriesPath.parse(key)
        assert (
            content_fingerprint(cluster.cloud_store, series)
            == content_fingerprint(cluster.edge_store, series)
        ), key


FORCED_SCALE = 0.3
FORCED_PRESETS = ("query_sweep", "bandwidth_sweep", "forced_migration")


@pytest.fixture(scope="module")
def forced_runs_at_scale(tmp_path_factory):
    """(forced runs, edge_only checksum per SQL text) of the forced presets at FORCED_SCALE."""
    root = tmp_path_factory.mktemp("forced")
    forced, baseline = [], {}
    for name in FORCED_PRESETS:
        for i, (label, config) in enumerate(preset_runs(name)):
            if config.mode == "cloud_only":
                continue
            config = config.scaled(FORCED_SCALE)
            queries = run_scenario(config, root / f"{name}{i}", run_label=label).queries
            if config.forced_migration_at_rows is not None:
                forced.append((label, queries))
            elif config.mode == "edge_only":
                baseline.update((q.sql, q.checksum) for q in queries)
    return forced, baseline


def test_scaled_forced_runs_switch_and_stay_exact(forced_runs_at_scale):
    forced, baseline = forced_runs_at_scale
    assert len(forced) == 5 + 15 + 9
    for label, queries in forced:
        for q in queries:
            assert q.migrated >= 1, label
            assert q.checksum == baseline[q.sql], label


def test_queries_running_when_the_engine_idles_raise_scenario_error(monkeypatch, tmp_path):
    # a raise, not an assert: under python -O the run would go on to report partial results
    cluster = make_cluster(make_scenario(mode="edge_only", warm_series=()), tmp_path)
    monkeypatch.setattr(Cluster, "any_running", lambda self: True)
    monkeypatch.setattr(cluster.engine, "run_until_idle", lambda: None)
    with pytest.raises(ScenarioError, match="must finish"):
        cluster.run()


def test_scenario_file_with_a_removed_cache_key_is_rejected(tmp_path):
    path = tmp_path / "scenario.json"
    for key, value in (("cache", {"tau_hot": 3, "batch_size": 100}),
                       ("mode_override", "block_streaming")):
        path.write_text(json.dumps({
            "queries": [{"name": "Q1", "sql": "SELECT t1 FROM dev"}],
            key: value,
        }))
        with pytest.raises(ScenarioError, match=key):
            load_scenario_file(path)


@pytest.mark.parametrize("key,value", [
    ("monitor_period_s", 0), ("monitor_period_s", -1),
    ("cpu_hog_duty", -0.5), ("cpu_hog_duty", 1.0),
    ("forced_migration_at_rows", -1), ("forced_fallback_after_rows", -1),
    ("workload.page_rows", 0), ("workload.chunk_target_rows", 0), ("workload.string_pool", 0),
    ("workload.flush_every_rows", 0), ("workload.flush_every_rows", -5),
    ("workload.device", "dev"), ("workload.sampling_interval_ms", 2**62),
    ("channel.queue_depth", 0), ("channel.probe_timeout_s", 0), ("channel.probe_retries", -1),
    # a value of another type than its field's
    ("io_throttle", "x"), ("cpu_load", 1.5), ("link.bandwidth_mbps", "fast"),
    ("monitor_period_s", "0.1"), ("background_io_duty", None), ("workload.total_rows", 3000.5),
    ("queries.concurrency", "2"), ("queries.concurrency", 1.5), ("queries.sql", 5),
    ("channel.queue_depth", 1.5), ("warm_series", "t1"), ("scenario", "x"), ("scenario", 5),
    ("link.bandwidth_mbps", float("nan")), ("io_throttle", float("inf")), ("cpu_hog_duty", True),
    ("cost.row_cpu_cost_s", -1e-6), ("cost.recv_row_cost_s", -1.0),
    ("mode", "x"), ("queries", []), ("queries.concurrency", 0),
    ("cost.edge_disk_mb_s", 0), ("cost.cloud_cpu_cores", 0),
    ("io_throttle", 0.5), ("background_io_duty", 1.0), ("cpu_load", -1),
    ("workload.sensor_count", 0), ("workload.sampling_interval_ms", 0), ("workload.plant_count", 10**6),
    ("link.bandwidth_mbps", 0), ("link.rtt_ms", -1),
    # ThresholdPolicy raises ValueError as it is built, which the file loader wraps
    ("policy.low_watermark", 0.9), ("policy.dwell", 0),
    # a value that only another mode allows: an edge_only query never migrates, and
    # a cloud_only one never falls back
    pytest.param("forced_migration_at_rows", {"mode": "edge_only", "forced_migration_at_rows": 5000},
                 id="edge_only-forced_migration_at_rows"),
    pytest.param("forced_fallback_after_rows", {"mode": "edge_only", "forced_fallback_after_rows": 0},
                 id="edge_only-forced_fallback_after_rows"),
    pytest.param("forced_fallback_after_rows",
                 {"mode": "cloud_only", "warm_series": ["t1"], "forced_fallback_after_rows": 5000},
                 id="cloud_only-forced_fallback_after_rows"),
    pytest.param("warm_series", {"mode": "cloud_only"}, id="cloud_only-warm_series"),
])
def test_out_of_range_scenario_value_is_a_scenario_error(tmp_path, key, value):
    raw = {"queries": [{"name": "Q1", "sql": "SELECT t1 FROM dev"}]}
    section, _, name = key.rpartition(".")
    if name == "scenario":
        raw = value                            # the whole file
    elif isinstance(value, dict):
        raw.update(value)                      # several top-level keys at once
    elif section == "queries":
        raw["queries"][0][name] = value
    else:
        (raw.setdefault(section, {}) if section else raw)[name] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ScenarioError, match=name):
        load_scenario_file(path)


# --- warm-up -----------------------------------------------------------------------

def test_duplicate_warm_sensors_sync_once(tmp_path):
    reports = []
    for warm in (("t1", "t1", "t3"), ("t1", "t3")):
        cluster = make_cluster(make_scenario(forced_migration_at_rows=2000, warm_series=warm), tmp_path)
        reports.append(cluster.run("warm"))
    assert reports[0] == reports[1]
    assert reports[0].queries[0].migrated == 1


def test_unknown_warm_sensor_is_a_scenario_error_before_any_sync(tmp_path):
    cluster = make_cluster(make_scenario(warm_series=("t1", "t9")), tmp_path)
    with pytest.raises(ScenarioError, match="t9"):
        cluster.run()
    assert cluster.link.counters == {}


def test_unknown_warm_sensor_is_a_scenario_error_in_cloud_only_mode(tmp_path):
    # cloud_only warms the queried series, but a named sensor is still checked
    cluster = make_cluster(make_scenario(mode="cloud_only", warm_series=("t9",)), tmp_path)
    with pytest.raises(ScenarioError, match="t9"):
        cluster.run()
    assert cluster.link.counters == {}


def test_cli_reports_an_unknown_warm_sensor_as_an_error(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "queries": [{"name": "Q1", "sql": "SELECT t1 FROM dev"}],
        "workload": {"sensor_count": 3, "total_rows": 3000},
        "warm_series": ["t9"],
    }))
    assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: warm series root.ln.edge1.dev.t9")


def test_cli_reports_a_scenario_seed_key_as_unknown(tmp_path, capsys):
    # `ced run --seed` seeds the workload and the link; a scenario file names no seed
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"queries": [{"name": "Q1", "sql": "SELECT t1 FROM dev"}], "seed": 7}))
    assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: unknown keys ['seed']")


def test_cli_seed_reseeds_a_scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "name": "seeded",
        "queries": [{"name": "Q1", "sql": "SELECT t1, t3 FROM dev"}],
        "workload": {"sensor_count": 3, "total_rows": 3000},
    }))
    config = load_scenario_file(path)
    seeded = emit([run_scenario(config.with_seed(7), tmp_path / "run", run_label=config.name)], tmp_path / "want")
    csvs = {}
    for out, seed in (("seed7", ["--seed", "7"]), ("unseeded", [])):
        assert cli.main(["run", "--scenario", str(path), *seed, "--out", str(tmp_path / out)]) == 0
        csvs[out] = (tmp_path / out / "metrics.csv").read_text()
    assert csvs["seed7"] == seeded["metrics"].read_text()
    checksums = {out: [row["checksum"] for row in csv.DictReader(io.StringIO(text))] for out, text in csvs.items()}
    assert checksums["seed7"] != checksums["unseeded"]


@pytest.mark.parametrize("sql,error", [
    ("SELECT t1 FRM dev", "expected FROM"),                            # SqlSyntaxError
    ("SELECT t1 FROM dev ORDER BY t1", "ORDER is outside"),            # UnsupportedFeature
    ("SELECT t9 FROM dev", "root.ln.edge1.dev.t9"),                    # UnknownSeries
    ("SELECT t1 FROM nowhere", "no device matches 'nowhere'"),         # UnknownSeries
    ("SELECT max_value(t1) FROM dev GROUP BY 5m", "max_value needs"),  # PlanError
], ids=["syntax", "unsupported", "unknown-series", "unknown-device", "plan"])
def test_cli_reports_a_bad_query_as_an_error(tmp_path, capsys, sql, error):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "queries": [{"name": "Q1", "sql": sql}],
        "workload": {"sensor_count": 3, "total_rows": 3000},
    }))
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and error in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "-3", "0"])
def test_cli_reports_a_scale_that_is_not_a_finite_positive_number_as_an_error(tmp_path, capsys, scale):
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", "forced_migration", f"--scale={scale}", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: scale must be a finite number > 0")
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), -3.0, 0.0, -0.0])
def test_scaling_by_a_factor_that_is_not_a_finite_positive_number_is_an_error(factor):
    with pytest.raises(ScenarioError, match="scale must be a finite number > 0"):
        make_scenario().scaled(factor)
