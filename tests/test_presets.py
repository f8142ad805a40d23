"""Every preset runs to completion at a small scale and stays exact across modes."""

import pytest

from ced.harness.presets import list_presets, preset_runs
from ced.harness.runtime import run_scenario

SCALE = 0.05
QUERY_NAMES = ("Q1", "Q2", "Q3", "Q4", "Q5")      # Q1-Q3 scan series, Q4/Q5 aggregate


@pytest.fixture(scope="module")
def preset_results(tmp_path_factory):
    """Query results of every run of a preset, computed once per module."""
    cache = {}

    def results(name):
        if name not in cache:
            root = tmp_path_factory.mktemp(name)
            cache[name] = [
                q
                for i, (label, config) in enumerate(preset_runs(name))
                for q in run_scenario(config.scaled(SCALE), root / str(i), run_label=label).queries
            ]
        return cache[name]

    return results


@pytest.mark.parametrize("name", list_presets())
def test_preset_completes_with_one_checksum_per_query(preset_results, name):
    results = preset_results(name)
    assert results
    checksums = {}
    for q in results:
        assert q.end_s >= q.start_s
        checksums.setdefault(q.sql, set()).add(q.checksum)
    assert all(len(found) == 1 for found in checksums.values()), checksums


@pytest.mark.parametrize("name", ["query_sweep", "cpu_sweep"])
def test_preset_switches_every_query(preset_results, name):
    migrated = {q.name for q in preset_results(name) if q.migrated}
    assert migrated == set(QUERY_NAMES)
