"""Built-in experiment presets at desk scale.

Each preset is a factory returning an ordered list of (label, scenario)
runs; the runner executes them in sequence and writes one combined CSV
set.  The presets mirror the experimental axes: query-type comparison
across execution modes, I/O overload, CPU overload via concurrency,
bandwidth sensitivity, forced mid-query migration, and cache-hit-rate
sweep.
"""

from __future__ import annotations

import dataclasses

from ..netsim import LinkConfig
from .scenario import (
    CLOUD_ONLY,
    COLLABORATIVE,
    EDGE_ONLY,
    QuerySpec,
    ScenarioConfig,
)
from .workload import WorkloadConfig

__all__ = ["PRESETS", "preset_runs", "list_presets"]

Q1 = QuerySpec("Q1", "SELECT t1 FROM dev WHERE t1='v999'")
Q2 = QuerySpec("Q2", "SELECT t3 FROM dev WHERE t3=497.44467")
Q3 = QuerySpec("Q3", "SELECT t1, t3 FROM dev")
Q4 = QuerySpec("Q4", "SELECT count(t1) FROM dev GROUP BY 5m")
Q5 = QuerySpec("Q5", "SELECT max_value(t3) FROM dev GROUP BY 5m")
ALL_QUERIES = (Q1, Q2, Q3, Q4, Q5)

# 50k rows x 3 sensors at 1 s spacing: ~14 h of signal, so the 5 m windows of
# Q4/Q5 produce ~167 result rows and chunk/window boundaries are plentiful.
_BASE_WORKLOAD = WorkloadConfig(
    sensor_count=3,
    sampling_interval_ms=1000,
    total_rows=50_000,
    chunk_target_rows=4000,
)

_FAST_LINK = LinkConfig(bandwidth_mbps=1000.0, rtt_ms=1.0)


def _base(name: str, **kw) -> ScenarioConfig:
    defaults = dict(
        name=name,
        workload=_BASE_WORKLOAD,
        link=_FAST_LINK,
        warm_series=("t1", "t3"),
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def preset_query_sweep(seed: int = 0) -> list[tuple[str, ScenarioConfig]]:
    """Mode comparison per query type under no induced load (forced mid-query switch)."""
    runs = []
    for spec in ALL_QUERIES:
        for mode in (EDGE_ONLY, CLOUD_ONLY, COLLABORATIVE):
            config = _base(
                f"query_sweep/{spec.name}/{mode}",
                mode=mode,
                queries=(spec,),
                monitor_enabled=False,
                forced_migration_at_rows=(
                    _BASE_WORKLOAD.total_rows // 2 if mode == COLLABORATIVE else None
                ),
            ).with_seed(seed)
            runs.append((config.name, config))
    return runs


def preset_io_sweep(seed: int = 0) -> list[tuple[str, ScenarioConfig]]:
    """High edge I/O pressure: throttled disk plus a background reader."""
    runs = []
    for spec in ALL_QUERIES:
        for mode in (EDGE_ONLY, COLLABORATIVE):
            config = _base(
                f"io_sweep/{spec.name}/{mode}",
                mode=mode,
                queries=(spec,),
                io_throttle=10.0,
                background_io_duty=0.85,
                monitor_period_s=0.02,
            ).with_seed(seed)
            runs.append((config.name, config))
    return runs


def preset_cpu_sweep(seed: int = 0) -> list[tuple[str, ScenarioConfig]]:
    """4-way concurrency plus synthetic CPU tasks driving cpu_usage past 0.85."""
    runs = []
    for spec in ALL_QUERIES:
        concurrent = dataclasses.replace(spec, concurrency=4)
        for mode in (EDGE_ONLY, COLLABORATIVE):
            config = _base(
                f"cpu_sweep/{spec.name}/{mode}",
                mode=mode,
                queries=(concurrent,),
                cpu_load=4,
                monitor_period_s=0.02,
            ).with_seed(seed)
            runs.append((config.name, config))
    return runs


def preset_bandwidth_sweep(seed: int = 0) -> list[tuple[str, ScenarioConfig]]:
    """Same forced-migration runs under unlimited / 500 / 50 Mbps links."""
    runs = []
    for mbps, tag in ((100_000.0, "unlimited"), (500.0, "500mbps"), (50.0, "50mbps")):
        for spec in ALL_QUERIES:
            config = _base(
                f"bandwidth_sweep/{spec.name}/{tag}",
                mode=COLLABORATIVE,
                queries=(spec,),
                link=LinkConfig(bandwidth_mbps=mbps, rtt_ms=1.0),
                monitor_enabled=False,
                forced_migration_at_rows=_BASE_WORKLOAD.total_rows // 4,
            ).with_seed(seed)
            runs.append((config.name, config))
    return runs


def preset_forced_migration(seed: int = 0) -> list[tuple[str, ScenarioConfig]]:
    """Q1 with the switch forced at several distinct points of the scan."""
    runs = []
    boundaries = 10
    rows_per_boundary = _BASE_WORKLOAD.total_rows // boundaries
    baseline = _base(
        "forced_migration/Q1/edge_only",
        mode=EDGE_ONLY,
        queries=(Q1,),
        monitor_enabled=False,
    ).with_seed(seed)
    runs.append((baseline.name, baseline))
    for k in range(1, boundaries):
        config = _base(
            f"forced_migration/Q1/at_{k * rows_per_boundary}",
            mode=COLLABORATIVE,
            queries=(Q1,),
            monitor_enabled=False,
            forced_migration_at_rows=k * rows_per_boundary,
        ).with_seed(seed)
        runs.append((config.name, config))
    return runs


def preset_cache_sweep(seed: int = 0) -> list[tuple[str, ScenarioConfig]]:
    """6-way string-filter queries; QPS versus the fraction of pre-synced series."""
    # 24 sensors puts six string sensors in the type cycle: t1 t5 t9 t13 t17 t21
    workload = dataclasses.replace(
        _BASE_WORKLOAD, sensor_count=24, total_rows=20_000, sampling_interval_ms=1000
    )
    string_sensors = ("t1", "t5", "t9", "t13", "t17", "t21")
    queries = tuple(
        QuerySpec(f"Q1_{s}", f"SELECT {s} FROM dev WHERE {s}='v999'") for s in string_sensors
    )
    runs = []
    for warm_count in (0, 1, 3, 6):
        config = ScenarioConfig(
            name=f"cache_sweep/hit_{warm_count}_of_6",
            mode=COLLABORATIVE,
            queries=queries,
            workload=workload,
            link=_FAST_LINK,
            warm_series=string_sensors[:warm_count],
            cpu_load=4,
            monitor_period_s=0.02,
        ).with_seed(seed)
        runs.append((config.name, config))
    return runs


PRESETS = {
    "query_sweep": preset_query_sweep,
    "io_sweep": preset_io_sweep,
    "cpu_sweep": preset_cpu_sweep,
    "bandwidth_sweep": preset_bandwidth_sweep,
    "forced_migration": preset_forced_migration,
    "cache_sweep": preset_cache_sweep,
}


def list_presets() -> list[str]:
    return sorted(PRESETS)


def preset_runs(name: str, seed: int = 0) -> list[tuple[str, ScenarioConfig]]:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(list_presets())}")
    return factory(seed)
