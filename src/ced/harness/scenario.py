"""Scenario configuration: execution mode, load injection, protocol knobs.

Scenario files are JSON with the same field names as the dataclasses
below; presets construct them in code.  Every key is optional except
``queries``, and an omitted key takes the dataclass default::

    {
      "name": str, "mode": "edge_only" | "cloud_only" | "collaborative",
      "queries": [{"name": str, "sql": str, "concurrency": int}, ...],
      "workload": {WorkloadConfig fields: "sensor_count", "sampling_interval_ms",
                   "total_rows", "seed", "device", "string_pool", "plant_value",
                   "plant_sensor", "plant_count", "chunk_target_rows",
                   "page_rows", "flush_every_rows"},
      "link":    {"bandwidth_mbps", "rtt_ms", "loss_rate", "seed"},
      "cost":    {CostModel fields: "edge_disk_mb_s", "cloud_disk_mb_s",
                  "edge_cpu_cores", "cloud_cpu_cores", "row_cpu_cost_s",
                  "recv_row_cost_s"},
      "channel": {"probe_retries", "probe_timeout_s", "queue_depth"},
      "policy":  {"io_high", "cpu_high", "low_watermark", "dwell"},
      "io_throttle": float, "background_io_duty": float,
      "cpu_load": int, "cpu_hog_duty": float,
      "monitor_enabled": bool, "monitor_period_s": float,
      "forced_migration_at_rows": int | null,    a query asks to migrate at the
                     first boundary where an edge leaf has read this many rows,
      "forced_fallback_after_rows": int | null,  a cloud producer falls back at
                     the first boundary where its leaf has read this many rows
                     (both must be null in edge_only mode, and this one in
                     cloud_only mode),
      "warm_series": [sensor name, ...] or ["*"],   every name must be a sensor
                     of the edge store; ["*"] and cloud_only mode warm the
                     queried series
    }

There is no top-level seed: ``ced run --seed N`` seeds the workload and
the link through ``ScenarioConfig.with_seed``, and each section's own
``seed`` key seeds that section alone.

An unknown key, a value of another type than its field's (an integer
stands for a float, but a bool, NaN or an infinity for no number) or an
out-of-range value is a ``ScenarioError``; a query outside the SQL subset
raises the parser's error.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..errors import ScenarioError
from ..migrate import ChannelConfig
from ..monitor import ThresholdPolicy
from ..netsim import LinkConfig
from ..queryplan import parse
from .workload import WorkloadConfig

__all__ = ["CostModel", "QuerySpec", "ScenarioConfig", "load_scenario_file"]

EDGE_ONLY = "edge_only"
CLOUD_ONLY = "cloud_only"
COLLABORATIVE = "collaborative"

MODES = (EDGE_ONLY, CLOUD_ONLY, COLLABORATIVE)


@dataclass(frozen=True)
class CostModel:
    """Simulated hardware envelope: HDD-backed edge, SSD-backed cloud."""

    edge_disk_mb_s: float = 100.0
    cloud_disk_mb_s: float = 400.0
    edge_cpu_cores: float = 1.0
    cloud_cpu_cores: float = 4.0
    row_cpu_cost_s: float = 2e-6        # CPU work per scanned row, seconds at 1 core
    recv_row_cost_s: float = 2e-7       # edge-side cost per row received from the stream

    def validate(self) -> None:
        if min(self.edge_disk_mb_s, self.cloud_disk_mb_s) <= 0:
            raise ScenarioError("disk rates must be positive")
        if min(self.edge_cpu_cores, self.cloud_cpu_cores) <= 0:
            raise ScenarioError("core budgets must be positive")
        for name in ("row_cpu_cost_s", "recv_row_cost_s"):
            if getattr(self, name) < 0:
                raise ScenarioError(f"cost.{name} must be >= 0")


@dataclass(frozen=True)
class QuerySpec:
    name: str
    sql: str
    concurrency: int = 1

    def validate(self) -> None:
        if self.concurrency < 1:
            raise ScenarioError(f"{self.name}: concurrency must be >= 1")
        parse(self.sql)                  # must be inside the grammar


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    mode: str = COLLABORATIVE
    queries: tuple[QuerySpec, ...] = ()
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    cost: CostModel = field(default_factory=CostModel)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    policy: ThresholdPolicy = field(default_factory=ThresholdPolicy)

    io_throttle: float = 1.0             # disk slowdown factor (>= 1)
    background_io_duty: float = 0.0      # fraction of each period a hog owns the disk
    cpu_load: int = 0                    # synthetic background CPU tasks
    cpu_hog_duty: float = 0.22           # duty cycle per synthetic task

    monitor_enabled: bool = True
    monitor_period_s: float = 0.05

    forced_migration_at_rows: Optional[int] = None
    forced_fallback_after_rows: Optional[int] = None

    warm_series: tuple[str, ...] = ()    # sensor names to pre-sync ("*" = all queried)

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ScenarioError(f"unknown mode {self.mode!r}")
        if not self.queries:
            raise ScenarioError("scenario needs at least one query")
        for query in self.queries:
            query.validate()
        self.workload.validate()
        self.link.validate()
        self.cost.validate()
        if self.io_throttle < 1.0:
            raise ScenarioError("io_throttle must be >= 1")
        if not (0.0 <= self.background_io_duty < 1.0):
            raise ScenarioError("background_io_duty must be in [0, 1)")
        if self.cpu_load < 0:
            raise ScenarioError("cpu_load must be >= 0")
        if not (0.0 <= self.cpu_hog_duty < 1.0):
            raise ScenarioError("cpu_hog_duty must be in [0, 1)")
        if self.monitor_period_s <= 0:
            raise ScenarioError("monitor_period_s must be > 0")
        for name in ("forced_migration_at_rows", "forced_fallback_after_rows"):
            if (getattr(self, name) or 0) < 0:
                raise ScenarioError(f"{name} must be >= 0")
            if self.mode == EDGE_ONLY and getattr(self, name) is not None:
                raise ScenarioError(f"{name} must be null: edge_only queries never leave the edge")
        if self.mode == CLOUD_ONLY and self.forced_fallback_after_rows is not None:
            raise ScenarioError("forced_fallback_after_rows must be null: cloud_only never falls back")
        if self.channel.queue_depth < 1:
            raise ScenarioError("channel.queue_depth must be >= 1")
        if self.channel.probe_timeout_s <= 0:
            raise ScenarioError("channel.probe_timeout_s must be > 0")
        if self.channel.probe_retries < 0:
            raise ScenarioError("channel.probe_retries must be >= 0")
        if self.mode == CLOUD_ONLY and not self.warm_series:
            raise ScenarioError("cloud_only runs require warm_series (cache must hold the data)")

    def scaled(self, factor: float) -> "ScenarioConfig":
        """The same scenario over ``factor`` times the rows; row-count triggers scale too."""
        if not 0 < factor < math.inf:
            raise ScenarioError(f"scale must be a finite number > 0, not {factor!r}")

        def rows(value: Optional[int]) -> Optional[int]:
            return None if value is None else max(1, int(value * factor))

        return dataclasses.replace(
            self,
            workload=self.workload.scaled(factor),
            forced_migration_at_rows=rows(self.forced_migration_at_rows),
            forced_fallback_after_rows=rows(self.forced_fallback_after_rows),
        )

    def with_seed(self, seed: int) -> "ScenarioConfig":
        """The same scenario with its workload and its link seeded by ``seed``."""
        return dataclasses.replace(
            self,
            workload=dataclasses.replace(self.workload, seed=seed),
            link=dataclasses.replace(self.link, seed=seed),
        )


def _from_json(kind, value, name: str):
    """``value`` read as a field of type ``kind``; a value of another type is a ScenarioError."""
    origin = typing.get_origin(kind)
    if dataclasses.is_dataclass(kind):
        if isinstance(value, dict):
            hints = typing.get_type_hints(kind)
            unknown = sorted(value.keys() - hints.keys())
            if unknown:
                raise ScenarioError(f"unknown keys {unknown} in {name}")
            return kind(**{key: _from_json(hints[key], v, key) for key, v in value.items()})
        expected = "a JSON object"
    elif origin is tuple:
        if isinstance(value, list):
            return tuple(_from_json(typing.get_args(kind)[0], v, name) for v in value)
        expected = "a JSON list"
    elif origin is typing.Union:                 # Optional[X]
        return None if value is None else _from_json(typing.get_args(kind)[0], value, name)
    elif kind is float:
        # a JSON integer is a float, but a bool, NaN or an infinity is no number here
        if type(value) is int or (type(value) is float and math.isfinite(value)):
            return value
        expected = "a finite number"
    else:
        if type(value) is kind:                  # a bool is not an int
            return value
        expected = f"of type {kind.__name__}"
    raise ScenarioError(f"{name} must be {expected}, not {value!r}")


def load_config_file(kind, path: Path, what: str):
    """A validated ``kind`` built from a JSON file; a file that cannot be read
    or parsed, or that holds a bad value, is a ScenarioError."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:         # ValueError: bad UTF-8 or bad JSON
        raise ScenarioError(f"cannot load {what} {path}: {exc}") from exc
    try:
        config = _from_json(kind, raw, what)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad {what} {path}: {exc}") from exc
    config.validate()
    return config


def load_scenario_file(path: Path) -> ScenarioConfig:
    """Build a ScenarioConfig from a JSON file (schema in the module docstring)."""
    return load_config_file(ScenarioConfig, path, "scenario")
