"""Seeded IoT-style workload generator.

Nine sensors by default, cycling through string / boolean / float /
integer payloads, sampled on a fixed interval with strictly increasing
timestamps.  String sensors draw from the pool v0..v999; float sensors
are uniform in [0, 1000) with a configurable number of planted exact
occurrences of one needle value so equality predicates like
``t3 = 497.44467`` have known matches.  Each sensor's rows are written by
one ``SeriesStore.flush`` per ``flush_every_rows`` slice, one file each.

Generation is deterministic per ``(WorkloadConfig, page_rows)`` and flushed
files are immutable, so the last dataset built into an empty store is kept
as links to its files in a private temporary directory (removed at exit).
The next ``generate`` of the same config into an empty store links those
files in (``SeriesStore.copy_series``) instead of rebuilding them.
"""

from __future__ import annotations

import atexit
import itertools
import random
import shutil
import tempfile
from dataclasses import dataclass
from typing import Optional

from ..errors import ScenarioError
from ..tsstore import MAX_TS, SeriesPath, SeriesStore, ValueType

__all__ = ["SENSOR_TYPE_CYCLE", "WorkloadConfig", "GeneratedDataset", "generate"]

SENSOR_TYPE_CYCLE = (ValueType.STRING, ValueType.BOOL, ValueType.FLOAT64, ValueType.INT64)


@dataclass(frozen=True)
class WorkloadConfig:
    sensor_count: int = 9
    sampling_interval_ms: int = 1
    total_rows: int = 100_000
    seed: int = 0
    device: str = "root.ln.edge1.dev"
    string_pool: int = 1000
    plant_value: float = 497.44467
    plant_sensor: str = "t3"
    plant_count: Optional[int] = None        # default: ~1/1000 of rows, at least 1
    chunk_target_rows: int = 4000
    page_rows: int = 1000
    flush_every_rows: Optional[int] = None   # default: one flush of all rows

    def validate(self) -> None:
        if self.sensor_count < 1:
            raise ScenarioError("sensor_count must be >= 1")
        if self.sampling_interval_ms < 1:
            raise ScenarioError("sampling_interval_ms must be >= 1 ms")
        if self.total_rows < 1:
            raise ScenarioError("total_rows must be >= 1")
        if (self.total_rows - 1) * self.sampling_interval_ms > MAX_TS:
            raise ScenarioError("sampling_interval_ms puts the last timestamp above the store's MAX_TS")
        try:
            SeriesPath.parse(self.device)
        except ValueError as exc:
            raise ScenarioError(f"device {self.device!r}: {exc}") from None
        if not (0 <= self.effective_plant_count <= self.total_rows):
            raise ScenarioError("plant_count out of range")
        for name in ("string_pool", "chunk_target_rows", "page_rows", "flush_every_rows"):
            value = getattr(self, name)
            if value is not None and value < 1:          # flush_every_rows may be None
                raise ScenarioError(f"{name} must be >= 1")

    @property
    def effective_plant_count(self) -> int:
        if self.plant_count is not None:
            return self.plant_count
        return max(1, self.total_rows // 1000)

    def sensor_names(self) -> list[str]:
        return [f"t{i + 1}" for i in range(self.sensor_count)]

    def sensor_type(self, name: str) -> ValueType:
        index = int(name[1:]) - 1
        return SENSOR_TYPE_CYCLE[index % len(SENSOR_TYPE_CYCLE)]

    def scaled(self, factor: float) -> "WorkloadConfig":
        import dataclasses

        rows = max(1, int(self.total_rows * factor))
        return dataclasses.replace(self, total_rows=rows)


@dataclass
class GeneratedDataset:
    device: SeriesPath
    sensors: list[tuple[str, ValueType]]
    rows_per_sensor: int
    interval_ms: int

    @property
    def total_points(self) -> int:
        return self.rows_per_sensor * len(self.sensors)


def _randbelow(rng: random.Random, bound: int, n: int) -> list[int]:
    """``[rng.randrange(bound) for _ in range(n)]``: CPython's ``randrange``
    draws ``getrandbits(bound.bit_length())`` until one is below ``bound``,
    and so do these batches, stopping after the ``n``-th accepted draw."""
    k = bound.bit_length()
    draws: list[int] = []
    while len(draws) < n:
        draws += [r for r in map(rng.getrandbits, itertools.repeat(k, n - len(draws))) if r < bound]
    return draws


def _make_values(config: WorkloadConfig, name: str, vt: ValueType) -> list:
    rng = random.Random(f"{config.seed}:{name}")
    n = config.total_rows
    if vt is ValueType.STRING:
        names = [f"v{i}" for i in range(config.string_pool)]
        return [names[i] for i in _randbelow(rng, config.string_pool, n)]
    if vt is ValueType.BOOL:
        return [rng.random() < 0.5 for _ in range(n)]
    if vt is ValueType.INT64:
        return _randbelow(rng, 1000, n)
    values = [rng.random() * 1000.0 for _ in range(n)]
    if name == config.plant_sensor and config.effective_plant_count:
        count = min(config.effective_plant_count, n)
        for position in rng.sample(range(n), count):
            values[position] = config.plant_value
    return values


# (config, page_rows) of the last dataset built into an empty store, and a store linking its files
_last_built: Optional[tuple[tuple[WorkloadConfig, int], SeriesStore]] = None


def _forget_last_built() -> None:
    global _last_built
    if _last_built is not None:
        shutil.rmtree(_last_built[1].root, ignore_errors=True)
        _last_built = None


atexit.register(_forget_last_built)


def generate(store: SeriesStore, config: WorkloadConfig) -> GeneratedDataset:
    """Populate ``store`` deterministically; one file per flush_every_rows."""
    global _last_built
    config.validate()
    device = SeriesPath.parse(config.device)
    sensors = [(name, config.sensor_type(name)) for name in config.sensor_names()]
    series = [device.child(name) for name, _ in sensors]
    dataset = GeneratedDataset(device, sensors, config.total_rows, config.sampling_interval_ms)

    key = (config, store.page_rows)
    reusable = not store.series_names()
    if reusable and _last_built is not None and _last_built[0] == key:
        for s in series:
            _last_built[1].copy_series(s, store)
        return dataset

    flush_every = config.flush_every_rows or config.total_rows
    interval = config.sampling_interval_ms
    timestamps = range(0, config.total_rows * interval, interval)
    for (name, vt), s in zip(sensors, series):
        values = _make_values(config, name, vt)
        for start in range(0, config.total_rows, flush_every):
            stop = start + flush_every
            store.flush(s, timestamps[start:stop], values[start:stop], config.chunk_target_rows)

    if reusable:
        _forget_last_built()
        copy = SeriesStore(tempfile.mkdtemp(prefix="ced-dataset-"), page_rows=store.page_rows)
        for s in series:
            store.copy_series(s, copy)
        _last_built = (key, copy)
    return dataset
