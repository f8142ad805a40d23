"""Resource monitor and migration decision loop.

Utilization is sampled per period from the node's serial resources: I/O
usage is the fraction of the window the disk spent serving reads (the
read-rate over max-read-rate ratio), CPU usage the busy fraction of the
core budget.  Decisions use hysteresis: a placement changes only after
``dwell`` consecutive samples on the triggering side of the thresholds,
and the fall-back watermark sits strictly below the high thresholds, so a
migrate and a fall-back can never be closer than dwell samples apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .netsim import Engine, FifoResource

__all__ = [
    "STAY",
    "MIGRATE_TO_CLOUD",
    "FALL_BACK_TO_EDGE",
    "ResourceSnapshot",
    "ThresholdPolicy",
    "sample",
    "decide",
    "ResourceMonitor",
]

STAY = "stay"
MIGRATE_TO_CLOUD = "migrate_to_cloud"
FALL_BACK_TO_EDGE = "fall_back_to_edge"


@dataclass(frozen=True)
class ResourceSnapshot:
    io_usage: float
    cpu_usage: float
    timestamp: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "io_usage", min(1.0, max(0.0, self.io_usage)))
        object.__setattr__(self, "cpu_usage", min(1.0, max(0.0, self.cpu_usage)))


@dataclass(frozen=True)
class ThresholdPolicy:
    io_high: float = 0.80
    cpu_high: float = 0.85
    low_watermark: float = 0.50
    dwell: int = 3

    def __post_init__(self) -> None:
        if not (0 < self.low_watermark < min(self.io_high, self.cpu_high)):
            raise ValueError("low_watermark must sit strictly below the high thresholds")
        if self.dwell < 1:
            raise ValueError("dwell must be >= 1")


def sample(disk: FifoResource, cpu: FifoResource, t0: float, t1: float) -> ResourceSnapshot:
    """Utilization of one sampling window ending at t1."""
    return ResourceSnapshot(disk.utilization(t0, t1), cpu.utilization(t0, t1), t1)


def decide(
    history: Sequence[ResourceSnapshot],
    policy: ThresholdPolicy,
    placement: str,
) -> str:
    """Pure decision over the trailing dwell window of ``history``."""
    if not history:
        raise ValueError("history must be non-empty")
    if len(history) < policy.dwell:
        return STAY
    window = history[-policy.dwell:]
    if placement == "edge":
        if all(s.io_usage > policy.io_high or s.cpu_usage > policy.cpu_high for s in window):
            return MIGRATE_TO_CLOUD
        return STAY
    if placement == "cloud":
        if all(
            s.io_usage < policy.low_watermark and s.cpu_usage < policy.low_watermark
            for s in window
        ):
            return FALL_BACK_TO_EDGE
        return STAY
    raise ValueError(f"unknown placement {placement!r}")


class ResourceMonitor:
    """Periodic sampling task on the edge node; emits Migrate/FallBack commands."""

    def __init__(
        self,
        engine: Engine,
        disk: FifoResource,
        cpu: FifoResource,
        policy: ThresholdPolicy,
        period_s: float = 0.1,
        placement_counts: Callable[[], tuple[int, int]] = lambda: (0, 0),
        on_migrate: Optional[Callable[[], None]] = None,
        on_fallback: Optional[Callable[[], None]] = None,
        keep_running: Callable[[], bool] = lambda: False,
    ):
        self.engine = engine
        self.disk = disk
        self.cpu = cpu
        self.policy = policy
        self.period_s = period_s
        self.placement_counts = placement_counts
        self.on_migrate = on_migrate
        self.on_fallback = on_fallback
        self.keep_running = keep_running
        self.history: list[ResourceSnapshot] = []
        self.decision_log: list[tuple[float, float, float, str, str]] = []

    def start(self) -> None:
        self.engine.spawn(self._run())

    def _run(self):
        while True:
            yield self.period_s
            if not self.keep_running():
                return
            now = self.engine.now
            snapshot = sample(self.disk, self.cpu, now - self.period_s, now)
            self.history.append(snapshot)
            n_edge, n_cloud = self.placement_counts()
            # acting clears the history, so a pass that acted ends the tick
            if n_edge and self._evaluate(snapshot, "edge"):
                continue
            if n_cloud:
                self._evaluate(snapshot, "cloud")

    def _evaluate(self, snapshot: ResourceSnapshot, placement: str) -> bool:
        """Log one decision and act on it; True when it acted."""
        decision = decide(self.history, self.policy, placement)
        self.decision_log.append(
            (snapshot.timestamp, snapshot.io_usage, snapshot.cpu_usage, placement, decision)
        )
        if decision == MIGRATE_TO_CLOUD and self.on_migrate is not None:
            self.history.clear()        # restart dwell accumulation after acting
            self.on_migrate()
            return True
        if decision == FALL_BACK_TO_EDGE and self.on_fallback is not None:
            self.history.clear()
            self.on_fallback()
            return True
        return False
