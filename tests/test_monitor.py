"""Resource monitor: dwell/hysteresis decisions and the sampling loop."""

import pytest

from ced.monitor import (
    FALL_BACK_TO_EDGE,
    MIGRATE_TO_CLOUD,
    STAY,
    ResourceMonitor,
    ResourceSnapshot,
    ThresholdPolicy,
    decide,
)
from ced.netsim import Engine, FifoResource


def snaps(*cpu):
    return [ResourceSnapshot(0.0, c, float(t)) for t, c in enumerate(cpu)]


def test_decide_waits_for_dwell_samples_on_one_side():
    policy = ThresholdPolicy(dwell=3)
    assert decide(snaps(0.9, 0.9), policy, "edge") == STAY               # too few samples
    assert decide(snaps(0.9, 0.2, 0.9), policy, "edge") == STAY          # a dip resets
    assert decide(snaps(0.2, 0.9, 0.9, 0.9), policy, "edge") == MIGRATE_TO_CLOUD
    # between the watermark and the high threshold neither side acts
    assert decide(snaps(0.6, 0.6, 0.6), policy, "edge") == STAY
    assert decide(snaps(0.6, 0.6, 0.6), policy, "cloud") == STAY
    assert decide(snaps(0.9, 0.1, 0.1, 0.1), policy, "cloud") == FALL_BACK_TO_EDGE
    with pytest.raises(ValueError):
        decide([], policy, "edge")


def saturated_monitor(placement_counts, **callbacks):
    engine = Engine()
    disk = FifoResource(engine, 1.0, "disk")
    cpu = FifoResource(engine, 1.0, "cpu")
    cpu.acquire(10.0)                     # busy for the whole sampled span
    monitor = ResourceMonitor(
        engine, disk, cpu, ThresholdPolicy(dwell=1), period_s=0.1,
        placement_counts=placement_counts,
        keep_running=lambda: engine.now < 0.35,
        **callbacks,
    )
    return engine, monitor


def test_mixed_placements_end_the_tick_after_acting():
    acted = []
    engine, monitor = saturated_monitor(lambda: (1, 1), on_migrate=lambda: acted.append(engine.now))
    monitor.start()
    engine.run_until_idle()
    # each tick migrates on the edge pass; the cloud pass is skipped, not fed an empty history
    assert acted == pytest.approx([0.1, 0.2, 0.3])
    assert [d[3:] for d in monitor.decision_log] == [("edge", MIGRATE_TO_CLOUD)] * 3


def test_cloud_pass_runs_when_the_edge_pass_does_not_act():
    engine, monitor = saturated_monitor(lambda: (1, 1))    # no callbacks: nothing acts
    monitor.start()
    engine.run_until_idle()
    assert [d[3:] for d in monitor.decision_log] == [
        ("edge", MIGRATE_TO_CLOUD), ("cloud", STAY),
    ] * 3
