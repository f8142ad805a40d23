"""Event engine, resources, and link behavior."""

import pytest

from ced.errors import LinkClosed, ScenarioError
from ced.netsim import (
    BusyTracker,
    Engine,
    Envelope,
    FifoResource,
    Link,
    LinkConfig,
    Signal,
    SimEvent,
)


def test_schedule_dispatch_order_and_ties():
    engine = Engine()
    seen = []
    engine.schedule(2.0, lambda: seen.append("b"))
    engine.schedule(1.0, lambda: seen.append("a"))
    engine.schedule(2.0, lambda: seen.append("c"))  # same time, later seq
    engine.run_until_idle()
    assert seen == ["a", "b", "c"]
    assert engine.now == 2.0


def test_timer_cancel():
    engine = Engine()
    seen = []
    timer = engine.schedule(1.0, lambda: seen.append("x"))
    timer.cancel()
    engine.run_until_idle()
    assert seen == []


def test_process_delays_and_events():
    engine = Engine()
    trace = []
    gate = SimEvent(engine)

    def proc():
        trace.append(("start", engine.now))
        yield 1.5
        trace.append(("after-delay", engine.now))
        value = yield gate
        trace.append(("after-event", engine.now, value))

    engine.spawn(proc())
    engine.schedule(4.0, gate.trigger)
    engine.run_until_idle()
    assert trace == [("start", 0.0), ("after-delay", 1.5), ("after-event", 4.0, None)]


def test_process_waiting_on_already_triggered_event_resumes_immediately():
    engine = Engine()
    gate = SimEvent(engine)
    gate.trigger()
    out = []

    def proc():
        value = yield gate
        out.append((engine.now, value))

    engine.spawn(proc())
    engine.run_until_idle()
    assert out == [(0.0, None)]


def test_fifo_resource_serializes_requests():
    engine = Engine()
    disk = FifoResource(engine, rate=100.0)  # 100 units/s
    done_at = {}

    def proc(name, work):
        yield disk.acquire(work)
        done_at[name] = engine.now

    engine.spawn(proc("a", 50.0))   # 0.5 s
    engine.spawn(proc("b", 100.0))  # queued behind a: finishes at 1.5
    engine.run_until_idle()
    assert done_at == {"a": 0.5, "b": 1.5}
    assert disk.utilization(0.0, 1.5) == pytest.approx(1.0)
    assert disk.utilization(1.5, 2.0) == 0.0


def test_busy_tracker_range_queries():
    tracker = BusyTracker()
    tracker.add(0.0, 1.0)
    tracker.add(2.0, 3.0)
    assert tracker.busy_between(0.0, 3.0) == pytest.approx(2.0)
    assert tracker.busy_between(0.5, 2.5) == pytest.approx(1.0)
    assert tracker.busy_between(1.0, 2.0) == 0.0
    assert tracker.busy_between(3.0, 3.0) == 0.0


def make_link(engine, **kw):
    cfg = LinkConfig(**kw)
    link = Link(engine, cfg)
    inbox = {"edge": [], "cloud": []}
    link.attach("edge", lambda env: inbox["edge"].append(env))
    link.attach("cloud", lambda env: inbox["cloud"].append(env))
    return link, inbox


def test_transmission_time_one_megabyte_at_8mbps():
    # 1 MB = 8e6 bits at 8 Mbps -> exactly 1.0 s, rtt 0
    engine = Engine()
    link, inbox = make_link(engine, bandwidth_mbps=8.0, rtt_ms=0.0)
    link.send("edge", "cloud", Envelope(channel="c", payload=bytes(1_000_000)))
    engine.run_until_idle()
    assert engine.now == pytest.approx(1.0)
    assert len(inbox["cloud"]) == 1


def test_loss_rate_one_rejected_by_validation():
    with pytest.raises(ScenarioError):
        LinkConfig(loss_rate=1.0).validate()


def test_fifo_per_channel_regardless_of_size():
    engine = Engine()
    link, inbox = make_link(engine, bandwidth_mbps=8.0, rtt_ms=10.0)
    link.send("edge", "cloud", Envelope(channel="c", payload=bytes(1_000_000)))
    link.send("edge", "cloud", Envelope(channel="c", payload=bytes(10)))
    engine.run_until_idle()
    sizes = [len(env.payload) for env in inbox["cloud"]]
    assert sizes == [1_000_000, 10]


def test_deterministic_delivery_trace_with_loss():
    def run(seed):
        engine = Engine()
        link, inbox = make_link(engine, bandwidth_mbps=100.0, rtt_ms=2.0, loss_rate=0.3, seed=seed)
        for i in range(50):
            link.send("edge", "cloud", Envelope(channel=i % 3, payload=bytes(100 + i), droppable=True))
        engine.run_until_idle()
        return [(env.channel, len(env.payload), env.deliver_time) for env in inbox["cloud"]]

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_byte_conservation_sent_equals_delivered_plus_dropped():
    engine = Engine()
    link, _ = make_link(engine, bandwidth_mbps=10.0, loss_rate=0.4, seed=3)
    for i in range(200):
        link.send("edge", "cloud", Envelope(channel="c", payload=bytes(50), droppable=True))
    engine.run_until_idle()
    counter = link.counters[("c", "edge->cloud")]
    assert counter.sent == 200 * 50
    assert counter.sent == counter.delivered + counter.dropped
    assert counter.dropped > 0


def test_reliable_envelopes_never_dropped():
    engine = Engine()
    link, inbox = make_link(engine, bandwidth_mbps=10.0, loss_rate=0.9, seed=1)
    for _ in range(50):
        link.send("edge", "cloud", Envelope(channel="c", payload=bytes(10), droppable=False))
    engine.run_until_idle()
    assert len(inbox["cloud"]) == 50


def test_send_after_close_raises():
    engine = Engine()
    link, _ = make_link(engine)
    link.close()
    with pytest.raises(LinkClosed):
        link.send("edge", "cloud", Envelope(channel="c", payload=b"x"))


def test_empty_report_and_no_traffic():
    engine = Engine()
    link, _ = make_link(engine)
    assert link.counters == {}


def test_ten_queued_messages_all_delivered_in_order():
    engine = Engine()
    link, inbox = make_link(engine, bandwidth_mbps=1.0, rtt_ms=4.0)
    for i in range(10):
        link.send("edge", "cloud", Envelope(channel="c", payload=bytes([i] * 125)))
    engine.run_until_idle()
    assert [env.payload[0] for env in inbox["cloud"]] == list(range(10))
    # each message is 125 B = 1000 bits at 1 Mbps -> 1 ms serialization each,
    # plus 2 ms one-way: last delivery at 10 ms + 2 ms
    assert engine.now == pytest.approx(0.012)


# --- a scripted mix: the exact dispatch order and count ---------------------------------

def _scripted_mix():
    """Timers with ties, a cancel and zero delays, processes on events triggered
    before and after they are yielded, a latched and a waited Signal, and a
    resource's completions; returns the log and the dispatch count."""
    engine = Engine()
    log = []
    disk = FifoResource(engine, rate=10.0)
    early, late = SimEvent(engine), SimEvent(engine)
    early.trigger()
    signal = Signal(engine)
    signal.notify()                      # no waiter yet: latched

    def note(what):
        log.append((engine.now, what))

    def worker(name, work):
        note(f"{name} start")
        yield disk.acquire(work)
        note(f"{name} disk")
        yield early
        note(f"{name} early")
        yield 0
        note(f"{name} zero")
        yield late
        note(f"{name} late")
        yield 0.25
        note(f"{name} slept")

    def waiter():
        yield signal.wait()
        note("signal latched")
        yield signal.wait()
        note("signal notified")

    engine.spawn(worker("a", 5.0))
    engine.schedule(0.0, lambda: note("timer zero"))
    engine.spawn(worker("b", 2.5))
    engine.spawn(waiter())
    engine.schedule(1.0, lambda: note("timer tie 1"))
    engine.schedule(1.0, lambda: note("cancelled")).cancel()
    engine.schedule(1.0, lambda: note("timer tie 2"))
    engine.schedule(0.75, signal.notify)
    engine.schedule(1.0, late.trigger)
    engine.run_until_idle()
    return log, engine.events_dispatched


def test_a_scripted_mix_dispatches_in_a_pinned_order_and_count():
    log, dispatched = _scripted_mix()
    assert log == [
        (0.0, "a start"),
        (0.0, "timer zero"),
        (0.0, "b start"),
        (0.0, "signal latched"),
        (0.5, "a disk"),
        (0.5, "a early"),
        (0.5, "a zero"),
        (0.75, "signal notified"),
        (0.75, "b disk"),
        (0.75, "b early"),
        (0.75, "b zero"),
        (1.0, "timer tie 1"),
        (1.0, "timer tie 2"),
        (1.0, "a late"),
        (1.0, "b late"),
        (1.25, "a slept"),
        (1.25, "b slept"),
    ]
    # 3 process starts, 5 timers (the cancelled one is neither run nor counted),
    # 6 resumes and completions per worker and 2 signal resumes
    assert dispatched == 22


def test_a_negative_sleep_raises():
    engine = Engine()

    def proc():
        yield -1.0

    engine.spawn(proc())
    with pytest.raises(ValueError, match="negative delay"):
        engine.run_until_idle()
    with pytest.raises(ValueError, match="negative delay"):
        engine.schedule(-0.5, lambda: None)


def test_a_callback_that_raises_is_counted():
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: 1 / 0)
    engine.schedule(3.0, lambda: None)
    with pytest.raises(ZeroDivisionError):
        engine.run_until_idle()
    assert (engine.now, engine.events_dispatched) == (2.0, 2)
    engine.run_until_idle()
    assert (engine.now, engine.events_dispatched) == (3.0, 3)
