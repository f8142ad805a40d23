"""Deterministic discrete-event substrate for the cloud-edge simulator.

Simulated time is a float in seconds.  A single :class:`Engine` owns the
event heap and is the only source of time; everything else (disk reads,
CPU slices, network deliveries, protocol timeouts) is expressed as events
on that heap.  Ties are broken by an insertion sequence number, so a run
is fully reproducible given the same seeds and the same call order.
Only :meth:`Engine.schedule` returns a cancellable :class:`Timer`; a callback
that nobody cancels (a resume, a sleep, a completion, a delivery) goes on the
heap with no handle, and takes its sequence number just the same.

Cooperative processes are plain generators.  A process may yield:

* a number  -- sleep that many simulated seconds,
* a SimEvent -- suspend until someone triggers it.

Links model a full-duplex point-to-point connection with a serialization
delay of ``payload_bytes * 8 / bandwidth`` per direction plus ``rtt/2``
propagation, FIFO per direction.  Envelopes marked ``droppable`` are lost
with the configured probability using the link's seeded generator;
everything else is delivered reliably.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterator, Optional

from .errors import LinkClosed, ScenarioError

__all__ = [
    "Engine",
    "SimEvent",
    "Signal",
    "Timer",
    "Process",
    "BusyTracker",
    "FifoResource",
    "LinkConfig",
    "Envelope",
    "ByteCounter",
    "Link",
]


class Timer:
    """Cancellable handle for a scheduled callback."""

    __slots__ = ("cancelled", "time")

    def __init__(self, time: float):
        self.cancelled = False
        self.time = time

    def cancel(self) -> None:
        self.cancelled = True


class Engine:
    """Event heap and simulated clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Optional[Timer], Callable[[], None]]] = []
        self._seq = 0
        self.events_dispatched = 0

    def schedule(self, delay: float, fn: Callable[[], None]) -> Timer:
        """Run ``fn`` after ``delay`` simulated seconds; returns a cancellable handle."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        timer = Timer(self.now + delay)
        self._seq += 1
        heapq.heappush(self._heap, (timer.time, self._seq, timer, fn))
        return timer

    def _after(self, delay: float, fn: Callable[[], None]) -> None:
        """``schedule`` with no handle, for a callback nobody cancels; ``delay >= 0``."""
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, None, fn))

    def spawn(self, gen: Generator) -> "Process":
        return Process(self, gen)

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Dispatch until the heap is empty (the normal way to finish a scenario)."""
        heap, pop, budget = self._heap, heapq.heappop, max_events
        dispatched = self.events_dispatched
        try:
            while heap:
                time, _, timer, fn = pop(heap)
                self.now = time
                if timer is None or not timer.cancelled:
                    dispatched += 1
                    fn()
                budget -= 1
                if budget <= 0:
                    raise RuntimeError("event budget exhausted; simulation is not terminating")
        finally:
            self.events_dispatched = dispatched


class SimEvent:
    """One-shot waitable; triggering resumes every waiter at the current time."""

    __slots__ = ("engine", "triggered", "_waiters")

    def __init__(self, engine: Engine):
        self.engine = engine
        self.triggered = False
        self._waiters: list[Callable[[], None]] = []

    def trigger(self) -> None:
        if self.triggered:
            return
        self.triggered = True
        waiters, self._waiters = self._waiters, []
        after = self.engine._after
        for resume in waiters:
            after(0.0, resume)

    def add_callback(self, fn: Callable[[], None]) -> None:
        if self.triggered:
            self.engine._after(0.0, fn)
        else:
            self._waiters.append(fn)


class Signal:
    """Re-armable notification with latch semantics.

    A notify() with no waiter is remembered, so a consumer that was busy
    (e.g. waiting on a resource) when the wakeup fired sees it on its next
    wait() instead of sleeping forever.
    """

    def __init__(self, engine: Engine):
        self._engine = engine
        self._pending: Optional[SimEvent] = None
        self._latched = False

    def wait(self) -> SimEvent:
        event = SimEvent(self._engine)
        if self._latched:
            self._latched = False
            event.trigger()
            return event
        self._pending = event
        return event

    def notify(self) -> None:
        if self._pending is not None and not self._pending.triggered:
            self._pending.trigger()
            self._pending = None
        else:
            self._latched = True


class Process:
    """Generator-based cooperative task driven by the engine."""

    def __init__(self, engine: Engine, gen: Generator):
        self.engine = engine
        self.gen = gen
        self.alive = True
        self._resume = self._step       # the one bound method every wait resumes
        engine._after(0.0, self._resume)

    def _step(self) -> None:
        if not self.alive:
            return
        try:
            yielded = next(self.gen)
        except StopIteration:
            self.alive = False
            return
        if type(yielded) is SimEvent or isinstance(yielded, SimEvent):
            yielded.add_callback(self._resume)
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                raise ValueError(f"negative delay: {float(yielded)}")
            self.engine._after(float(yielded), self._resume)
        else:
            raise TypeError(f"process yielded {yielded!r}; expected delay or SimEvent")


class BusyTracker:
    """Non-overlapping busy intervals with range queries (utilization sampling)."""

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []

    def add(self, start: float, end: float) -> None:
        if end <= start:
            return
        # serial resources produce intervals in nondecreasing start order
        if self._ends and start < self._ends[-1]:
            raise ValueError("busy intervals must be appended in order")
        self._starts.append(start)
        self._ends.append(end)

    def busy_between(self, t0: float, t1: float) -> float:
        if t1 <= t0 or not self._starts:
            return 0.0
        total = 0.0
        i = max(0, bisect_right(self._ends, t0) - 1)
        for j in range(i, len(self._starts)):
            s, e = self._starts[j], self._ends[j]
            if s >= t1:
                break
            total += max(0.0, min(e, t1) - max(s, t0))
        return total


class FifoResource:
    """Serial resource (disk, CPU core budget) serving requests in arrival order.

    ``rate`` is work units per simulated second; a request for ``work``
    units occupies the resource for ``work / rate`` seconds, starting when
    every earlier request has finished.
    """

    def __init__(self, engine: Engine, rate: float, name: str = "resource"):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.engine = engine
        self.rate = rate
        self.name = name
        self.free_at = 0.0
        self.tracker = BusyTracker()

    def acquire(self, work: float) -> SimEvent:
        """Schedule ``work`` units; the returned event triggers at completion."""
        if work < 0:
            raise ValueError("negative work")
        done = SimEvent(self.engine)
        if work == 0:
            done.trigger()
            return done
        now, free_at = self.engine.now, self.free_at
        start = now if now >= free_at else free_at      # max(now, free_at)
        end = start + work / self.rate
        self.free_at = end
        self.tracker.add(start, end)
        self.engine._after(end - now, done.trigger)
        return done

    def utilization(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            return 0.0
        return min(1.0, self.tracker.busy_between(t0, t1) / (t1 - t0))


@dataclass(frozen=True)
class LinkConfig:
    """Point-to-point link parameters for one scenario."""

    bandwidth_mbps: float = 1000.0
    rtt_ms: float = 1.0
    loss_rate: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.bandwidth_mbps <= 0:
            raise ScenarioError("bandwidth_mbps must be > 0")
        if self.rtt_ms < 0:
            raise ScenarioError("rtt_ms must be >= 0")
        if not (0.0 <= self.loss_rate < 1.0):
            raise ScenarioError("loss_rate must be in [0, 1)")

    @property
    def bytes_per_second(self) -> float:
        return self.bandwidth_mbps * 1e6 / 8.0

    @property
    def one_way_s(self) -> float:
        return self.rtt_ms / 2000.0


@dataclass
class Envelope:
    """One message in flight: an opaque payload keyed by its channel."""

    channel: Any
    payload: bytes
    droppable: bool = False
    deliver_time: float = 0.0


@dataclass
class ByteCounter:
    sent: int = 0
    delivered: int = 0
    dropped: int = 0


class Link:
    """Full-duplex edge<->cloud pipe with bandwidth, latency, seeded loss and byte accounting."""

    def __init__(self, engine: Engine, config: LinkConfig):
        config.validate()
        self.engine = engine
        self.config = config
        self.open = True
        self._rng = random.Random(config.seed)
        self._handlers: dict[str, Callable[[Envelope], None]] = {}
        self._free_at: dict[str, float] = {}
        self.counters: dict[tuple[Any, str], ByteCounter] = {}

    def attach(self, endpoint: str, handler: Callable[[Envelope], None]) -> None:
        self._handlers[endpoint] = handler

    def _counter(self, channel: Any, direction: str) -> ByteCounter:
        key = (channel, direction)
        counter = self.counters.get(key)
        if counter is None:
            counter = self.counters[key] = ByteCounter()
        return counter

    def send(self, src: str, dst: str, envelope: Envelope) -> None:
        """Schedule delivery of ``envelope`` to ``dst``; FIFO per direction."""
        if not self.open:
            raise LinkClosed(f"link closed ({src}->{dst})")
        if dst not in self._handlers:
            raise LinkClosed(f"no endpoint attached at {dst!r}")
        direction = f"{src}->{dst}"
        size = len(envelope.payload)
        counter = self._counter(envelope.channel, direction)
        counter.sent += size
        if envelope.droppable and self._rng.random() < self.config.loss_rate:
            counter.dropped += size
            return
        now = self.engine.now
        start = max(now, self._free_at.get(direction, 0.0))
        tx = size / self.config.bytes_per_second
        end = start + tx
        self._free_at[direction] = end
        envelope.deliver_time = end + self.config.one_way_s
        handler = self._handlers[dst]

        def deliver() -> None:
            counter.delivered += size
            handler(envelope)

        self.engine._after(envelope.deliver_time - now, deliver)

    def close(self) -> None:
        self.open = False

    def iter_report_rows(self) -> Iterator[tuple[str, str, int, int, int]]:
        """Stable (channel, direction, sent, delivered, dropped) rows for CSV export."""
        for (channel, direction) in sorted(self.counters, key=lambda k: (repr(k[0]), k[1])):
            c = self.counters[(channel, direction)]
            yield repr(channel), direction, c.sent, c.delivered, c.dropped
