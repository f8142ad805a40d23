"""Delta-state synchronization protocol and the collaborative channel.

The edge side opens one channel per scan leaf (quintuple identity), sends
the migration request with the original SQL, and keeps reading locally
until the cloud confirms.  At the next chunk/window boundary the leaf
exports its index (the first timestamp not yet delivered, see
``ced.scanops``), ships the delta, and flips its data source to
the channel.  A header-only probe block must be ACKed before any data
flows; data and control messages ride the reliable connection while the
probe itself is a droppable heartbeat datagram covered by a retry budget.

Flow control is credit-based: the producer may have at most
``queue_depth`` unconsumed blocks outstanding, and the edge returns one
credit as ``poll`` hands each block to the leaf, which is how the paper's
on-demand pull behaves under a bounded receive queue.

Remigration works the same way in reverse: the producer stops at one of
its own boundaries, sends a final delta plus the termination marker, and
the edge resumes locally only after draining every queued block.

The cloud producer runs one of two transmission modes, chosen by its
scan's predicate: *predicate pushdown* runs the scan's WHERE filter in the
cloud and ships only matching rows; *block streaming* ships the leaf's
blocks as they are.  A producer's operator is built when the gateway
confirms, and the first DELTA resumes its leaf from the delta's index.  A
DELTA whose index the leaf cannot resume from is not taken: the probe gets
no ACK, and the edge's handshake times out and resumes locally.

Each channel end keeps its state in one field, ``phase``.  The edge
end is ``PROBING`` from the delta until the ACK, and ``TERMINATED`` from
the moment it can take no further block: a TERMINATE marker, a rejection,
a cancel or a handshake timeout.  A timeout queues the end
``RemoteEnd("broken", index)`` behind which the leaf resumes locally from
the delta's index; like the ``complete`` and ``remigrate`` ends it reaches
the leaf through ``poll``.  The cloud end is ``TERMINATED`` once it is
cancelled or has sent its TERMINATE.

Every protocol fact is one event ``(time, kind, ChannelId)`` in
:attr:`ProtocolTelemetry.events`, and every count (a cluster's switches
and remigrations, a query's migrated, remigrated, rejected and
handshake-failed channels) is derived from that log.  The edge records
``request``, ``confirmed``, ``rejected``, ``delta``, ``probe``,
``handshake_timeout``, ``streaming``, ``data_before_ack``,
``cross_channel_block``, ``block`` (one per streamed block consumed) and,
when the leaf consumes the queued end, ``closed_complete``,
``closed_remigrate`` or ``closed_broken``; the cloud records ``confirm``,
``reject``, ``terminate_cloud_completed`` and ``terminate_remigration``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import MisalignedOffset, PlanError
from .netsim import Engine, Envelope, Link, Signal, Timer
from .scanops import NOT_READY, PENDING, RemoteEnd, RemoteSource
from .tsstore import SeriesPath, TsBlock
from .wire import (
    ChannelId,
    DeltaState,
    Direction,
    Message,
    MessageType,
    TerminateReason,
    decode_message,
    encode_message,
)

__all__ = [
    "ChannelId",
    "DeltaState",
    "ChannelConfig",
    "ChannelPhase",
    "ProtocolTelemetry",
    "Transport",
    "SinkChannel",
    "SourceChannel",
    "CloudGateway",
]


@dataclass(frozen=True)
class ChannelConfig:
    probe_retries: int = 3
    probe_timeout_s: float = 0.01
    queue_depth: int = 4


class ChannelPhase:
    REQUESTED = "requested"
    CONFIRMED = "confirmed"
    PROBING = "probing"
    STREAMING = "streaming"
    TERMINATED = "terminated"


@dataclass
class ProtocolTelemetry:
    """The event log shared by every channel of one simulated cluster."""

    events: list = field(default_factory=list)   # (time, kind, ChannelId)

    def record(self, time: float, kind: str, channel: ChannelId) -> None:
        self.events.append((time, kind, channel))

    def count(self, kind: str) -> int:
        return sum(1 for _, k, _ in self.events if k == kind)

    def counts_by_query(self) -> Counter:
        """Events per ``(query id, kind)``, in one pass over the log."""
        return Counter((channel.query_id, kind) for _, kind, channel in self.events)

    @property
    def switches(self) -> int:
        return self.count("delta")

    @property
    def remigrations(self) -> int:
        return self.count("closed_remigrate")


class Transport:
    """One node's view of the link: sends typed messages, dispatches received ones."""

    def __init__(self, engine: Engine, link: Link, side: str, peer: str):
        self.engine = engine
        self.link = link
        self.side = side
        self.peer = peer
        self._channel_handlers: dict[tuple, Callable[[Message], None]] = {}
        self._fallback: Optional[Callable[[Message], None]] = None
        self._tag_handlers: dict[str, Callable[[Envelope], None]] = {}
        link.attach(side, self._on_envelope)

    def register_channel(self, channel: ChannelId, handler: Callable[[Message], None]) -> None:
        self._channel_handlers[channel.key()] = handler

    def unregister_channel(self, channel: ChannelId) -> None:
        self._channel_handlers.pop(channel.key(), None)

    def set_fallback(self, handler: Callable[[Message], None]) -> None:
        self._fallback = handler

    def register_tag(self, tag: str, handler: Callable[[Envelope], None]) -> None:
        self._tag_handlers[tag] = handler

    def send_message(self, msg: Message, droppable: bool = False) -> None:
        envelope = Envelope(channel=msg.channel.key(), payload=encode_message(msg), droppable=droppable)
        self.link.send(self.side, self.peer, envelope)

    def send_raw(self, channel_tag: tuple, payload: bytes, droppable: bool = False) -> None:
        self.link.send(self.side, self.peer, Envelope(channel=channel_tag, payload=payload, droppable=droppable))

    def _on_envelope(self, envelope: Envelope) -> None:
        channel = envelope.channel
        if isinstance(channel, tuple) and channel and channel[0] == "chan":
            msg = decode_message(envelope.payload)
            handler = self._channel_handlers.get(channel)
            if handler is None:
                handler = self._fallback
            if handler is not None:
                handler(msg)
            return
        tag = channel[0] if isinstance(channel, tuple) else channel
        handler = self._tag_handlers.get(tag)
        if handler is not None:
            handler(envelope)


# --- edge side ------------------------------------------------------------------------

class SinkChannel(RemoteSource):
    """Edge endpoint of one migrated scan: request, delta, handshake, pull stream."""

    def __init__(
        self,
        engine: Engine,
        transport: Transport,
        channel_id: ChannelId,
        sql: str,
        series: SeriesPath,
        config: ChannelConfig,
        telemetry: ProtocolTelemetry,
        notify: Callable[[], None],
        on_confirmed: Callable[["SinkChannel"], None],
    ):
        self.engine = engine
        self.transport = transport
        self.channel_id = channel_id
        self.sql = sql
        self.series = series
        self.config = config
        self.telemetry = telemetry
        self.notify = notify
        self.on_confirmed = on_confirmed

        self.phase = ChannelPhase.REQUESTED
        self.activation_index: Optional[int] = None
        self.recv_queue: list = []        # TsBlock | RemoteEnd items in arrival order
        self.max_queue_seen = 0
        self._probe_attempts = 0
        self._probe_timer: Optional[Timer] = None
        transport.register_channel(channel_id, self.on_message)

    # -- outbound ----------------------------------------------------------

    def send_request(self) -> None:
        self.transport.send_message(
            Message(MessageType.MIGRATION_REQUEST, self.channel_id, sql=self.sql)
        )
        # recorded once sent: a closed link raises above, and no request left
        self.telemetry.record(self.engine.now, "request", self.channel_id)

    def activate(self, index: int) -> None:
        """Ship the delta and begin the probe handshake (leaf just hit a boundary)."""
        self.activation_index = index
        self.phase = ChannelPhase.PROBING
        delta = DeltaState(self.channel_id, self.sql, index, Direction.EDGE_TO_CLOUD)
        self.transport.send_message(Message(MessageType.DELTA, self.channel_id, delta=delta))
        self.telemetry.record(self.engine.now, "delta", self.channel_id)
        self._send_probe()

    def _send_probe(self) -> None:
        self._probe_attempts += 1
        self.telemetry.record(self.engine.now, "probe", self.channel_id)
        probe = TsBlock.header_only(self.series)
        self.transport.send_message(
            Message(MessageType.PROBE, self.channel_id, block=probe), droppable=True
        )
        self._probe_timer = self.engine.schedule(self.config.probe_timeout_s, self._on_probe_timeout)

    def _on_probe_timeout(self) -> None:
        if self.phase != ChannelPhase.PROBING:
            return
        if self._probe_attempts <= self.config.probe_retries:
            # at-least-once probe; the delta already sits in the reliable stream
            self._send_probe()
            return
        self.telemetry.record(self.engine.now, "handshake_timeout", self.channel_id)
        self.cancel("handshake timeout")
        # the handshake never completed; resume exactly where the delta left off
        self.recv_queue.append(RemoteEnd("broken", self.activation_index))
        self.notify()

    def cancel(self, reason: str) -> None:
        """Edge-side teardown (e.g. the query finished locally before the switch)."""
        if self.phase == ChannelPhase.TERMINATED:
            return
        if self._probe_timer:
            self._probe_timer.cancel()
        self.close()
        self.transport.send_message(Message(MessageType.CANCEL, self.channel_id, reason=reason))

    def close(self) -> None:
        """Take no further message: the channel is terminated and unregistered."""
        self.phase = ChannelPhase.TERMINATED
        self.transport.unregister_channel(self.channel_id)

    # -- inbound --------------------------------------------------------------

    def on_message(self, msg: Message) -> None:
        if msg.type is MessageType.CONFIRMATION:
            if self.phase == ChannelPhase.REQUESTED:
                if msg.confirmation == self.channel_id.triple():
                    self.phase = ChannelPhase.CONFIRMED
                    self.telemetry.record(self.engine.now, "confirmed", self.channel_id)
                    self.on_confirmed(self)
                else:
                    # not an echo of this request: a rejection, and the producer is released
                    self.telemetry.record(self.engine.now, "rejected", self.channel_id)
                    self.cancel("confirmation does not echo the request")
            self.notify()
        elif msg.type is MessageType.REJECTION:
            self.telemetry.record(self.engine.now, "rejected", self.channel_id)
            self.close()
            self.notify()
        elif msg.type is MessageType.ACK:
            if self.phase == ChannelPhase.PROBING:
                if self._probe_timer:
                    self._probe_timer.cancel()
                self.phase = ChannelPhase.STREAMING
                self.telemetry.record(self.engine.now, "streaming", self.channel_id)
            self.notify()
        elif msg.type is MessageType.DATA:
            if self.phase == ChannelPhase.PROBING:
                self.telemetry.record(self.engine.now, "data_before_ack", self.channel_id)
            if str(msg.block.series_id) != str(self.series):
                self.telemetry.record(self.engine.now, "cross_channel_block", self.channel_id)
            self.recv_queue.append(msg.block)
            self.max_queue_seen = max(self.max_queue_seen, len(self.recv_queue))
            self.notify()
        elif msg.type is MessageType.TERMINATE:
            # no credit after the marker; the handler stays until poll consumes the end
            self.phase = ChannelPhase.TERMINATED
            final_index = msg.delta.logical_index if msg.delta is not None else None
            kind = "complete" if msg.terminate_reason is TerminateReason.CLOUD_COMPLETED else "remigrate"
            self.recv_queue.append(RemoteEnd(kind, final_index))
            self.notify()

    # -- RemoteSource surface (consumed by the scan leaf) ---------------------------

    def poll(self):
        """The next queued item, or PENDING; a block handed out returns its credit."""
        if not self.recv_queue:
            return PENDING
        item = self.recv_queue.pop(0)
        if isinstance(item, RemoteEnd):
            self.telemetry.record(self.engine.now, f"closed_{item.kind}", self.channel_id)
            self.close()
            return item
        self.telemetry.record(self.engine.now, "block", self.channel_id)
        if self.phase != ChannelPhase.TERMINATED:
            self.transport.send_message(Message(MessageType.CREDIT, self.channel_id))
        return item


# --- cloud side ------------------------------------------------------------------------

class SourceChannel:
    """Cloud endpoint: resumes its operator from the delta and streams blocks."""

    def __init__(
        self,
        engine: Engine,
        transport: Transport,
        channel_id: ChannelId,
        root_op,
        leaf_op,
        step: Callable,                 # generator fn(root, leaves) -> block, charging its cost
        telemetry: ProtocolTelemetry,
        queue_depth: int = 4,
        fallback_after_rows: Optional[int] = None,
    ):
        self.engine = engine
        self.transport = transport
        self.channel_id = channel_id
        self.root_op = root_op
        self.leaf_op = leaf_op
        self.step = step
        self.telemetry = telemetry
        self.fallback_after_rows = fallback_after_rows
        self.phase = ChannelPhase.CONFIRMED
        self.credits = queue_depth
        self.delta: Optional[DeltaState] = None
        self.remigrate_requested = False
        self._wake = Signal(engine)
        transport.register_channel(channel_id, self.on_message)

    def on_message(self, msg: Message) -> None:
        if msg.type is MessageType.DELTA:
            if self.delta is None:            # duplicates are idempotent
                try:
                    self.leaf_op.resume_local(msg.delta.logical_index)
                except MisalignedOffset:
                    return                    # not a boundary of this leaf: no ACK follows
                self.delta = msg.delta
        elif msg.type is MessageType.PROBE:
            if self.delta is not None:
                self.transport.send_message(Message(MessageType.ACK, self.channel_id))
                if self.phase == ChannelPhase.CONFIRMED:
                    self.phase = ChannelPhase.STREAMING
                    self.engine.spawn(self._produce())
        elif msg.type is MessageType.CREDIT:
            self.credits += 1
            self._wake.notify()
        elif msg.type is MessageType.CANCEL:
            self.phase = ChannelPhase.TERMINATED
            self._wake.notify()

    def request_remigration(self) -> None:
        self.remigrate_requested = True
        self._wake.notify()

    def _produce(self):
        while True:
            if self.phase == ChannelPhase.TERMINATED:
                return
            if self._should_remigrate():
                yield from self._remigrate()
                return
            if self.credits <= 0:
                yield self._wake.wait()
                continue
            block = yield from self.step(self.root_op, (self.leaf_op,))
            if block is PENDING:
                raise PlanError(f"{self.channel_id}: a cloud operator waits on a remote source")
            if self.phase == ChannelPhase.TERMINATED:
                return
            if block is NOT_READY:
                continue         # loop back through the remigration check
            if block is None:
                self._terminate(TerminateReason.CLOUD_COMPLETED)
                return
            yield from self._send_block(block)

    def _should_remigrate(self) -> bool:
        if not self.leaf_op.at_boundary():
            return False
        if self.remigrate_requested:
            return True
        return (
            self.fallback_after_rows is not None
            and self.leaf_op.rows_local >= self.fallback_after_rows
            and self.root_op.has_next()
        )

    def _remigrate(self):
        # drain operator-held rows (e.g. a pushdown filter's buffer) before the
        # final delta, so the edge resume point covers exactly the shipped rows
        while True:
            block = self.root_op.flush_partial()
            if block is None:
                break
            yield from self._send_block(block)
        self._terminate(TerminateReason.REMIGRATION)

    def _send_block(self, block: TsBlock):
        while self.credits <= 0 and self.phase != ChannelPhase.TERMINATED:
            yield self._wake.wait()
        if self.phase == ChannelPhase.TERMINATED:
            return
        self.transport.send_message(Message(MessageType.DATA, self.channel_id, block=block))
        self.credits -= 1

    def _terminate(self, reason: TerminateReason) -> None:
        if self.phase == ChannelPhase.TERMINATED:
            return
        self.phase = ChannelPhase.TERMINATED
        delta = None
        if reason is TerminateReason.REMIGRATION:
            delta = DeltaState(
                self.channel_id,
                self.delta.sql,
                self.leaf_op.export_index(),
                Direction.CLOUD_TO_EDGE,
            )
        self.transport.send_message(
            Message(MessageType.TERMINATE, self.channel_id, terminate_reason=reason, delta=delta)
        )
        self.telemetry.record(self.engine.now, f"terminate_{reason.name.lower()}", self.channel_id)


class CloudGateway:
    """Cloud migration service: confirm/reject requests, own the source channels."""

    def __init__(
        self,
        engine: Engine,
        transport: Transport,
        telemetry: ProtocolTelemetry,
        make_producer: Callable[[Message], Optional[SourceChannel]],
    ):
        self.engine = engine
        self.transport = transport
        self.telemetry = telemetry
        self.make_producer = make_producer
        self.channels: dict[tuple, SourceChannel] = {}    # the global mapping table
        transport.set_fallback(self.handle_message)

    def handle_message(self, msg: Message) -> None:
        if msg.type is not MessageType.MIGRATION_REQUEST:
            return      # stray message for an already-released channel
        # A confirmed key never comes back here: its producer's handler stays
        # registered for the whole run and ignores a repeated request.
        producer = self.make_producer(msg)
        if producer is None:
            self.transport.send_message(
                Message(MessageType.REJECTION, msg.channel, reason="cache miss or plan failure")
            )
            self.telemetry.record(self.engine.now, "reject", msg.channel)
            return
        self.channels[msg.channel.key()] = producer
        self._confirm(msg.channel)

    def _confirm(self, channel: ChannelId) -> None:
        self.transport.send_message(
            Message(
                MessageType.CONFIRMATION,
                channel,
                confirmation=channel.triple(),
            )
        )
        self.telemetry.record(self.engine.now, "confirm", channel)

    def request_remigration_all(self) -> None:
        for producer in self.channels.values():
            if producer.phase != ChannelPhase.TERMINATED:
                producer.request_remigration()
