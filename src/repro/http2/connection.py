"""A sans-io HTTP/2 connection engine (client and server roles).

The engine follows the "sans-io" pattern: callers feed received bytes in via
:meth:`H2Connection.receive_data` and get protocol events out; outbound
bytes accumulate in an internal buffer drained with
:meth:`H2Connection.data_to_send`. This keeps the protocol logic fully
testable without sockets, and lets the same engine run over asyncio TCP or
the in-memory transports in :mod:`repro.http2.transport`.

The SWW extension surfaces here in three places:

* :meth:`initiate_connection` includes ``SETTINGS_GEN_ABILITY`` in the
  initial SETTINGS frame when the local endpoint supports generation;
* incoming SETTINGS update :attr:`peer_settings`, after which
  :attr:`gen_ability_negotiated` reports whether *both* peers advertised
  support (paper §3: "In any case other than both server and client having
  SETTINGS_GEN_ABILITY set to 1, default behavior will be assumed.");
* the :class:`GenAbilityNegotiated` event fires exactly once per connection
  when the peer's first SETTINGS frame arrives, carrying the verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.http2 import frames
from repro.http2.census import WireTally
from repro.http2.errors import (
    CompressionError,
    ErrorCode,
    FlowControlError,
    ProtocolError,
    StreamError,
)
from repro.http2.flow_control import FlowControlWindow
from repro.http2.frames import (
    ContinuationFrame,
    DataFrame,
    Frame,
    GoAwayFrame,
    HeadersFrame,
    PingFrame,
    PriorityFrame,
    PriorityUpdateFrame,
    PushPromiseFrame,
    RstStreamFrame,
    SettingsFrame,
    WindowUpdateFrame,
)
from repro.http2.hpack import HpackDecoder, HpackEncoder
from repro.http2.priority import (
    PRIORITY_HEADER,
    Priority,
    parse_priority_field,
    urgency_from_weight,
)
from repro.http2.settings import Setting, Settings
from repro.http2.streams import H2Stream, StreamEvent, StreamState
from repro.obs import NULL_REGISTRY, MetricsRegistry

#: The client connection preface (RFC 9113 §3.4).
CONNECTION_PREFACE = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"

#: Most bytes one header section may take on the wire: each of its HEADERS
#: and CONTINUATION frames is charged its frame header plus its block, so a
#: flood of empty CONTINUATIONs is bounded too (python-hyper/h2's default
#: header-list bound).
MAX_HEADER_SECTION = 65_536

HeaderList = list[tuple[bytes, bytes]]

class Role(enum.Enum):
    CLIENT = "client"
    SERVER = "server"


@dataclass
class Event:
    """Base class for protocol events returned by ``receive_data``."""

    stream_id: int = 0


@dataclass
class RemoteSettingsChanged(Event):
    changes: dict[int, int] = field(default_factory=dict)


@dataclass
class SettingsAcknowledged(Event):
    pass


@dataclass
class GenAbilityNegotiated(Event):
    """Fired when the peer's first SETTINGS frame reveals its capability."""

    local: bool = False
    peer: bool = False

    @property
    def negotiated(self) -> bool:
        return self.local and self.peer


@dataclass
class RequestReceived(Event):
    headers: HeaderList = field(default_factory=list)
    end_stream: bool = False


@dataclass
class ResponseReceived(Event):
    headers: HeaderList = field(default_factory=list)
    end_stream: bool = False


@dataclass
class TrailersReceived(Event):
    headers: HeaderList = field(default_factory=list)


@dataclass
class DataReceived(Event):
    data: bytes = b""
    flow_controlled_length: int = 0
    end_stream: bool = False


@dataclass
class StreamEnded(Event):
    pass


@dataclass
class StreamReset(Event):
    error_code: ErrorCode = ErrorCode.NO_ERROR


@dataclass
class PushPromiseReceived(Event):
    promised_stream_id: int = 0
    headers: HeaderList = field(default_factory=list)


@dataclass
class PingReceived(Event):
    data: bytes = b""


@dataclass
class PingAcknowledged(Event):
    data: bytes = b""


@dataclass
class WindowUpdated(Event):
    delta: int = 0


@dataclass
class ConnectionTerminated(Event):
    error_code: ErrorCode = ErrorCode.NO_ERROR
    last_stream_id: int = 0
    debug_data: bytes = b""


@dataclass
class PriorityUpdated(Event):
    """An RFC 9218 priority signal (header, PRIORITY_UPDATE, or mapped
    legacy PRIORITY frame) changed a stream's scheduling parameters."""

    urgency: int = 3
    incremental: bool = False
    #: True when the signal came from a deprecated RFC 7540 §5.3 PRIORITY
    #: frame and was approximated via ``urgency_from_weight``.
    legacy: bool = False


@dataclass
class StreamRefused(Event):
    """A new peer stream was refused (REFUSED_STREAM) — over the local
    MAX_CONCURRENT_STREAMS limit. The stream was never created; the peer
    may safely retry it later (RFC 9113 §8.7)."""

    reason: str = "max-concurrent-streams"


@dataclass
class AbuseDetected(Event):
    """Abusive peer behaviour crossed a limit and the connection is being
    torn down with ENHANCE_YOUR_CALM (rapid reset, SETTINGS/PING floods,
    an oversized header section)."""

    kind: str = ""
    count: int = 0


class H2Connection:
    """One endpoint of an HTTP/2 connection.

    Parameters
    ----------
    role:
        CLIENT sends the connection preface and uses odd stream ids;
        SERVER expects the preface and uses even ids for pushes.
    gen_ability:
        Whether this endpoint advertises ``SETTINGS_GEN_ABILITY`` (the SWW
        capability). ``gen_ability_value`` allows richer 32-bit encodings.
    """

    def __init__(
        self,
        role: Role,
        gen_ability: bool = False,
        gen_ability_value: int | None = None,
        header_table_size: int = 4096,
        use_huffman: bool = True,
        use_indexing: bool = True,
        initial_window_size: int = 1 << 24,
        registry: MetricsRegistry | None = None,
        max_concurrent_streams: int | None = None,
        rapid_reset_limit: int = 64,
        control_flood_limit: int = 512,
    ) -> None:
        self.role = role
        #: Observability sink (a no-op unless injected).
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.local_gen_ability = gen_ability
        self._gen_ability_value = gen_ability_value if gen_ability_value is not None else (1 if gen_ability else 0)
        local_overrides = {
            Setting.GEN_ABILITY: self._gen_ability_value,
            Setting.INITIAL_WINDOW_SIZE: initial_window_size,
        }
        if max_concurrent_streams is not None:
            local_overrides[Setting.MAX_CONCURRENT_STREAMS] = max_concurrent_streams
        self.local_settings = Settings(local_overrides)
        #: None = unlimited (we refuse nothing even if the peer floods us).
        self._max_concurrent_streams = max_concurrent_streams
        # Abuse accounting (CVE-2023-44487-style rapid reset; SETTINGS/PING
        # control-frame floods). Crossing a limit triggers GOAWAY with
        # ENHANCE_YOUR_CALM and an AbuseDetected event.
        self._rapid_reset_limit = rapid_reset_limit
        self._control_flood_limit = control_flood_limit
        self._rapid_resets = 0
        self._control_frames = 0
        self.peer_settings = Settings()
        self._peer_settings_received = False
        self.encoder = HpackEncoder(header_table_size, use_huffman=use_huffman, use_indexing=use_indexing)
        self.decoder = HpackDecoder(header_table_size)
        #: Streams that are not closed; :meth:`_process` registers a stream
        #: on its first transition and drops it on CLOSED.
        self.streams: dict[int, H2Stream] = {}
        #: Highest stream id ever opened or reserved, indexed by parity
        #: (``id % 2``). An absent id at or below it is closed (§5.1.1).
        self._highest_stream_id = [0, 0]
        self._peer_parity = 1 if role == Role.SERVER else 0
        self.outbound_window = FlowControlWindow()
        self.inbound_window = FlowControlWindow()
        self._send_buffer = bytearray()
        self._recv_buffer = b""
        self._preface_pending = role == Role.SERVER
        self._next_stream_id = 1 if role == Role.CLIENT else 2
        #: An open header section: stream id, block so far, END_STREAM, cost.
        self._expect_continuation: tuple[int, bytearray, bool, int] | None = None
        #: Cleared when a header section is refused undecoded: the HPACK
        #: context is then out of step with the peer's, so nothing more is read.
        self._reading = True
        self._goaway_sent = False
        self._goaway_received = False
        #: Frames and bytes each way, in plain ints; the registry reads
        #: them when it is scraped (:mod:`repro.http2.census`).
        self.tally = WireTally((self.encoder.table, self.decoder.table))
        self.registry.source(self.tally, self)

    # ------------------------------------------------------------------ #
    # Outbound API
    # ------------------------------------------------------------------ #

    def initiate_connection(self) -> None:
        """Send the preface (clients) and the initial SETTINGS frame."""
        if self.role == Role.CLIENT:
            self._emit_raw(CONNECTION_PREFACE)
        settings: dict[int, int] = {
            Setting.HEADER_TABLE_SIZE: self.local_settings.header_table_size,
            Setting.INITIAL_WINDOW_SIZE: self.local_settings.initial_window_size,
            Setting.MAX_FRAME_SIZE: self.local_settings.max_frame_size,
        }
        if self._max_concurrent_streams is not None:
            settings[Setting.MAX_CONCURRENT_STREAMS] = self._max_concurrent_streams
        if self._gen_ability_value:
            settings[Setting.GEN_ABILITY] = self._gen_ability_value
            if self.registry.enabled:
                self.registry.counter(
                    "sww_negotiation_total",
                    "GEN_ABILITY negotiation outcomes per endpoint",
                    layer="http2",
                    operation="advertised",
                ).inc()
        self._emit_frame(SettingsFrame(settings=settings))
        # Raise the connection-level receive window to match the advertised
        # stream window (the connection window is not covered by SETTINGS —
        # RFC 9113 §6.9.2 — so it needs an explicit WINDOW_UPDATE).
        grant = self.local_settings.initial_window_size - self.inbound_window.available
        if grant > 0:
            self.inbound_window.replenish(grant)
            self._emit_frame(WindowUpdateFrame(stream_id=0, increment=grant))

    def get_next_available_stream_id(self) -> int:
        stream_id = self._next_stream_id
        self._next_stream_id += 2
        return stream_id

    def send_headers(
        self,
        stream_id: int,
        headers: HeaderList,
        end_stream: bool = False,
        max_fragment: int | None = None,
    ) -> None:
        """Send HEADERS (+CONTINUATIONs when the block exceeds a frame)."""
        self._assert_open_for_sending()
        stream = self._stream(stream_id)
        self._process(stream, StreamEvent.SEND_HEADERS)
        if end_stream:
            self._process(stream, StreamEvent.SEND_END_STREAM)
        block = self.encoder.encode(headers)
        limit = max_fragment or self.peer_settings.max_frame_size
        first, rest = block[:limit], block[limit:]
        self._emit_frame(
            HeadersFrame(
                stream_id=stream_id,
                header_block=first,
                end_stream=end_stream,
                end_headers=not rest,
            )
        )
        while rest:
            fragment, rest = rest[:limit], rest[limit:]
            self._emit_frame(
                ContinuationFrame(stream_id=stream_id, header_block=fragment, end_headers=not rest)
            )

    def send_data(self, stream_id: int, data: bytes | memoryview, end_stream: bool = False) -> None:
        """Send DATA, chunked to the peer's MAX_FRAME_SIZE, consuming windows.

        Chunks are memoryview slices — no per-frame copy of the body; the
        only copy is the final wire assembly in ``Frame.serialize``.
        """
        self._assert_open_for_sending()
        stream = self.streams.get(stream_id)
        if stream is None or not stream.can_send_data:
            raise ProtocolError(f"cannot send DATA on stream {stream_id}")
        limit = self.peer_settings.max_frame_size
        view = memoryview(data)
        offset = 0
        while True:
            chunk = view[offset : offset + limit]
            offset += len(chunk)
            last = offset >= len(data)
            try:
                self.outbound_window.consume(len(chunk))
                stream.outbound_window.consume(len(chunk))
            except FlowControlError:
                if self.registry.enabled:
                    self.registry.counter(
                        "http2_flow_stalls_total",
                        "Sends/receives blocked on an exhausted flow-control window",
                        layer="http2",
                        operation="send",
                    ).inc()
                raise
            self._emit_frame(DataFrame(stream_id=stream_id, data=chunk, end_stream=end_stream and last))
            if last:
                break
        if end_stream:
            self._process(stream, StreamEvent.SEND_END_STREAM)

    def send_ping(self, data: bytes = b"\x00" * 8) -> None:
        self._emit_frame(PingFrame(data=data))

    def promise_stream(
        self,
        request_stream_id: int,
        request_headers: HeaderList,
        response_headers: HeaderList,
    ) -> int:
        """Reserve a pushed stream and send its PUSH_PROMISE + HEADERS.

        Emits PUSH_PROMISE on ``request_stream_id`` (RFC 9113 §8.4),
        reserving a new even-numbered stream, then sends the response
        headers on the promised stream — but *not* the body, which the
        caller sends on the returned promised stream id (the server queues
        it on its flow-control-aware writer). Requires the peer to have
        left ENABLE_PUSH on.
        """
        if self.role != Role.SERVER:
            raise ProtocolError("only servers may push")
        if not self.peer_settings.enable_push:
            raise ProtocolError("peer disabled server push")
        if request_stream_id not in self.streams:
            raise ProtocolError(f"cannot push against stream {request_stream_id}")
        promised_id = self.get_next_available_stream_id()
        promised = self._stream(promised_id)
        self._process(promised, StreamEvent.SEND_PUSH_PROMISE)
        block = self.encoder.encode(request_headers)
        self._emit_frame(
            PushPromiseFrame(
                stream_id=request_stream_id,
                promised_stream_id=promised_id,
                header_block=block,
            )
        )
        self._process(promised, StreamEvent.SEND_HEADERS)
        response_block = self.encoder.encode(response_headers)
        self._emit_frame(HeadersFrame(stream_id=promised_id, header_block=response_block))
        return promised_id

    def reset_stream(self, stream_id: int, error_code: ErrorCode = ErrorCode.CANCEL) -> None:
        self._process(self._stream(stream_id), StreamEvent.SEND_RST)
        self._emit_frame(RstStreamFrame(stream_id=stream_id, error_code=error_code))

    def close_connection(self, error_code: ErrorCode = ErrorCode.NO_ERROR, debug: bytes = b"") -> None:
        last_stream_id = self._highest_stream_id[self._peer_parity]
        self._emit_frame(GoAwayFrame(last_stream_id=last_stream_id, error_code=error_code, debug_data=debug))
        self._goaway_sent = True
        if self.registry.enabled:
            self.registry.counter(
                "http2_goaway_sent_total",
                "GOAWAY frames emitted, by error code",
                layer="http2",
                operation=error_code.name,
            ).inc()

    def send_priority_update(self, stream_id: int, priority: Priority) -> None:
        """Reprioritise a stream hop-by-hop (RFC 9218 §7.1).

        Also applies the parameters locally so a same-process scheduler
        (tests, in-memory transports) observes the change without a
        round trip.
        """
        self._emit_frame(
            PriorityUpdateFrame(prioritized_stream_id=stream_id, field_value=priority.serialize())
        )
        stream = self.streams.get(stream_id)
        if stream is not None:
            stream.set_priority(priority.urgency, priority.incremental)

    def increment_flow_control_window(self, increment: int, stream_id: int = 0) -> None:
        """Grant the peer more credit (connection when stream_id == 0)."""
        if stream_id == 0:
            self.inbound_window.replenish(increment)
        else:
            stream = self.streams.get(stream_id)
            if stream is None:
                raise ProtocolError(f"unknown stream {stream_id}")
            stream.inbound_window.replenish(increment)
        self._emit_frame(WindowUpdateFrame(stream_id=stream_id, increment=increment))

    def acknowledge_received_data(self, acknowledged_size: int, stream_id: int) -> None:
        """Return the credit one received DATA frame consumed.

        The one replenishment rule: the connection window always (a
        long-lived multi-stream connection must never starve the peer),
        the stream window while the stream can still receive (a body
        larger than one stream window deadlocks without it).
        """
        self.increment_flow_control_window(acknowledged_size)
        stream = self.streams.get(stream_id)
        if stream is not None and stream.can_receive_data:
            self.increment_flow_control_window(acknowledged_size, stream_id)

    def acknowledge_settings(self) -> None:
        self._emit_frame(SettingsFrame(ack=True))

    def update_settings(self, changes: dict[int, int]) -> None:
        """Send a mid-connection SETTINGS frame."""
        self._emit_frame(SettingsFrame(settings=dict(changes)))
        old_window = self.local_settings.initial_window_size
        applied = self.local_settings.update(changes)
        if Setting.INITIAL_WINDOW_SIZE in applied:
            # Mirror §6.9.2 locally: the peer will treat every stream's
            # send window as resized by the delta the moment it applies
            # this frame, so our per-stream receive windows must move in
            # lockstep or a grown window looks like an overrun here.
            delta = applied[Setting.INITIAL_WINDOW_SIZE] - old_window
            for stream in self.streams.values():
                stream.inbound_window.adjust(delta)

    @property
    def bytes_sent(self) -> int:
        return self.tally.bytes_sent

    @property
    def bytes_received(self) -> int:
        return self.tally.bytes_received

    @property
    def sent_frame_bytes(self) -> dict[int, int]:
        """Bytes sent per frame type code, for the protocol-overhead benches."""
        return {code: n for code, n in enumerate(self.tally.frame_bytes_sent) if n}

    def data_to_send(self) -> bytes:
        """Drain the outbound byte buffer."""
        out = bytes(self._send_buffer)
        self._send_buffer.clear()
        return out

    # ------------------------------------------------------------------ #
    # Inbound API
    # ------------------------------------------------------------------ #

    def receive_data(self, data: bytes) -> list[Event]:
        """Feed received bytes; returns the protocol events they produced."""
        self.tally.bytes_received += len(data)
        events: list[Event] = []
        if not self._reading:
            return events
        self._recv_buffer += data
        if self._preface_pending:
            if len(self._recv_buffer) < len(CONNECTION_PREFACE):
                if not CONNECTION_PREFACE.startswith(self._recv_buffer):
                    raise ProtocolError("invalid connection preface")
                return events
            if not self._recv_buffer.startswith(CONNECTION_PREFACE):
                raise ProtocolError("invalid connection preface")
            self._recv_buffer = self._recv_buffer[len(CONNECTION_PREFACE) :]
            self._preface_pending = False
        parsed, self._recv_buffer = frames.parse_frames(
            self._recv_buffer, self.local_settings.max_frame_size
        )
        for frame in parsed:
            events.extend(self._handle_frame(frame))
            if not self._reading:
                break
        return events

    # ------------------------------------------------------------------ #
    # Negotiation status
    # ------------------------------------------------------------------ #

    @property
    def peer_gen_ability(self) -> bool:
        return self.peer_settings.gen_ability

    @property
    def gen_ability_negotiated(self) -> bool:
        """True only when *both* endpoints advertised GEN_ABILITY (§3)."""
        return self.local_gen_ability and self.peer_settings.gen_ability

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _assert_open_for_sending(self) -> None:
        if self._goaway_sent:
            raise ProtocolError("connection is shutting down (GOAWAY sent)")

    def _stream(self, stream_id: int) -> H2Stream:
        """The open stream ``stream_id`` names; for an absent id, a CLOSED
        stand-in at or below the highest id of its parity (§5.1.1), else a
        new IDLE stream that :meth:`_process` registers."""
        stream = self.streams.get(stream_id)
        if stream is not None:
            return stream
        if stream_id <= self._highest_stream_id[stream_id % 2]:
            return H2Stream(stream_id, state=StreamState.CLOSED)
        return H2Stream(
            stream_id,
            outbound_window=FlowControlWindow(self.peer_settings.initial_window_size),
            inbound_window=FlowControlWindow(self.local_settings.initial_window_size),
        )

    def _process(self, stream: H2Stream, event: StreamEvent) -> None:
        """Apply ``event``: the one place a stream enters or leaves the table."""
        if stream.process(event) is StreamState.CLOSED:
            self.streams.pop(stream.stream_id, None)
        elif stream.stream_id not in self.streams:
            self.streams[stream.stream_id] = stream
            self._highest_stream_id[stream.stream_id % 2] = stream.stream_id

    def _emit_frame(self, frame: Frame) -> None:
        wire = frame.serialize()
        self._send_buffer += wire
        tally = self.tally
        tally.bytes_sent += len(wire)
        tally.frames_sent[frame.TYPE] += 1
        tally.frame_bytes_sent[frame.TYPE] += len(wire)

    def _emit_raw(self, data: bytes) -> None:
        self._send_buffer += data
        self.tally.bytes_sent += len(data)

    def _handle_frame(self, frame: Frame) -> list[Event]:
        self.tally.frames_received[frame.TYPE] += 1
        if self._expect_continuation is not None and not isinstance(frame, ContinuationFrame):
            raise ProtocolError("expected CONTINUATION frame")
        if isinstance(frame, SettingsFrame):
            return self._handle_settings(frame)
        if isinstance(frame, HeadersFrame):
            return self._handle_headers(frame)
        if isinstance(frame, ContinuationFrame):
            return self._handle_continuation(frame)
        if isinstance(frame, DataFrame):
            return self._handle_data(frame)
        if isinstance(frame, PingFrame):
            return self._handle_ping(frame)
        if isinstance(frame, WindowUpdateFrame):
            return self._handle_window_update(frame)
        if isinstance(frame, RstStreamFrame):
            return self._handle_rst(frame)
        if isinstance(frame, GoAwayFrame):
            self._goaway_received = True
            return [
                ConnectionTerminated(
                    error_code=frame.error_code,
                    last_stream_id=frame.last_stream_id,
                    debug_data=frame.debug_data,
                )
            ]
        if isinstance(frame, PushPromiseFrame):
            return self._handle_push_promise(frame)
        if isinstance(frame, PriorityUpdateFrame):
            return self._handle_priority_update(frame)
        if isinstance(frame, PriorityFrame):
            return self._handle_legacy_priority(frame)
        return []

    def _handle_priority_update(self, frame: PriorityUpdateFrame) -> list[Event]:
        priority = parse_priority_field(frame.field_value)
        stream = self.streams.get(frame.prioritized_stream_id)
        if stream is None:
            # RFC 9218 §7: updates for unknown/closed streams are ignored
            # (a real server might buffer a couple for soon-to-open ids).
            return []
        stream.set_priority(priority.urgency, priority.incremental)
        return [
            PriorityUpdated(
                stream_id=frame.prioritized_stream_id,
                urgency=priority.urgency,
                incremental=priority.incremental,
            )
        ]

    def _handle_legacy_priority(self, frame: PriorityFrame) -> list[Event]:
        """Map a deprecated RFC 7540 §5.3 PRIORITY frame onto urgency.

        The dependency tree is not reconstructed — only the weight is
        approximated (RFC 9218 §2 recommends exactly this downgrade). Dep
        and exclusivity are accepted and dropped.
        """
        if frame.stream_id == 0:
            raise ProtocolError("PRIORITY on stream 0")
        stream = self.streams.get(frame.stream_id)
        if stream is None:
            return []  # priority for idle/closed streams carries no state here
        urgency = urgency_from_weight(frame.weight)
        stream.set_priority(urgency, incremental=False)
        return [
            PriorityUpdated(stream_id=frame.stream_id, urgency=urgency, incremental=False, legacy=True)
        ]

    def _active_peer_streams(self) -> int:
        """Streams the peer initiated that are not yet closed (§5.1.2)."""
        return sum(1 for stream_id in self.streams if stream_id % 2 == self._peer_parity)

    def _abuse(self, kind: str, count: int) -> list[Event]:
        """Tear the connection down with ENHANCE_YOUR_CALM."""
        if not self._goaway_sent:
            self.close_connection(ErrorCode.ENHANCE_YOUR_CALM, debug=kind.encode("ascii"))
        return [AbuseDetected(kind=kind, count=count)]

    def _handle_settings(self, frame: SettingsFrame) -> list[Event]:
        if frame.ack:
            return [SettingsAcknowledged()]
        old_window = self.peer_settings.initial_window_size
        applied = self.peer_settings.update(frame.settings)
        if Setting.HEADER_TABLE_SIZE in applied:
            self.encoder.set_max_table_size(applied[Setting.HEADER_TABLE_SIZE])
        if Setting.INITIAL_WINDOW_SIZE in applied:
            delta = applied[Setting.INITIAL_WINDOW_SIZE] - old_window
            for stream in self.streams.values():
                stream.outbound_window.adjust(delta)
        self.acknowledge_settings()
        events: list[Event] = [RemoteSettingsChanged(changes=applied)]
        if not self._peer_settings_received:
            self._peer_settings_received = True
            negotiated = GenAbilityNegotiated(
                local=self.local_gen_ability, peer=self.peer_settings.gen_ability
            )
            if self.registry.enabled:
                self.registry.counter(
                    "sww_negotiation_total",
                    "GEN_ABILITY negotiation outcomes per endpoint",
                    layer="http2",
                    operation="accepted" if negotiated.negotiated else "fallback",
                ).inc()
            events.append(negotiated)
        events.extend(self._count_control_frame("settings-flood"))
        return events

    def _header_events(self, stream_id: int, headers: HeaderList, end_stream: bool) -> list[Event]:
        stream = self._stream(stream_id)
        if (
            self._max_concurrent_streams is not None
            and stream.state is StreamState.IDLE
            and self._active_peer_streams() >= self._max_concurrent_streams
        ):
            # Refuse without touching the stream table: IDLE has no
            # SEND_RST transition, and REFUSED_STREAM promises the peer
            # the request was not processed at all (§8.7). The HPACK
            # block was already decoded, keeping the shared decoder
            # context consistent.
            self._emit_frame(
                RstStreamFrame(stream_id=stream_id, error_code=ErrorCode.REFUSED_STREAM)
            )
            if self.registry.enabled:
                self.registry.counter(
                    "http2_refused_streams_total",
                    "New streams refused over MAX_CONCURRENT_STREAMS",
                    layer="http2",
                    operation="max-concurrent",
                ).inc()
            return [StreamRefused(stream_id=stream_id, reason="max-concurrent-streams")]
        priority_field = next((value for name, value in headers if name == PRIORITY_HEADER), None)
        if priority_field is not None:
            parsed = parse_priority_field(priority_field)
            stream.set_priority(parsed.urgency, parsed.incremental)
        is_trailers = stream.headers_received and stream.state in (
            StreamState.OPEN,
            StreamState.HALF_CLOSED_LOCAL,
        )
        self._process(stream, StreamEvent.RECV_HEADERS)
        stream.headers_received = True
        events: list[Event]
        if is_trailers:
            events = [TrailersReceived(stream_id=stream_id, headers=headers)]
        elif self.role == Role.SERVER:
            events = [RequestReceived(stream_id=stream_id, headers=headers, end_stream=end_stream)]
        else:
            events = [ResponseReceived(stream_id=stream_id, headers=headers, end_stream=end_stream)]
        if end_stream:
            self._process(stream, StreamEvent.RECV_END_STREAM)
            events.append(StreamEnded(stream_id=stream_id))
        return events

    def _handle_headers(self, frame: HeadersFrame) -> list[Event]:
        if frame.stream_id == 0:
            raise ProtocolError("HEADERS on stream 0")
        if not frame.end_headers:
            block = frame.header_block
            cost = frames.FRAME_HEADER_LENGTH + len(block)
            self._expect_continuation = (frame.stream_id, bytearray(block), frame.end_stream, cost)
            return []
        try:
            headers = self.decoder.decode(frame.header_block)
        except CompressionError:
            raise
        events = self._header_events(frame.stream_id, headers, frame.end_stream)
        if frame.priority is not None:
            # Legacy HEADERS-borne prioritisation (RFC 7540 §6.2). The
            # RFC 9218 ``priority`` header field wins when both appear.
            stream = self.streams.get(frame.stream_id)
            if stream is not None and not stream.priority_signalled:
                _, weight, _ = frame.priority
                stream.set_priority(urgency_from_weight(weight), incremental=False)
        return events

    def _handle_continuation(self, frame: ContinuationFrame) -> list[Event]:
        if self._expect_continuation is None:
            raise ProtocolError("CONTINUATION without preceding HEADERS")
        stream_id, buffer, end_stream, cost = self._expect_continuation
        if frame.stream_id != stream_id:
            raise ProtocolError("CONTINUATION on wrong stream")
        cost += frames.FRAME_HEADER_LENGTH + len(frame.header_block)
        if cost > MAX_HEADER_SECTION:
            self._expect_continuation = None
            self._reading = False
            return self._abuse("continuation-flood", cost)
        buffer += frame.header_block
        if not frame.end_headers:
            self._expect_continuation = (stream_id, buffer, end_stream, cost)
            return []
        self._expect_continuation = None
        headers = self.decoder.decode(bytes(buffer))
        return self._header_events(stream_id, headers, end_stream)

    def _handle_data(self, frame: DataFrame) -> list[Event]:
        if frame.stream_id == 0:
            raise ProtocolError("DATA on stream 0")
        stream = self.streams.get(frame.stream_id)
        if stream is None or not stream.can_receive_data:
            raise StreamError(
                f"DATA on unusable stream {frame.stream_id}", frame.stream_id, ErrorCode.STREAM_CLOSED
            )
        flow_length = frame.flow_controlled_length()
        try:
            self.inbound_window.consume(flow_length)
            stream.inbound_window.consume(flow_length)
        except FlowControlError:
            if self.registry.enabled:
                self.registry.counter(
                    "http2_flow_stalls_total",
                    "Sends/receives blocked on an exhausted flow-control window",
                    layer="http2",
                    operation="receive",
                ).inc()
            raise
        events: list[Event] = [
            DataReceived(
                stream_id=frame.stream_id,
                data=frame.data,
                flow_controlled_length=flow_length,
                end_stream=frame.end_stream,
            )
        ]
        if frame.end_stream:
            self._process(stream, StreamEvent.RECV_END_STREAM)
            events.append(StreamEnded(stream_id=frame.stream_id))
        return events

    def _handle_ping(self, frame: PingFrame) -> list[Event]:
        if frame.ack:
            return [PingAcknowledged(data=frame.data)]
        self._emit_frame(PingFrame(data=frame.data, ack=True))
        events: list[Event] = [PingReceived(data=frame.data)]
        events.extend(self._count_control_frame("ping-flood"))
        return events

    def _count_control_frame(self, kind: str) -> list[Event]:
        """Flood accounting for ack-eliciting control frames (PING,
        non-ack SETTINGS): each costs us a mandatory reply, so an
        unbounded stream of them is free amplification for the peer."""
        self._control_frames += 1
        if self._control_frames >= self._control_flood_limit:
            return self._abuse(kind, self._control_frames)
        return []

    def _handle_window_update(self, frame: WindowUpdateFrame) -> list[Event]:
        if frame.increment == 0:
            raise ProtocolError("WINDOW_UPDATE with zero increment")
        if frame.stream_id == 0:
            self.outbound_window.replenish(frame.increment)
        else:
            stream = self.streams.get(frame.stream_id)
            if stream is not None:
                stream.outbound_window.replenish(frame.increment)
        return [WindowUpdated(stream_id=frame.stream_id, delta=frame.increment)]

    def _handle_rst(self, frame: RstStreamFrame) -> list[Event]:
        stream = self._stream(frame.stream_id)
        if stream.state is StreamState.IDLE:
            raise ProtocolError(f"RST_STREAM for idle stream {frame.stream_id}")
        if self.registry.enabled:
            self.registry.counter(
                "http2_rst_received_total",
                "RST_STREAM frames received, by error code",
                layer="http2",
                operation=frame.error_code.name,
            ).inc()
        # Rapid-reset accounting (CVE-2023-44487): a peer that cancels
        # streams it just opened, over and over, burns server work for
        # free. Count resets that land while the request is still live.
        rapid = stream.state in (StreamState.OPEN, StreamState.HALF_CLOSED_REMOTE)
        self._process(stream, StreamEvent.RECV_RST)
        events: list[Event] = [StreamReset(stream_id=frame.stream_id, error_code=frame.error_code)]
        if rapid:
            self._rapid_resets += 1
            if self._rapid_resets >= self._rapid_reset_limit:
                events.extend(self._abuse("rapid-reset", self._rapid_resets))
        return events

    def _handle_push_promise(self, frame: PushPromiseFrame) -> list[Event]:
        if self.role == Role.SERVER:
            raise ProtocolError("client sent PUSH_PROMISE")
        if not self.local_settings.enable_push:
            raise ProtocolError("PUSH_PROMISE with push disabled")
        headers = self.decoder.decode(frame.header_block)
        self._process(self._stream(frame.promised_stream_id), StreamEvent.RECV_PUSH_PROMISE)
        return [
            PushPromiseReceived(
                stream_id=frame.stream_id,
                promised_stream_id=frame.promised_stream_id,
                headers=headers,
            )
        ]
