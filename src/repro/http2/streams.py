"""HTTP/2 stream state machine (RFC 9113 §5.1).

States::

                             +--------+
                     send PP |        | recv PP
                    ,--------+  idle  +--------.
                   /         |        |         \\
                  v          +--------+          v
           +----------+          |           +----------+
           |          |          | send H /  |          |
    ,------+ reserved |          | recv H    | reserved +------.
    |      | (local)  |          |           | (remote) |      |
    |      +---+------+          v           +------+---+      |
    |          |             +--------+             |          |
    |          |     recv ES |        | send ES     |          |
    |   send H |     ,-------+  open  +-------.     | recv H   |
    |          |    /        |        |        \\    |          |
    |          v   v         +---+----+         v   v          |
    |      +----------+          |           +----------+      |
    |      |   half   |          |           |   half   |      |
    |      |  closed  |          | send R /  |  closed  |      |
    |      | (remote) |          | recv R    | (local)  |      |
    |      +----+-----+          |           +-----+----+      |
    |           |                |                 |           |
    |           | send ES /      |        recv ES /|           |
    |           | send R /       v        send R / |           |
    |           | recv R     +--------+   recv R   |           |
    | send R /  `----------->|        |<-----------'  send R / |
    | recv R                 | closed |               recv R   |
    `------------------------+        +------------------------'
                             +--------+
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.http2.errors import ErrorCode, ProtocolError, StreamError
from repro.http2.flow_control import DEFAULT_WINDOW, FlowControlWindow


class StreamState(enum.Enum):
    IDLE = "idle"
    RESERVED_LOCAL = "reserved-local"
    RESERVED_REMOTE = "reserved-remote"
    OPEN = "open"
    HALF_CLOSED_LOCAL = "half-closed-local"
    HALF_CLOSED_REMOTE = "half-closed-remote"
    CLOSED = "closed"


class StreamEvent(enum.Enum):
    """Inputs to the state machine, from either direction."""

    SEND_HEADERS = "send-headers"
    RECV_HEADERS = "recv-headers"
    SEND_END_STREAM = "send-end-stream"
    RECV_END_STREAM = "recv-end-stream"
    SEND_RST = "send-rst"
    RECV_RST = "recv-rst"
    SEND_PUSH_PROMISE = "send-push-promise"
    RECV_PUSH_PROMISE = "recv-push-promise"


_S = StreamState
_E = StreamEvent

#: (state, event) -> new state. Missing entries are protocol violations.
_TRANSITIONS: dict[tuple[StreamState, StreamEvent], StreamState] = {
    (_S.IDLE, _E.SEND_HEADERS): _S.OPEN,
    (_S.IDLE, _E.RECV_HEADERS): _S.OPEN,
    (_S.IDLE, _E.SEND_PUSH_PROMISE): _S.RESERVED_LOCAL,
    (_S.IDLE, _E.RECV_PUSH_PROMISE): _S.RESERVED_REMOTE,
    (_S.RESERVED_LOCAL, _E.SEND_HEADERS): _S.HALF_CLOSED_REMOTE,
    (_S.RESERVED_LOCAL, _E.SEND_RST): _S.CLOSED,
    (_S.RESERVED_LOCAL, _E.RECV_RST): _S.CLOSED,
    (_S.RESERVED_REMOTE, _E.RECV_HEADERS): _S.HALF_CLOSED_LOCAL,
    (_S.RESERVED_REMOTE, _E.SEND_RST): _S.CLOSED,
    (_S.RESERVED_REMOTE, _E.RECV_RST): _S.CLOSED,
    (_S.OPEN, _E.SEND_END_STREAM): _S.HALF_CLOSED_LOCAL,
    (_S.OPEN, _E.RECV_END_STREAM): _S.HALF_CLOSED_REMOTE,
    (_S.OPEN, _E.SEND_RST): _S.CLOSED,
    (_S.OPEN, _E.RECV_RST): _S.CLOSED,
    # Trailers and repeated HEADERS while open are legal.
    (_S.OPEN, _E.SEND_HEADERS): _S.OPEN,
    (_S.OPEN, _E.RECV_HEADERS): _S.OPEN,
    (_S.HALF_CLOSED_LOCAL, _E.RECV_HEADERS): _S.HALF_CLOSED_LOCAL,
    (_S.HALF_CLOSED_LOCAL, _E.RECV_END_STREAM): _S.CLOSED,
    (_S.HALF_CLOSED_LOCAL, _E.SEND_RST): _S.CLOSED,
    (_S.HALF_CLOSED_LOCAL, _E.RECV_RST): _S.CLOSED,
    (_S.HALF_CLOSED_REMOTE, _E.SEND_HEADERS): _S.HALF_CLOSED_REMOTE,
    (_S.HALF_CLOSED_REMOTE, _E.SEND_END_STREAM): _S.CLOSED,
    (_S.HALF_CLOSED_REMOTE, _E.SEND_RST): _S.CLOSED,
    (_S.HALF_CLOSED_REMOTE, _E.RECV_RST): _S.CLOSED,
}

#: Events that are connection errors when applied to a closed stream.
_CLOSED_CONNECTION_ERRORS = {
    _E.RECV_HEADERS,
    _E.RECV_END_STREAM,
    _E.RECV_PUSH_PROMISE,
}


@dataclass
class H2Stream:
    """A single HTTP/2 stream: state plus per-stream flow-control windows."""

    stream_id: int
    state: StreamState = StreamState.IDLE
    outbound_window: FlowControlWindow = field(default_factory=lambda: FlowControlWindow(DEFAULT_WINDOW))
    inbound_window: FlowControlWindow = field(default_factory=lambda: FlowControlWindow(DEFAULT_WINDOW))
    #: True once a HEADERS block arrived; a later one is trailers.
    headers_received: bool = False
    #: RFC 9218 urgency (0 most urgent … 7 least); 3 when unsignalled.
    urgency: int = 3
    #: RFC 9218 incremental flag. Defaults True (not the RFC's False):
    #: with no explicit priority signal the scheduler keeps the legacy
    #: interleave-everything behaviour; an explicit ``priority`` field or
    #: PRIORITY_UPDATE overwrites both parameters with RFC semantics.
    incremental: bool = True
    #: True once an explicit priority signal (header, PRIORITY_UPDATE, or
    #: legacy PRIORITY frame) set the parameters above.
    priority_signalled: bool = False

    def set_priority(self, urgency: int, incremental: bool) -> None:
        """Apply an explicit RFC 9218 (or mapped legacy) priority signal."""
        self.urgency = max(0, min(7, int(urgency)))
        self.incremental = bool(incremental)
        self.priority_signalled = True

    def process(self, event: StreamEvent) -> StreamState:
        """Apply an event, returning the new state or raising on violation."""
        key = (self.state, event)
        new_state = _TRANSITIONS.get(key)
        if new_state is None:
            if self.state == StreamState.CLOSED:
                if event in (_E.RECV_RST, _E.SEND_RST):
                    return self.state  # RST on closed streams is tolerated (§5.1)
                if event in _CLOSED_CONNECTION_ERRORS:
                    raise StreamError(
                        f"received frame for closed stream {self.stream_id}",
                        self.stream_id,
                        ErrorCode.STREAM_CLOSED,
                    )
            raise ProtocolError(f"stream {self.stream_id}: event {event.value} illegal in state {self.state.value}")
        self.state = new_state
        return new_state

    @property
    def can_send_data(self) -> bool:
        return self.state in (StreamState.OPEN, StreamState.HALF_CLOSED_REMOTE)

    @property
    def can_receive_data(self) -> bool:
        return self.state in (StreamState.OPEN, StreamState.HALF_CLOSED_LOCAL)

    @property
    def closed(self) -> bool:
        return self.state == StreamState.CLOSED
