"""The HTTP/2 endpoint runtime: one server connection driver, one client
connection, over :class:`~repro.http2.transport.AsyncH2Transport` (an
asyncio protocol on a socket or on the in-memory pair) and the sans-io
engine. Every asyncio server and client in the repo runs on these two
classes and adds semantics only — what a request means and what to
answer. The runtime alone decides:

* **handshake** — ``initiate_connection`` and the first flush; a client
  is *settled* once the peer's SETTINGS arrived and ours were
  acknowledged, within a timeout;
* **credit return** — every received DATA frame is acknowledged through
  :meth:`H2Connection.acknowledge_received_data`;
* **the writer** — bodies leave through a ``ConnectionWriter`` that the
  transport pumps at the end of every read turn, so the turn's one flush
  carries what the turn queued; a body finished off the loop asks for the
  same pump and flush on the next loop turn (:meth:`ServerConnection.wake`).
  Neither end runs a reader or a writer task;
* **drain order** — in-flight stream tasks, then what credit allows,
  flush, close the socket, finish what is still queued as
  ``connection-closed``;
* **failure fan-out** — a client connection that sees EOF, GOAWAY or an
  engine/socket error fails every pending request with
  ``ConnectionError``; nothing waits on a dead peer.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable, Coroutine, Iterable
from dataclasses import dataclass, field

from repro.http2.connection import (
    AbuseDetected,
    ConnectionTerminated,
    DataReceived,
    Event,
    GenAbilityNegotiated,
    H2Connection,
    HeaderList,
    PriorityUpdated,
    PushPromiseReceived,
    ResponseReceived,
    SettingsAcknowledged,
    StreamEnded,
    StreamReset,
)
from repro.http2.transport import AsyncH2Transport, open_tcp_pair
from repro.http2.writer import ConnectionWriter
from repro.obs import MetricsRegistry

#: Connect → settings exchanged budget for :meth:`ClientConnection.settled`.
HANDSHAKE_TIMEOUT_S = 10.0


class ServerConnection:
    """Drives one accepted connection from handshake to close.

    :meth:`run` takes a plain callback that sees every protocol event,
    inside the transport's read turn, after the driver did its own part.
    The consumer answers a request with ``conn.send_headers`` +
    ``writer.enqueue``: from the callback, and the transport pumps the
    writer at the end of the turn, so the turn's one flush carries the
    HEADERS, the DATA and any frames fresh credit resumed; or from a
    :meth:`spawn`-ed per-stream task, then :meth:`wake` for the same pump
    on the next loop turn. One scheduler, two triggers.
    """

    def __init__(self, transport: AsyncH2Transport, registry: MetricsRegistry | None = None) -> None:
        self.conn = transport.conn
        self.transport = transport
        self.writer = transport.writer = ConnectionWriter(self.conn, registry=registry)
        #: The peer sent GOAWAY (or was cut off for abuse) or a drain
        #: began: the consumer should take no new streams.
        self.draining = False
        self._tasks: set[asyncio.Task] = set()
        self._on_event: Callable[[Event], None] | None = None

    @property
    def inflight(self) -> int:
        """Per-stream tasks that have not finished yet."""
        return len(self._tasks)

    @property
    def closed(self) -> bool:
        return self.transport.closed.is_set()

    def spawn(self, coro: Coroutine) -> None:
        """Run one stream's handler as its own task; :meth:`drain` waits for it."""
        task = asyncio.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def wake(self) -> None:
        """A body was queued outside a read turn: pump on the next loop turn."""
        self.transport.wake()

    async def run(self, on_event: Callable[[Event], None]) -> None:
        """Handshake, serve until the peer goes away, drain, close."""
        self._on_event = on_event
        self.conn.initiate_connection()
        self.transport.flush()
        try:
            await self.transport.run(self._dispatch)
            await self.drain()
        finally:
            await self.close()
            # Drop the consumer's bound method: no reference cycle, so the
            # connection's state is freed when it ends, not at the next GC.
            self._on_event = None

    def _dispatch(self, event: Event) -> None:
        # Fresh credit (WINDOW_UPDATE, SETTINGS), a reset stream and a
        # promotion need no wake: the pump that ends this turn resumes the
        # parked stream, drops the reset one's queue and serves in the new
        # order.
        if isinstance(event, DataReceived):
            if event.flow_controlled_length > 0:
                self.conn.acknowledge_received_data(event.flow_controlled_length, event.stream_id)
        elif isinstance(event, PriorityUpdated):
            self.writer.reprioritize(event.stream_id, event.urgency, event.incremental)
        elif isinstance(event, (ConnectionTerminated, AbuseDetected)):
            self.draining = True
        self._on_event(event)

    async def drain(self, timeout_s: float = 30.0) -> None:
        """Graceful close: finish in-flight streams, flush queued bytes."""
        self.draining = True
        pending = {task for task in self._tasks if not task.done()}
        if pending:
            _done, still_pending = await asyncio.wait(pending, timeout=timeout_s)
            for task in still_pending:
                task.cancel()
        # Give the writer a last chance to move whatever credit allows.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while not self.writer.idle:
            wrote = self.writer.pump()
            await self.transport.flush()
            if wrote == 0 or loop.time() >= deadline:
                break
        await self.transport.flush()

    async def shutdown(self, timeout_s: float = 30.0) -> None:
        """Server-initiated graceful close: :meth:`drain`, then close the
        socket — which ends the read side so :meth:`run` returns."""
        await self.drain(timeout_s)
        await self.close()

    async def close(self) -> None:
        await self.transport.close()
        # A response still queued must not leave its wide event open.
        self.writer.abort_pending()


@dataclass
class H2Response:
    """One completed exchange on a :class:`ClientConnection`."""

    status: int = 0
    headers: HeaderList = field(default_factory=list)
    body: bytes = b""
    #: Bodies the server pushed against this request (path → bytes).
    pushed: dict[str, bytes] = field(default_factory=dict)


@dataclass
class _Exchange:
    """Receive state of one stream: a request, or a push promised on one."""

    future: asyncio.Future | None = None
    #: The request a push was promised on, and the push's ``:path``.
    owner: "_Exchange | None" = None
    path: str = ""
    response: H2Response = field(default_factory=H2Response)
    body: bytearray = field(default_factory=bytearray)
    #: A request's own stream plus its unfinished pushes.
    open_streams: int = 1


class ClientConnection:
    """One persistent multiplexed client connection: ``open → settled →
    request … → close``.

    Each request resolves its own future with an :class:`H2Response` once
    the response and every push promised on it have ended, or fails with
    ``ConnectionError`` when the stream is reset or the connection dies.
    All methods are loop-confined.
    """

    def __init__(self, transport: AsyncH2Transport, authority: str) -> None:
        self.conn = transport.conn
        self.transport = transport
        self.authority = authority
        #: Request bodies go out within flow-control credit, like responses;
        #: the transport pumps it when fresh credit arrives.
        self._writer = transport.writer = ConnectionWriter(self.conn)
        self._exchanges: dict[int, _Exchange] = {}
        self._settled: asyncio.Future = asyncio.get_running_loop().create_future()
        #: The handshake's two halves: our SETTINGS acknowledged, and the
        #: peer's first SETTINGS (GenAbilityNegotiated fires on it whatever
        #: the peer advertised).
        self._handshake_pending = {SettingsAcknowledged, GenAbilityNegotiated}
        transport.run(self._on_event).add_done_callback(self._ended)

    @classmethod
    async def open(cls, host: str, port: int, conn: H2Connection, authority: str | None = None) -> "ClientConnection":
        """Dial, send the preface and start reading."""
        transport = await open_tcp_pair(host, port, conn)
        return cls(transport, authority if authority is not None else host)

    @property
    def closed(self) -> bool:
        return self.transport.closed.is_set()

    async def settled(self, timeout_s: float = HANDSHAKE_TIMEOUT_S) -> None:
        """Wait for the settings exchange (§5.2: no request leaves before
        the server's SETTINGS and its ACK of ours arrived)."""
        try:
            await asyncio.wait_for(self._settled, timeout_s)
        except asyncio.TimeoutError:
            await self.close()
            raise ConnectionError("HTTP/2 handshake timed out") from None

    def submit(self, headers: HeaderList, body: bytes | None = None) -> asyncio.Future:
        """Open a request stream; the caller :meth:`flush`-es (once, for a
        batch of submits) and awaits the returned future. No await sits
        between stream-id allocation and HEADERS, so concurrent callers
        cannot interleave ids."""
        if self.closed:
            raise ConnectionError("connection closed")
        stream_id = self.conn.get_next_available_stream_id()
        exchange = self._exchanges[stream_id] = _Exchange(asyncio.get_running_loop().create_future())
        self.conn.send_headers(stream_id, headers, end_stream=body is None)
        if body is not None:
            self._writer.enqueue(stream_id, body, end_stream=True)
        return exchange.future

    async def flush(self) -> None:
        await self.transport.end_turn()

    async def request(
        self, method: str, path: str, headers: Iterable[tuple[bytes, bytes]] = (), body: bytes | None = None
    ) -> H2Response:
        """One exchange, start to finish."""
        pseudo = [
            (b":method", method.encode("ascii")),
            (b":path", path.encode("utf-8")),
            (b":scheme", b"https"),
            (b":authority", self.authority.encode("utf-8")),
        ]
        future = self.submit([*pseudo, *headers], body)
        await self.flush()
        return await future

    async def close(self) -> None:
        self._fail_all(ConnectionError("connection closed"))
        await self.transport.close()

    def _ended(self, ended: asyncio.Future) -> None:
        """The read side is over: fail every waiter and close the socket."""
        error = ConnectionError("connection closed by the peer")
        exc = ended.exception()
        if exc is not None:  # engine or socket error: report it to every waiter
            error = ConnectionError(f"connection failed: {type(exc).__name__}: {exc}")
            error.__cause__ = exc
        self._fail_all(error)
        self.transport.close()

    def _fail_all(self, error: ConnectionError) -> None:
        exchanges, self._exchanges = self._exchanges, {}
        self._writer.abort_pending()
        for waiter in (self._settled, *((x.owner or x).future for x in exchanges.values())):
            if not waiter.done():
                waiter.set_exception(error)

    def _on_event(self, event: Event) -> None:
        if isinstance(event, DataReceived):
            exchange = self._exchanges.get(event.stream_id)
            if exchange is not None:
                exchange.body += event.data
            if event.flow_controlled_length > 0:
                self.conn.acknowledge_received_data(event.flow_controlled_length, event.stream_id)
        elif isinstance(event, ResponseReceived):
            exchange = self._exchanges.get(event.stream_id)
            if exchange is not None and exchange.owner is None:
                exchange.response.headers = event.headers
                exchange.response.status = int(dict(event.headers).get(b":status", b"0"))
        elif isinstance(event, (StreamEnded, StreamReset)):
            self._stream_over(event.stream_id, reset=isinstance(event, StreamReset))
        elif isinstance(event, PushPromiseReceived):
            owner = self._exchanges.get(event.stream_id)
            if owner is not None:
                owner.open_streams += 1
                path = dict(event.headers).get(b":path", b"").decode("utf-8", "replace")
                self._exchanges[event.promised_stream_id] = _Exchange(owner=owner, path=path)
        elif isinstance(event, (SettingsAcknowledged, GenAbilityNegotiated)):
            self._handshake_pending.discard(type(event))
            if not self._handshake_pending and not self._settled.done():
                self._settled.set_result(None)
        elif isinstance(event, ConnectionTerminated):
            self._fail_all(ConnectionError(f"peer sent GOAWAY (error code {int(event.error_code)})"))
            self.transport.closed.set()  # closes the socket at the end of this turn

    def _stream_over(self, stream_id: int, reset: bool) -> None:
        exchange = self._exchanges.pop(stream_id, None)
        if exchange is None:
            return
        owner = exchange.owner or exchange
        if owner.future.done():
            return
        if exchange is not owner:
            if not reset:
                owner.response.pushed[exchange.path] = bytes(exchange.body)
        elif reset:
            owner.future.set_exception(ConnectionError(f"peer reset stream {stream_id}"))
            return
        else:
            owner.response.body = bytes(exchange.body)
        owner.open_streams -= 1
        if owner.open_streams == 0:
            owner.future.set_result(owner.response)
