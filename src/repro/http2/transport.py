"""Transports for the sans-io HTTP/2 engine.

Two flavours:

* :class:`InMemoryTransportPair` — a zero-copy duplex pipe for tests and
  benchmarks. Deterministic, no event loop required: calling ``pump()``
  shuttles pending bytes between the two endpoints until quiescent.
* :func:`open_tcp_pair` / :class:`AsyncH2Transport` — asyncio TCP, used by
  the generative server/client in :mod:`repro.sww` to demonstrate the full
  stack over a real socket.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.http2.connection import Event, H2Connection


@dataclass
class Endpoint:
    """One side of an in-memory connection: engine plus its event log."""

    conn: H2Connection
    events: list[Event] = field(default_factory=list)

    def take_events(self, event_type: type | None = None) -> list[Event]:
        """Remove and return buffered events (optionally filtered by type)."""
        if event_type is None:
            out, self.events = self.events, []
            return out
        out = [e for e in self.events if isinstance(e, event_type)]
        self.events = [e for e in self.events if not isinstance(e, event_type)]
        return out


class InMemoryTransportPair:
    """Connects two H2Connection engines through in-memory byte queues."""

    def __init__(self, client: H2Connection, server: H2Connection) -> None:
        self.client = Endpoint(client)
        self.server = Endpoint(server)

    def pump(self, max_rounds: int = 100) -> None:
        """Shuttle bytes both ways until neither side has output pending.

        ``max_rounds`` bounds pathological ping-pong (e.g. a bug that makes
        both sides ACK each other forever).
        """
        rounds = 0
        try:
            for _ in range(max_rounds):
                moved = False
                out = self.client.conn.data_to_send()
                if out:
                    self.server.events.extend(self.server.conn.receive_data(out))
                    moved = True
                back = self.server.conn.data_to_send()
                if back:
                    self.client.events.extend(self.client.conn.receive_data(back))
                    moved = True
                if not moved:
                    return
                rounds += 1
            raise RuntimeError("transport did not quiesce; possible ACK loop")
        finally:
            registry = getattr(self.client.conn, "registry", None)
            if registry is not None and registry.enabled and rounds:
                registry.counter(
                    "http2_transport_pump_rounds_total",
                    "In-memory transport shuttle rounds",
                    layer="http2",
                    operation="pump",
                ).inc(rounds)

    def handshake(self) -> None:
        """Run both endpoints' connection setup and settle the exchange."""
        self.client.conn.initiate_connection()
        self.server.conn.initiate_connection()
        self.pump()


class AsyncH2Transport:
    """Binds an H2Connection to an asyncio stream pair.

    The transport owns the read loop: :meth:`run` reads from the socket,
    feeds the engine and dispatches events to the ``handler`` coroutine
    (one call per event). Writers call engine methods then :meth:`flush`.
    Socket backpressure is the asyncio native kind — :meth:`flush` awaits
    ``drain()``, so a slow peer suspends the flushing task instead of
    ballooning the outbound buffer. Who flushes when, and everything else
    about a connection's lifetime, belongs to :mod:`repro.http2.endpoint`.
    """

    def __init__(
        self,
        conn: H2Connection,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.conn = conn
        self.reader = reader
        self.writer = writer
        self.closed = asyncio.Event()

    async def flush(self) -> None:
        data = self.conn.data_to_send()
        if data:
            registry = self.conn.registry
            if registry.enabled:
                registry.counter(
                    "http2_transport_io_total",
                    "Socket-level writes/reads performed by the async transport",
                    layer="http2",
                    operation="write",
                ).inc()
            self.writer.write(data)
            await self.writer.drain()

    async def run(self, handler, close_on_exit: bool = True) -> None:
        """Read loop: feed bytes to the engine, dispatch events to handler.

        With ``close_on_exit=False`` the socket is left open when the peer
        half-closes or the loop stops, so the owner can drain in-flight
        responses first and call :meth:`close` itself.
        """
        registry = self.conn.registry
        try:
            while not self.closed.is_set():
                data = await self.reader.read(65536)
                if not data:
                    break
                if registry.enabled:
                    registry.counter(
                        "http2_transport_io_total",
                        "Socket-level writes/reads performed by the async transport",
                        layer="http2",
                        operation="read",
                    ).inc()
                for event in self.conn.receive_data(data):
                    await handler(event)
                await self.flush()
        finally:
            if close_on_exit:
                await self.close()

    async def close(self) -> None:
        self.closed.set()
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def open_tcp_pair(host: str, port: int, conn: H2Connection) -> AsyncH2Transport:
    """Dial a TCP connection and wrap it with the given engine."""
    reader, writer = await asyncio.open_connection(host, port)
    transport = AsyncH2Transport(conn, reader, writer)
    conn.initiate_connection()
    await transport.flush()
    return transport
