"""Transports for the sans-io HTTP/2 engine.

* :class:`InMemoryTransportPair` — two bare engines joined by byte
  queues, for the suites that test the engine itself. No event loop:
  ``pump()`` shuttles pending bytes between them until quiescent.
* :class:`AsyncH2Transport` — an engine bound to an asyncio stream pair:
  a socket (:func:`open_tcp_pair`) or :func:`memory_stream_pair`. The
  drivers in :mod:`repro.http2.endpoint` run over either, so an in-process
  fetch takes a socket's code path; :func:`thread_loop` gives synchronous
  callers one loop per thread to run them on.
"""

from __future__ import annotations

import asyncio
import os
import threading
import weakref
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
        raise RuntimeError("transport did not quiesce; possible ACK loop")

    def handshake(self) -> None:
        """Run both endpoints' connection setup and settle the exchange."""
        self.client.conn.initiate_connection()
        self.server.conn.initiate_connection()
        self.pump()


class AsyncH2Transport:
    """Binds an H2Connection to an asyncio stream pair.

    The transport owns the read loop: :meth:`run` reads from the socket,
    feeds the engine, dispatches events to the ``handler`` coroutine (one
    call per event) and ends each read turn with one :meth:`flush`, so
    whatever the handlers queued leaves in one socket write. Writers
    outside a read turn call engine methods then :meth:`flush`. Socket
    backpressure is the asyncio native kind — :meth:`flush` awaits
    ``drain()``, so a slow peer suspends the flushing task instead of
    ballooning the outbound buffer. The engine's ``tally`` counts the
    socket reads and writes. Who flushes when, and everything else about a
    connection's lifetime, belongs to :mod:`repro.http2.endpoint`.
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
            self.conn.tally.writes += 1
            self.writer.write(data)
            await self.writer.drain()

    async def run(self, handler, close_on_exit: bool = True, before_flush=None) -> None:
        """Read loop: feed bytes to the engine, dispatch events to handler.

        ``before_flush``, when given, is called after a read's events are
        dispatched and before that turn's one flush, so what the turn
        queued leaves with it. With ``close_on_exit=False`` the socket is
        left open when the peer half-closes or the loop stops, so the
        owner can drain in-flight responses first and call :meth:`close`
        itself.
        """
        tally = self.conn.tally
        try:
            while not self.closed.is_set():
                data = await self.reader.read(65536)
                if not data:
                    break
                tally.reads += 1
                for event in self.conn.receive_data(data):
                    await handler(event)
                if before_flush is not None:
                    before_flush()
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


async def open_transport(conn: H2Connection, reader: asyncio.StreamReader, writer) -> AsyncH2Transport:
    """Wrap a connected stream pair with the given engine and send the
    client preface."""
    transport = AsyncH2Transport(conn, reader, writer)
    conn.initiate_connection()
    await transport.flush()
    return transport


async def open_tcp_pair(host: str, port: int, conn: H2Connection) -> AsyncH2Transport:
    """Dial a TCP connection and wrap it with the given engine."""
    reader, writer = await asyncio.open_connection(host, port)
    return await open_transport(conn, reader, writer)


class _MemoryWriter:
    """One end's write half: the part of ``asyncio.StreamWriter`` the
    drivers use, feeding the peer's reader."""

    def __init__(self, peer: asyncio.StreamReader) -> None:
        self._peer = peer
        self._closed = False

    def write(self, data: bytes) -> None:
        if not self._closed:
            self._peer.feed_data(data)

    async def drain(self) -> None:
        """Nothing to wait for: the peer's reader buffers without bound."""

    def close(self) -> None:
        self._closed = True
        self._peer.feed_eof()

    async def wait_closed(self) -> None:
        pass


def memory_stream_pair() -> tuple[tuple[asyncio.StreamReader, _MemoryWriter], ...]:
    """Two connected ``(reader, writer)`` ends with no socket between them:
    each end's writer feeds the other end's ``asyncio.StreamReader``, and
    closing it is the peer's EOF. Call from a coroutine on the loop that
    will drive both ends."""
    a, b = asyncio.StreamReader(), asyncio.StreamReader()
    return (a, _MemoryWriter(b)), (b, _MemoryWriter(a))


class _ThreadLoop:
    """Only the thread's locals hold this, so the finalizer shuts the loop
    down when the thread ends (at exit, for the main thread)."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.pid = os.getpid()
        weakref.finalize(self, _shutdown, self.loop, self.pid)


def _shutdown(loop: asyncio.AbstractEventLoop, pid: int) -> None:
    """``asyncio.run``'s teardown: run what is scheduled, cancel and unwind
    the rest, close (only close, in a forked child: the selector is shared)."""
    if os.getpid() == pid:
        loop.run_until_complete(asyncio.sleep(0))
        tasks = asyncio.all_tasks(loop)
        for task in tasks:
            task.cancel()
        if tasks:
            loop.run_until_complete(asyncio.wait(tasks))
    loop.close()


_threads = threading.local()


def thread_loop() -> asyncio.AbstractEventLoop:
    """This thread's loop for running asyncio code synchronously, made on
    first use and reused like the PNG encode pool: one selector and one
    executor per thread, not per call. It is never the thread's current
    event loop, so ``asyncio.run`` beside it is unaffected."""
    holder = getattr(_threads, "holder", None)
    if holder is None or holder.pid != os.getpid():
        holder = _threads.holder = _ThreadLoop()
    return holder.loop
