"""Transports for the sans-io HTTP/2 engine.

* :class:`InMemoryTransportPair` — two bare engines joined by byte
  queues, for the suites that test the engine itself. No event loop:
  ``pump()`` shuttles pending bytes between them until quiescent.
* :class:`AsyncH2Transport` — an engine as an :class:`asyncio.Protocol`
  on a socket (:func:`listen`, :func:`serve_socket`, :func:`open_tcp_pair`)
  or on :func:`open_memory_pair`, which reads like a socket. The drivers
  in :mod:`repro.http2.endpoint` run over either, so an in-process fetch
  takes a socket's code path; :func:`thread_loop` gives synchronous
  callers one loop per thread to run them on.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import os
import socket
import threading
import weakref
from collections.abc import Callable, Coroutine
from dataclasses import dataclass, field

from repro.http2.connection import Event, H2Connection
from repro.http2.writer import ConnectionWriter


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


class AsyncH2Transport(asyncio.Protocol):
    """One engine bound to one connection, as an asyncio protocol.

    A read turn is one :meth:`data_received` call: the engine parses the
    bytes, the handler gets each event synchronously, and :meth:`end_turn`
    pumps the owner's :attr:`writer` and sends what the turn queued in one
    :meth:`flush`. Outside a read turn, :meth:`wake` runs :meth:`end_turn`
    on the next loop turn. While the socket pushes back (``pause_writing``)
    the writer is not pumped and :meth:`flush` returns a pending awaitable.
    The engine's ``tally`` counts reads and writes.
    """

    #: The owner's scheduler, pumped at the end of every turn; None for a
    #: consumer that sends through the engine alone.
    writer: ConnectionWriter | None = None

    def __init__(self, conn: H2Connection) -> None:
        self._loop = loop = asyncio.get_running_loop()
        self.conn = conn
        #: Set once the connection is closed, or by a handler that wants it
        #: closed at the end of its turn (a GOAWAY from the peer).
        self.closed = asyncio.Event()
        self._transport: asyncio.Transport | None = None
        self._handler: Callable[[Event], None] | None = None
        #: Bytes read before :meth:`run` bound a handler.
        self._unread = b""
        self._woken = False
        #: Done unless the socket paused writing.
        self._writable = loop.create_future()
        self._writable.set_result(None)
        #: The read side's end: the peer's EOF, a close, or what broke it.
        self._ended = loop.create_future()
        self._lost = loop.create_future()

    def run(self, handler: Callable) -> asyncio.Future:
        """Dispatch every read's events to ``handler`` from now on, starting
        with what arrived before. The returned future resolves when the
        read side ends and raises what broke the connection, if anything.
        A coroutine handler must not suspend: it runs to completion inside
        the read turn."""
        if inspect.iscoroutinefunction(handler):
            handler = functools.partial(_run_inline, handler)
        self._handler = handler
        unread, self._unread = self._unread, b""
        if unread:
            self.data_received(unread)
        return _awaitable(self._ended)

    def flush(self) -> asyncio.Future:
        """Write what the engine queued, in one write (none before a socket
        is bound or once it is closing); the awaitable is done unless the
        socket paused writing."""
        transport = self._transport
        if transport is not None and not transport.is_closing():
            data = self.conn.data_to_send()
            if data:
                self.conn.tally.writes += 1
                transport.write(data)
        return _awaitable(self._writable)

    def end_turn(self) -> asyncio.Future:
        """Pump the owner's writer, unless the socket pushed back, then
        :meth:`flush`: what every read turn ends with."""
        writer = self.writer
        if writer is not None and not writer.idle and self._writable.done():
            writer.pump()
        return self.flush()

    def wake(self) -> None:
        """:meth:`end_turn` on the next loop turn, once however often asked."""
        if not self._woken:
            self._woken = True
            self._loop.call_soon(self._on_wake)

    def close(self) -> asyncio.Future:
        """Close the connection (what is buffered still goes out first); the
        awaitable is done once the socket is closed."""
        self.closed.set()
        self._end(None)
        self._transport.close()
        return _awaitable(self._lost)

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport
        self.flush()

    def data_received(self, data: bytes) -> None:
        if self._handler is None:
            self._unread += data
            return
        self.conn.tally.reads += 1
        try:
            for event in self.conn.receive_data(data):
                self._handler(event)
            self.end_turn()
        except Exception as exc:  # engine or handler error: it ends the connection
            self._end(exc)
            self.closed.set()
        if self.closed.is_set():
            self.close()

    def eof_received(self) -> bool:
        self._end(None)
        return True  # keep the write half open: the owner drains, then closes

    def connection_lost(self, exc: Exception | None) -> None:
        self.closed.set()
        # No cycle through the owner's bound method outlives the connection.
        self._handler = None
        if not self._writable.done():
            self._writable.set_result(None)
        self._lost.set_result(None)
        self._end(exc)

    def pause_writing(self) -> None:
        self._writable = self._loop.create_future()

    def resume_writing(self) -> None:
        self._writable.set_result(None)
        self.wake()

    def _on_wake(self) -> None:
        self._woken = False
        if not self.closed.is_set():
            self.end_turn()

    def _end(self, exc: Exception | None) -> None:
        if not self._ended.done():
            if exc is None:
                self._ended.set_result(None)
            else:
                self._ended.set_exception(exc)


def _awaitable(future: asyncio.Future) -> asyncio.Future:
    """``future``, shielded while pending: a cancelled awaiter must not
    cancel it for the others."""
    return future if future.done() else asyncio.shield(future)


def _run_inline(handler: Callable[[Event], Coroutine], event: Event) -> None:
    """One call of a coroutine handler, run to completion on the spot."""
    try:
        handler(event).send(None)
    except StopIteration:
        return
    raise RuntimeError(f"{handler.__qualname__} suspended inside a read turn")


#: ``asyncio.start_server``'s callback, over a transport.
Serve = Callable[[AsyncH2Transport], Coroutine]


async def listen(
    new_conn: Callable[[], H2Connection], serve: Serve, host: str = "127.0.0.1", port: int = 0, sock=None
) -> asyncio.Server:
    """Listen on ``host:port``, or on the bound ``sock``: each accepted
    connection gets an engine from ``new_conn``, a transport, and a task
    running ``serve(transport)``."""
    loop = asyncio.get_running_loop()
    serving: set[asyncio.Task] = set()

    def accept() -> AsyncH2Transport:
        transport = AsyncH2Transport(new_conn())
        task = loop.create_task(serve(transport))
        serving.add(task)
        task.add_done_callback(serving.discard)
        return transport

    if sock is not None:
        return await loop.create_server(accept, sock=sock)
    return await loop.create_server(accept, host, port)


async def serve_socket(sock: socket.socket, new_conn: Callable[[], H2Connection], serve: Serve) -> None:
    """Run ``serve`` on the already accepted ``sock``, on the calling task."""
    transport = AsyncH2Transport(new_conn())
    await asyncio.get_running_loop().connect_accepted_socket(lambda: transport, sock)
    await serve(transport)


async def open_tcp_pair(host: str, port: int, conn: H2Connection) -> AsyncH2Transport:
    """Dial ``host:port``, bind ``conn`` to the socket, send the preface."""
    loop = asyncio.get_running_loop()
    _, transport = await loop.create_connection(lambda: AsyncH2Transport(conn), host, port)
    conn.initiate_connection()
    transport.flush()
    return transport


class _MemoryTransport(asyncio.Transport):
    """One end of an in-memory connection. A turn's first write schedules
    one delivery of all that is written until it runs, as one
    ``data_received`` on the peer: a write made inside a read is read on a
    later turn, never re-entrantly. Closing is the peer's EOF."""

    def __init__(self, protocol: AsyncH2Transport) -> None:
        super().__init__()
        self._protocol = protocol
        self.peer: _MemoryTransport | None = None
        self._outbox: list[bytes] = []
        self._closing = False

    def write(self, data: bytes) -> None:
        if self._closing:
            return
        if not self._outbox:
            self._protocol._loop.call_soon(self._deliver)
        self._outbox.append(data)

    def is_closing(self) -> bool:
        return self._closing

    def close(self) -> None:
        if not self._closing:
            self._closing = True
            self._protocol._loop.call_soon(self._shut)

    def _deliver(self) -> None:
        data = b"".join(self._outbox)
        self._outbox.clear()
        if not self.peer._closing:
            self.peer._protocol.data_received(data)

    def _shut(self) -> None:
        self._protocol.connection_lost(None)
        if not self.peer._closing:
            self.peer._protocol.eof_received()
        self._protocol = self.peer = None


def open_memory_pair(client: H2Connection, server: H2Connection) -> tuple[AsyncH2Transport, AsyncH2Transport]:
    """Join two engines with no socket between them: the client's and the
    server's transport, the client preface sent as by :func:`open_tcp_pair`.
    Call on the loop that will drive both ends."""
    ends = AsyncH2Transport(client), AsyncH2Transport(server)
    wires = _MemoryTransport(ends[0]), _MemoryTransport(ends[1])
    wires[0].peer, wires[1].peer = wires[1], wires[0]
    for end, wire in zip(ends, wires):
        end.connection_made(wire)
    client.initiate_connection()
    ends[0].flush()
    return ends


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
