"""The load generator's naive HTTP/2 client, built on the repo's own engine.

A naive client advertises no generation ability, so the server answers
with materialised media, as it would to a stock browser. It does nothing
a browser would not: one connection, many GET streams, and flow-control
credit handed back as DATA arrives (the same replenishment rule as
``GenerativeClient.fetch_tcp`` without BDP tuning).
"""

from __future__ import annotations

import asyncio
import time

from repro.http2 import H2Connection, open_tcp_pair
from repro.http2.connection import (
    ConnectionTerminated,
    DataReceived,
    ResponseReceived,
    Role,
    SettingsAcknowledged,
    StreamEnded,
    StreamReset,
)


class FetchError(RuntimeError):
    """A stream was reset or the connection ended under it."""


class _Stream:
    __slots__ = ("status", "body", "done")

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.status = 0
        self.body = bytearray()
        self.done: asyncio.Future = loop.create_future()


class RawConnection:
    """One persistent naive client connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        #: TCP connect → our SETTINGS acknowledged, in milliseconds.
        self.connect_ms = 0.0
        self._conn = H2Connection(Role.CLIENT, gen_ability=False)
        self._transport = None
        self._reader: asyncio.Task | None = None
        self._streams: dict[int, _Stream] = {}
        self._settled: asyncio.Future | None = None

    async def open(self, timeout_s: float = 10.0) -> "RawConnection":
        begin = time.perf_counter()
        self._settled = asyncio.get_running_loop().create_future()
        async with asyncio.timeout(timeout_s):
            self._transport = await open_tcp_pair(self.host, self.port, self._conn)
            self._reader = asyncio.create_task(self._read())
            await self._settled
        self.connect_ms = (time.perf_counter() - begin) * 1000.0
        return self

    async def _read(self) -> None:
        try:
            await self._transport.run(self._on_event)
            failure: BaseException = FetchError("connection closed by the server")
        except (ConnectionError, OSError) as exc:
            failure = exc
        # Whatever is still waiting when the socket ends has failed.
        for waiter in [self._settled] + [s.done for s in self._streams.values()]:
            if not waiter.done():
                waiter.set_exception(failure)

    async def _on_event(self, event) -> None:
        if isinstance(event, SettingsAcknowledged):
            if not self._settled.done():
                self._settled.set_result(None)
            return
        if isinstance(event, ConnectionTerminated):
            self._transport.closed.set()
            return
        stream = self._streams.get(event.stream_id)
        if stream is None:
            return
        if isinstance(event, ResponseReceived):
            stream.status = int(dict(event.headers).get(b":status", b"0"))
        elif isinstance(event, DataReceived):
            stream.body += event.data
            if event.flow_controlled_length > 0:
                conn = self._conn
                conn.increment_flow_control_window(event.flow_controlled_length)
                h2_stream = conn.streams.get(event.stream_id)
                if h2_stream is not None and not h2_stream.closed:
                    conn.increment_flow_control_window(
                        event.flow_controlled_length, event.stream_id
                    )
        elif isinstance(event, StreamEnded):
            if not stream.done.done():
                stream.done.set_result(None)
        elif isinstance(event, StreamReset):
            if not stream.done.done():
                stream.done.set_exception(FetchError(f"stream reset: {event.error_code!r}"))

    async def get(self, path: str) -> tuple[int, bytes]:
        """One GET on a new stream: ``(status, body)``."""
        conn = self._conn
        stream_id = conn.get_next_available_stream_id()
        stream = self._streams[stream_id] = _Stream(asyncio.get_running_loop())
        conn.send_headers(
            stream_id,
            [
                (b":method", b"GET"),
                (b":path", path.encode("utf-8")),
                (b":scheme", b"https"),
                (b":authority", self.host.encode("utf-8")),
                (b"user-agent", b"sww-bench-naive/1.0"),
            ],
            end_stream=True,
        )
        await self._transport.flush()
        try:
            await stream.done
        finally:
            del self._streams[stream_id]
        return stream.status, bytes(stream.body)

    async def close(self) -> None:
        if self._transport is not None:
            await self._transport.close()
        if self._reader is not None:
            self._reader.cancel()
            try:
                await self._reader
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass
