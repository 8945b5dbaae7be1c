"""A respond-only HTTP/2 server for the cache tier and the admin plane.

Both need the same small thing: aggregate each request stream's headers
and body, call an async handler once the stream ends, ship what it
returns. The connection itself — handshake, credit return, the writer,
drain and close — is the shared
:class:`~repro.http2.endpoint.ServerConnection` driver; what is left here
is request-body aggregation and the handler→500 guard.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

from repro.http2.connection import (
    DataReceived,
    Event,
    H2Connection,
    RequestReceived,
    Role,
    StreamEnded,
    StreamReset,
)
from repro.http2.endpoint import ServerConnection
from repro.http2.errors import H2Error
from repro.http2.transport import AsyncH2Transport, listen

logger = logging.getLogger("repro.serving.h2util")


@dataclass
class MiniRequest:
    """One fully received request stream."""

    method: str
    path: str
    authority: str
    body: bytes
    stream_id: int
    #: The request's header block as received, pseudo-headers included.
    headers: list[tuple[bytes, bytes]] = field(default_factory=list)


@dataclass
class MiniResponse:
    """What a handler returns; rendered to HEADERS + DATA."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    #: Extra response headers beyond status/content-type/length.
    headers: list[tuple[bytes, bytes]] = field(default_factory=list)

    def header_list(self) -> list[tuple[bytes, bytes]]:
        return [
            (b":status", str(self.status).encode()),
            (b"content-type", self.content_type.encode()),
            (b"content-length", str(len(self.body)).encode()),
            *self.headers,
        ]


class MiniH2Server:
    """Respond-only HTTP/2 server: one async handler, no content store.

    ``handler`` is ``async (MiniRequest) -> MiniResponse``; it runs on
    the event loop (handlers must be cheap or await). Exceptions become
    500s so one bad request never kills the connection.
    """

    def __init__(self, handler, registry=None) -> None:
        self.handler = handler
        self.registry = registry

    async def serve(self, sock=None, host: str = "127.0.0.1", port: int = 0):
        """Start listening; pass ``sock`` to adopt a pre-bound socket."""
        new_conn = functools.partial(H2Connection, Role.SERVER, gen_ability=False, registry=self.registry)
        return await listen(new_conn, self.handle_connection, host, port, sock)

    async def handle_connection(self, transport: AsyncH2Transport) -> None:
        conn = transport.conn
        driver = ServerConnection(transport)
        #: Requests still receiving their body (a bytearray until the
        #: stream ends, so aggregation stays linear).
        receiving: dict[int, MiniRequest] = {}

        async def respond(request: MiniRequest) -> None:
            try:
                response = await self.handler(request)
            except Exception:
                logger.exception("handler failed for %s %s", request.method, request.path)
                response = MiniResponse(
                    status=500, body=b"handler error", content_type="text/plain"
                )
            if driver.closed:
                return
            try:
                conn.send_headers(request.stream_id, response.header_list())
                driver.writer.enqueue(request.stream_id, response.body, end_stream=True)
            except H2Error:
                logger.warning("stream %d died under its response", request.stream_id)
                return
            driver.wake()

        def on_event(event: Event) -> None:
            if isinstance(event, RequestReceived):
                headers = dict(event.headers)
                receiving[event.stream_id] = MiniRequest(
                    method=headers.get(b":method", b"GET").decode("utf-8", "replace"),
                    path=headers.get(b":path", b"/").decode("utf-8", "replace"),
                    authority=headers.get(b":authority", b"").decode("utf-8", "replace"),
                    body=bytearray(),
                    stream_id=event.stream_id,
                    headers=event.headers,
                )
            elif isinstance(event, DataReceived):
                request = receiving.get(event.stream_id)
                if request is not None:
                    request.body += event.data
            elif isinstance(event, StreamEnded):
                request = receiving.pop(event.stream_id, None)
                if request is not None:
                    request.body = bytes(request.body)
                    driver.spawn(respond(request))
            elif isinstance(event, StreamReset):
                receiving.pop(event.stream_id, None)

        await driver.run(on_event)
