"""A server that dies mid-response must fail the client, not hang it.

Regression for the per-client loops: ``admin_fetch`` and ``fetch_tcp``
used to wait on a bare ``done`` event that only StreamEnded/StreamReset
ever set, so a peer that completed the handshake, took the request and
then went away left them waiting forever — and the ``sww top`` /
``stats --watch`` retry-with-backoff never got an exception to act on.
"""

import asyncio

import pytest

import repro.cli as cli
from repro import LAPTOP, GenerativeClient
from repro.http2.connection import H2Connection, RequestReceived, Role
from repro.http2.endpoint import ServerConnection
from repro.http2.transport import listen
from repro.serving.h2util import MiniH2Server, MiniResponse
from repro.sww.admin import admin_fetch


async def take_request_then_close(transport) -> None:
    """Complete the settings exchange, read one request, go away."""

    def on_event(event) -> None:
        if isinstance(event, RequestReceived):
            transport.closed.set()  # the socket closes at the end of this read

    await ServerConnection(transport).run(on_event)


def _against(serve, scenario):
    async def main():
        listener = await listen(lambda: H2Connection(Role.SERVER, gen_ability=True), serve)
        port = listener.sockets[0].getsockname()[1]
        try:
            return await scenario(port)
        finally:
            listener.close()
            await listener.wait_closed()

    return asyncio.run(main())


def test_fetch_tcp_raises_within_a_second():
    async def scenario(port):
        client = GenerativeClient(device=LAPTOP)
        with pytest.raises(ConnectionError):
            await asyncio.wait_for(client.fetch_tcp("127.0.0.1", port, "/page"), 1.0)

    _against(take_request_then_close, scenario)


def test_admin_fetch_raises_within_a_second():
    async def scenario(port):
        with pytest.raises(ConnectionError):
            await asyncio.wait_for(admin_fetch("127.0.0.1", port, "/healthz"), 1.0)

    _against(take_request_then_close, scenario)


def test_watch_retry_fires_and_recovers(capsys, monkeypatch):
    """The first poll's server dies under it; the watch loop's backoff
    retries and the second connection answers."""
    monkeypatch.setattr(cli, "WATCH_BACKOFF_S", 0.0)
    connections = []

    async def healthy(request):
        return MiniResponse(body=b"ok")

    async def flaky(transport):
        connections.append(transport)
        if len(connections) == 1:
            await take_request_then_close(transport)
        else:
            await MiniH2Server(healthy).handle_connection(transport)

    async def scenario(port):
        return await asyncio.wait_for(
            cli._watch_poll(
                lambda: admin_fetch("127.0.0.1", port, "/metrics"),
                "127.0.0.1",
                port,
                ever_connected=True,
            ),
            5.0,
        )

    assert _against(flaky, scenario) == (200, b"ok")
    assert len(connections) == 2
    assert capsys.readouterr().err.count("reconnecting to") == 1
