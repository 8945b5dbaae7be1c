"""Tests for HTTP/2 server push of generated assets (RFC 9113 §8.4)."""

import asyncio

import pytest

from repro.devices import LAPTOP
from repro.http2.connection import H2Connection, ProtocolError, PushPromiseReceived, Role
from repro.http2.settings import Setting
from repro.http2.transport import InMemoryTransportPair
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.workloads import build_travel_blog


def make_pushing_server(**kwargs) -> GenerativeServer:
    page = build_travel_blog()
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    return GenerativeServer(store, push_assets=True, **kwargs)


class TestEnginePush:
    def test_push_stream_roundtrip(self):
        client = H2Connection(Role.CLIENT)
        server = H2Connection(Role.SERVER)
        pair = InMemoryTransportPair(client, server)
        pair.handshake()
        sid = client.get_next_available_stream_id()
        client.send_headers(sid, [(b":method", b"GET"), (b":path", b"/page")], end_stream=True)
        pair.pump()
        pair.server.take_events()
        promised = server.promise_stream(
            sid,
            [(b":method", b"GET"), (b":path", b"/asset.png")],
            [(b":status", b"200")],
        )
        server.send_data(promised, b"pushed-bytes", end_stream=True)
        assert promised % 2 == 0  # server-initiated streams are even
        pair.pump()
        promises = pair.client.take_events(PushPromiseReceived)
        assert len(promises) == 1
        assert dict(promises[0].headers)[b":path"] == b"/asset.png"
        from repro.http2.connection import DataReceived

        data = [e for e in pair.client.take_events(DataReceived) if e.stream_id == promised]
        assert b"".join(e.data for e in data) == b"pushed-bytes"

    def test_client_cannot_push(self):
        client = H2Connection(Role.CLIENT)
        with pytest.raises(ProtocolError):
            client.promise_stream(1, [], [])

    def test_push_disabled_by_settings(self):
        client = H2Connection(Role.CLIENT)
        server = H2Connection(Role.SERVER)
        pair = InMemoryTransportPair(client, server)
        pair.handshake()
        client.update_settings({Setting.ENABLE_PUSH: 0})
        pair.pump()
        sid = client.get_next_available_stream_id()
        client.send_headers(sid, [(b":method", b"GET"), (b":path", b"/p")], end_stream=True)
        pair.pump()
        with pytest.raises(ProtocolError):
            server.promise_stream(sid, [(b":method", b"GET")], [(b":status", b"200")])

    def test_push_against_unknown_stream_rejected(self):
        server = H2Connection(Role.SERVER)
        server.peer_settings.update({Setting.ENABLE_PUSH: 1})
        with pytest.raises(ProtocolError):
            server.promise_stream(99, [], [])


class TestSwwPush:
    def test_naive_client_receives_pushed_media(self):
        """A capable server pushes what it generated, saving the naive
        client a round of follow-up GETs."""
        server = make_pushing_server()
        client = GenerativeClient(device=LAPTOP, gen_ability=False)
        pair = connect_in_memory(client, server)
        result = client.fetch_via_pair(pair, "/blog/ridgeline-hike")
        assert not result.sww_mode
        assert len(result.pushed_assets) == 3  # the three stock images
        assert all(p.startswith("/generated/") for p in result.pushed_assets)
        assert all(b.startswith(b"\x89PNG") for b in result.pushed_assets.values())

    @pytest.mark.parametrize("memoise_pages", [True, False])
    # The "-True" in the ids is the column that used to pick the dispatcher;
    # there is one now, and the ids stay so recorded results line up.
    @pytest.mark.parametrize("transport", ["memory", "tcp"], ids=["memory-True", "tcp-True"])
    def test_push_does_not_depend_on_the_page_memo(self, memoise_pages, transport):
        """The session pushes what this response materialised, not what the
        server's page memo happens to hold (--push with --no-page-memo)."""
        server = make_pushing_server(memoise_pages=memoise_pages)
        client = GenerativeClient(device=LAPTOP, gen_ability=False)
        path = "/blog/ridgeline-hike"
        if transport == "memory":
            results = [client.fetch_via_pair(connect_in_memory(client, server), path) for _ in range(2)]
        else:

            async def fetch_twice():
                listener = await server.serve_forever("127.0.0.1", 0)
                port = listener.sockets[0].getsockname()[1]
                try:
                    return [await client.fetch_tcp("127.0.0.1", port, path) for _ in range(2)]
                finally:
                    listener.close()
                    await listener.wait_closed()

            results = asyncio.run(fetch_twice())
        first, second = (result.pushed_assets for result in results)
        assert len(first) == 3 and all(b.startswith(b"\x89PNG") for b in first.values())
        assert second == first  # memo hit or fresh materialisation: same media

    def test_pushed_assets_not_refetched(self):
        server = make_pushing_server()
        client = GenerativeClient(device=LAPTOP, gen_ability=False)
        pair = connect_in_memory(client, server)
        result = client.fetch_via_pair(pair, "/blog/ridgeline-hike")
        fetched = client.fetch_assets_via_pair(pair, result)
        assert not any(p.startswith("/generated/") for p in fetched)

    def test_capable_client_gets_no_push(self):
        """SWW-negotiated exchanges ship prompts — nothing to push."""
        server = make_pushing_server()
        client = GenerativeClient(device=LAPTOP, gen_ability=True)
        pair = connect_in_memory(client, server)
        result = client.fetch_via_pair(pair, "/blog/ridgeline-hike")
        assert result.sww_mode
        assert result.pushed_assets == {}

    def test_push_disabled_server_default(self):
        page = build_travel_blog()
        store = SiteStore()
        store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
        server = GenerativeServer(store)  # push_assets defaults off
        client = GenerativeClient(device=LAPTOP, gen_ability=False)
        pair = connect_in_memory(client, server)
        result = client.fetch_via_pair(pair, "/blog/ridgeline-hike")
        assert result.pushed_assets == {}
