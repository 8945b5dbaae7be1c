"""The concurrent stream scheduler over real TCP.

Three properties of the PR-5 scheduler, end to end:

* the client's settings negotiation is race-free — no request leaves the
  socket before the server's SETTINGS (and its ACK of ours) arrived;
* N concurrent streams on one connection return pages byte-identical to
  one-at-a-time fetches against a fresh server, and to the sans-io request
  logic called directly (determinism extends from the batching layer all
  the way through the wire);
* responses interleave — a small page completes while a large response
  is still mid-stream, and multiplexed fetches all finish.
"""

import asyncio

from repro import (
    LAPTOP,
    GenerativeClient,
    GenerativeServer,
    PageResource,
    SiteStore,
    build_news_article,
    build_travel_blog,
)
from repro.http2.connection import H2Connection, RequestReceived, Role, StreamEnded


def build_site() -> SiteStore:
    store = SiteStore()
    for page in (build_travel_blog(), build_news_article()):
        store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    return store


class TestSettingsNegotiationRace:
    def test_no_request_before_server_settings(self):
        """Regression for the old `await asyncio.sleep(0)` negotiation: a
        server that withholds its SETTINGS for 150 ms must see ZERO request
        bytes during the delay. The fixed client waits for the real
        exchange (server SETTINGS + ACK) before sending HEADERS."""
        state = {"early_bytes": None}

        async def slow_settings_handler(reader, writer):
            conn = H2Connection(Role.SERVER, gen_ability=True)
            events = list(conn.receive_data(await reader.read(65536)))
            # Withhold our SETTINGS (and the buffered ACK): a racy client
            # would fire its request into this window.
            try:
                early = await asyncio.wait_for(reader.read(65536), timeout=0.15)
            except asyncio.TimeoutError:
                early = b""
            state["early_bytes"] = len(early)
            conn.initiate_connection()
            writer.write(conn.data_to_send())
            await writer.drain()
            if early:
                events.extend(conn.receive_data(early))
            try:
                while not any(isinstance(e, StreamEnded) for e in events):
                    data = await asyncio.wait_for(reader.read(65536), timeout=5)
                    if not data:
                        return
                    events.extend(conn.receive_data(data))
                    writer.write(conn.data_to_send())
                    await writer.drain()
                request = next(e for e in events if isinstance(e, RequestReceived))
                conn.send_headers(
                    request.stream_id,
                    [(b":status", b"200"), (b"content-type", b"text/html")],
                )
                conn.send_data(request.stream_id, b"<html><body>ok</body></html>", end_stream=True)
                writer.write(conn.data_to_send())
                await writer.drain()
                # Drain until the client closes its side.
                while await reader.read(65536):
                    pass
            except (asyncio.TimeoutError, ConnectionError):
                pass
            finally:
                writer.close()

        async def scenario():
            listener = await asyncio.start_server(slow_settings_handler, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            try:
                client = GenerativeClient(device=LAPTOP, gen_ability=True)
                return await asyncio.wait_for(
                    client.fetch_tcp("127.0.0.1", port, "/page"), timeout=10
                ), client
            finally:
                listener.close()
                await listener.wait_closed()

        result, client = asyncio.run(scenario())
        assert state["early_bytes"] == 0, "request bytes leaked before server SETTINGS"
        assert result.status == 200
        assert client.server_gen_ability is True


def serve_and_fetch(paths, many: bool):
    """Fresh server + naive client; fetch ``paths`` and return results."""

    async def scenario():
        server = GenerativeServer(build_site(), gen_ability=True)
        listener = await server.serve_forever("127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        try:
            client = GenerativeClient(device=LAPTOP, gen_ability=False)
            if many:
                return await asyncio.wait_for(
                    client.fetch_many_tcp("127.0.0.1", port, paths), timeout=120
                )
            results = []
            for path in paths:
                results.append(
                    await asyncio.wait_for(
                        client.fetch_tcp("127.0.0.1", port, path), timeout=120
                    )
                )
            return results
        finally:
            listener.close()
            await listener.wait_closed()

    return asyncio.run(scenario())


class TestConcurrencyDeterminism:
    def test_concurrent_fetches_byte_identical_to_serial(self):
        """Concurrency-N against a fresh server must produce the same bytes
        as one-at-a-time fetches against another fresh server, and as the
        sans-io request logic called directly
        (``GenerativeServer.handle_request``, the reference the session is
        written against): the scheduler (task interleaving, thread offload,
        single-flight materialise, batched generation) is invisible in the
        payload."""
        paths = [build_travel_blog().path, build_news_article().path]
        # Request each page twice concurrently: the duplicate exercises the
        # single-flight materialise path under real races.
        concurrent_paths = paths + paths
        serial = serve_and_fetch(paths, many=False)
        concurrent = serve_and_fetch(concurrent_paths, many=True)

        reference_server = GenerativeServer(build_site(), gen_ability=True)
        reference = {
            path: reference_server.handle_request(path, client_gen_ability=False).body
            for path in paths
        }

        by_path = {r.path: r for r in serial}
        for result in concurrent:
            assert result.status == 200
            for want in (by_path[result.path].received_html.encode(), reference[result.path]):
                assert result.received_html.encode() == want

    def test_duplicate_streams_materialise_once(self):
        """Same page requested 4x concurrently: every response is served,
        and the server's generated-page cache coalesced the work."""

        async def scenario():
            from repro.obs import MetricsRegistry

            registry = MetricsRegistry()
            server = GenerativeServer(build_site(), gen_ability=True, registry=registry)
            listener = await server.serve_forever("127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            try:
                client = GenerativeClient(device=LAPTOP, gen_ability=False)
                path = build_travel_blog().path
                results = await asyncio.wait_for(
                    client.fetch_many_tcp("127.0.0.1", port, [path] * 4), timeout=120
                )
                return results, registry
            finally:
                listener.close()
                await listener.wait_closed()

        results, registry = asyncio.run(scenario())
        assert len(results) == 4
        bodies = {r.received_html for r in results}
        assert len(bodies) == 1  # all four streams got identical bytes
        coalesced = registry.counter(
            "sww_materialise_cache_total", layer="sww", operation="coalesced"
        )
        hit = registry.counter(
            "sww_materialise_cache_total", layer="sww", operation="hit"
        )
        miss = registry.counter(
            "sww_materialise_cache_total", layer="sww", operation="miss"
        )
        # One leader generated; the other three coalesced or (if they
        # arrived after the leader finished) hit the cache.
        assert miss.value == 1
        assert coalesced.value + hit.value == 3


class TestInterleaving:
    def test_small_page_completes_during_large_stream(self):
        """One connection, a tiny page and a page with a large traditional
        body: both must complete, and the naive fetch of the big page must
        not block the tiny one past the scheduler's round-robin."""

        async def scenario():
            store = SiteStore()
            big = build_travel_blog()
            store.add_page(PageResource(big.path, big.sww_html, big.traditional_html))
            tiny_html = "<html><body><p>tiny</p></body></html>"
            store.add_page(PageResource("/tiny", tiny_html, tiny_html))
            server = GenerativeServer(store, gen_ability=True)
            listener = await server.serve_forever("127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            try:
                client = GenerativeClient(device=LAPTOP, gen_ability=False)
                return await asyncio.wait_for(
                    client.fetch_many_tcp("127.0.0.1", port, [big.path, "/tiny"]),
                    timeout=120,
                )
            finally:
                listener.close()
                await listener.wait_closed()

        big_result, tiny_result = asyncio.run(scenario())
        assert big_result.status == 200
        assert tiny_result.status == 200
        assert "tiny" in tiny_result.received_html
        assert "/generated/" in big_result.received_html
