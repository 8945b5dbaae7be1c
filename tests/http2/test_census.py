"""The http2 metrics a registry reads from live engines and writers when it
is scraped: gauges sum over every live connection, counters equal the
engines' own tallies and never go down while connections come and go."""

import asyncio
import gc
import sys
import threading
import time
import weakref

from repro.http2.census import FRAME_TYPE_NAMES, WireTally
from repro.http2.connection import H2Connection, RequestReceived, Role
from repro.http2.transport import InMemoryTransportPair, thread_loop
from repro.http2.writer import ConnectionWriter
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.server import AssetResource, GenerativeServer, PageResource, SiteStore
from repro.workloads import build_news_article

REQUEST = [
    (b":method", b"GET"),
    (b":scheme", b"https"),
    (b":path", b"/page"),
    (b":authority", b"test"),
]
RESPONSE = [(b":status", b"200"), (b"content-type", b"text/html")]
HTTP2 = {"layer": "http2"}


def server_pair(registry: MetricsRegistry, window: int = 1 << 24, **server_options) -> InMemoryTransportPair:
    pair = InMemoryTransportPair(
        H2Connection(Role.CLIENT, initial_window_size=window),
        H2Connection(Role.SERVER, registry=registry, **server_options),
    )
    pair.handshake()
    return pair


def open_request(pair: InMemoryTransportPair, headers=REQUEST) -> int:
    stream_id = pair.client.conn.get_next_available_stream_id()
    pair.client.conn.send_headers(stream_id, headers, end_stream=True)
    pair.pump()
    assert any(isinstance(e, RequestReceived) for e in pair.server.take_events())
    return stream_id


def respond(pair: InMemoryTransportPair, writer: ConnectionWriter, size: int) -> None:
    stream_id = open_request(pair)
    pair.server.conn.send_headers(stream_id, RESPONSE)
    writer.enqueue(stream_id, bytes(size), end_stream=True)
    writer.pump()
    pair.pump()


class TestGaugesSumOverConnections:
    def test_writer_gauges_keep_a_parked_connection_after_another_writes(self):
        """Connection A parks 134 465 B behind a 65 535-byte window; B then
        sends 100 B. The gauges are A's backlog, not whichever wrote last."""
        registry = MetricsRegistry()
        parked = server_pair(registry, window=65_535)
        parked_writer = ConnectionWriter(parked.server.conn, registry=registry)
        respond(parked, parked_writer, 200_000)
        other = server_pair(registry)
        other_writer = ConnectionWriter(other.server.conn, registry=registry)
        respond(other, other_writer, 100)

        assert other_writer.idle
        assert (parked_writer.pending_streams, parked_writer.pending_bytes) == (1, 134_465)
        assert registry.value("http2_writer_buffered_bytes", operation="bytes", **HTTP2) == 134_465
        assert registry.value("http2_writer_queue_depth", operation="streams", **HTTP2) == 1
        assert registry.value("http2_writer_urgency_depth", operation="u3", **HTTP2) == 1

        # A parked writer that goes away takes its backlog with it.
        del parked, parked_writer
        gc.collect()
        assert registry.value("http2_writer_buffered_bytes", operation="bytes", **HTTP2) == 0

    def test_hpack_table_bytes_sum_live_engines_and_evictions_outlive_them(self):
        registry = MetricsRegistry()
        # Three 1.5 kB headers overflow a 4 KiB dynamic table.
        pairs = [server_pair(registry) for _ in range(2)]
        for index, pair in enumerate(pairs):
            for value in range(4):
                open_request(pair, [*REQUEST, (b"x-token", bytes([65 + index + value]) * 1500)])
        servers = [pair.server.conn for pair in pairs]
        decoder_bytes = registry.value("http2_hpack_table_bytes", operation="decoder", **HTTP2)
        evictions = registry.value("http2_hpack_evictions", operation="decoder", **HTTP2)
        assert decoder_bytes == sum(conn.decoder.table.size for conn in servers) > 0
        assert evictions == sum(conn.decoder.table.evictions for conn in servers) > 0

        survivor = servers[1]
        del pairs, servers
        gc.collect()
        assert registry.value("http2_hpack_table_bytes", operation="decoder", **HTTP2) == (
            survivor.decoder.table.size
        )
        assert registry.value("http2_hpack_evictions", operation="decoder", **HTTP2) == evictions

    def test_null_registry_ignores_the_collector(self):
        pair = server_pair(NULL_REGISTRY)
        respond(pair, ConnectionWriter(pair.server.conn, registry=NULL_REGISTRY), 10)
        assert not NULL_REGISTRY._sources
        assert len(NULL_REGISTRY) == 0
        assert pair.server.conn.bytes_sent > 0


def http2_counters(registry: MetricsRegistry) -> dict[tuple, float]:
    return {
        (name, inst.labels): inst.value
        for name, kind, _help, members in registry.collect()
        if kind == "counter" and name.startswith("http2_")
        for inst in members
    }


def expected_counters(tallies) -> dict[tuple, int]:
    def key(name, operation):
        return (name, (("layer", "http2"), ("operation", operation)))

    expected = {}
    for code, name in FRAME_TYPE_NAMES.items():
        expected[key("http2_frames_sent_total", name)] = sum(t.frames_sent[code] for t in tallies)
        expected[key("http2_frames_received_total", name)] = sum(t.frames_received[code] for t in tallies)
    expected[key("http2_wire_bytes_total", "sent")] = sum(t.bytes_sent for t in tallies)
    expected[key("http2_wire_bytes_total", "received")] = sum(t.bytes_received for t in tallies)
    expected[key("http2_transport_io_total", "read")] = sum(t.reads for t in tallies)
    expected[key("http2_transport_io_total", "write")] = sum(t.writes for t in tallies)
    return {k: v for k, v in expected.items() if v}


class TestCountersUnderChurn:
    def test_counters_exact_and_monotonic_while_connections_churn(self):
        """50 in-memory connections open, serve a page, an asset and a 404,
        then close — every other one only dropped, so the garbage
        collector retires it — while three threads (more than this host's
        cores) snapshot the registry every millisecond under a short
        switch interval."""
        registry = MetricsRegistry()
        page = build_news_article()
        store = SiteStore()
        store.add_page(PageResource(page.path, page.sww_html))
        store.add_asset(AssetResource("/logo.png", bytes(20_000), "image/png"))
        server = GenerativeServer(store, registry=registry)
        client = GenerativeClient(registry=registry)
        tallies, engines = [], []
        scrapes: list[list[dict]] = [[], [], []]
        stop = threading.Event()

        def scrape(seen: list[dict]) -> None:
            while not stop.is_set():
                seen.append(http2_counters(registry.snapshot()))
                time.sleep(0.001)

        scrapers = [threading.Thread(target=scrape, args=(seen,)) for seen in scrapes]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        for scraper in scrapers:
            scraper.start()
        try:
            for index in range(50):
                pair = connect_in_memory(client, server)
                tallies += [pair.client.conn.tally, pair.server.conn.tally]
                engines += [weakref.ref(pair.client.conn), weakref.ref(pair.server.conn)]
                result = client.fetch_via_pair(pair, page.path)
                assert result.status == 200
                pair.run(pair.client.request("GET", "/logo.png"))
                pair.run(pair.client.request("GET", "/missing"))
                if index % 2:
                    pair.close()
                del pair, result
            # A pair dropped on another thread closes when its loop next runs.
            for _ in range(5):
                thread_loop().run_until_complete(asyncio.sleep(0))
                gc.collect()
        finally:
            stop.set()
            for scraper in scrapers:
                scraper.join(timeout=30)
            sys.setswitchinterval(interval)

        assert not any(scraper.is_alive() for scraper in scrapers)
        assert all(len(seen) > 10 for seen in scrapes), "a scraper never overlapped the churn"
        assert all(ref() is None for ref in engines), "an engine outlived its connection"
        for seen in scrapes:
            for before, after in zip(seen, seen[1:]):
                for key, value in before.items():
                    assert after.get(key, 0) >= value, f"{key} went down: {value} -> {after.get(key)}"
        assert http2_counters(registry) == expected_counters(tallies)
        engines_tracked = [tally for tally, _owner in registry._sources.values() if isinstance(tally, WireTally)]
        assert not engines_tracked, "dead engines were not folded into the retired totals"

        registry.reset()
        assert http2_counters(registry) == {}
        pair = connect_in_memory(client, server)
        client.fetch_via_pair(pair, page.path)
        assert http2_counters(registry) == expected_counters([pair.client.conn.tally, pair.server.conn.tally])
