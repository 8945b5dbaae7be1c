"""Telemetry the serving path emits under stress: the event-loop stall
heartbeat (PR-5's acceptance gauges) and the writer's flow-control stall
counters under deliberate window exhaustion."""

import asyncio
import time

import pytest

from repro.devices import LAPTOP
from repro.http2.connection import H2Connection, Role
from repro.http2.transport import InMemoryTransportPair
from repro.http2.writer import ConnectionWriter
from repro.obs import MetricsRegistry
from repro.sww.client import GenerativeClient
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.workloads import build_travel_blog

REQUEST = [
    (b":method", b"GET"),
    (b":scheme", b"https"),
    (b":path", b"/page"),
    (b":authority", b"test"),
]
RESPONSE = [(b":status", b"200"), (b"content-type", b"text/html")]


def _store() -> SiteStore:
    page = build_travel_blog()
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    return store


class TestLoopStallHeartbeat:
    def _run_with_blocking_handler(
        self, block_s: float, path: str = "/blog/ridgeline-hike", status: int = 200
    ):
        """Serve one request whose handler blocks the thread for block_s.

        The default path is a capable client's page fetch (model
        negotiation → thread executor); an unknown path is a 404 the
        session answers on the event loop itself.
        """
        registry = MetricsRegistry()

        async def scenario():
            server = GenerativeServer(_store(), registry=registry)
            original = server.handle_request

            def slow_handle(path, *args, **kwargs):
                time.sleep(block_s)
                return original(path, *args, **kwargs)

            server.handle_request = slow_handle
            listener = await server.serve_forever("127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            try:
                client = GenerativeClient(device=LAPTOP)
                result = await asyncio.wait_for(
                    client.fetch_tcp("127.0.0.1", port, path),
                    timeout=30,
                )
                assert result.status == status
                # Give the heartbeat a few more 20 ms probe intervals so the
                # oversleep caused by the block is definitely recorded.
                await asyncio.sleep(0.08)
            finally:
                listener.close()
                await listener.wait_closed()

        asyncio.run(scenario())
        return registry

    def test_serial_blocking_handler_trips_the_stall_gauges(self):
        # A 404's route carries its answer, so it is served on the event loop,
        # one request at a time: an 80 ms handler there holds the loop and
        # the probe's sleep oversleeps by most of it.
        registry = self._run_with_blocking_handler(0.08, path="/no-such-page", status=404)
        worst = registry.value(
            "sww_server_loop_stall_max_seconds", layer="sww", operation="loop"
        )
        assert worst >= 0.05
        # The histogram saw the same stall (value == sum of observations).
        assert (
            registry.value(
                "sww_server_loop_stall_seconds", layer="sww", operation="loop"
            )
            >= 0.05
        )

    def test_concurrent_mode_offloads_the_same_blocking_handler(self):
        # The same 80 ms handler on a request that negotiates models runs
        # on an executor thread, so the event loop itself stays responsive.
        registry = self._run_with_blocking_handler(0.08)
        worst = registry.value(
            "sww_server_loop_stall_max_seconds", layer="sww", operation="loop"
        )
        assert worst < 0.05

    def test_probe_records_even_on_idle_connections(self):
        registry = self._run_with_blocking_handler(0.0)
        # Heartbeat ran: the histogram family exists with observations
        # (a zero-ish sum but a live instrument).
        families = {name for name, _, _, _ in registry.collect()}
        assert "sww_server_loop_stall_seconds" in families
        assert "sww_server_loop_stall_max_seconds" in families


def small_window_pair(window: int = 4096) -> InMemoryTransportPair:
    pair = InMemoryTransportPair(
        H2Connection(Role.CLIENT, gen_ability=True, initial_window_size=window),
        H2Connection(Role.SERVER, gen_ability=True),
    )
    pair.handshake()
    return pair


def open_request(pair: InMemoryTransportPair) -> int:
    stream_id = pair.client.conn.get_next_available_stream_id()
    pair.client.conn.send_headers(stream_id, REQUEST, end_stream=True)
    pair.pump()
    return stream_id


class TestWriterStallCounters:
    def test_stream_window_exhaustion_counts_stream_stalls(self):
        registry = MetricsRegistry()
        window = 4096
        pair = small_window_pair(window)
        stream_id = open_request(pair)
        writer = ConnectionWriter(pair.server.conn, registry=registry)
        pair.server.conn.send_headers(stream_id, RESPONSE)
        writer.enqueue(stream_id, bytes(window * 4), end_stream=True)
        writer.pump()
        pair.pump()

        # The stream parked on its exhausted window; pumping again makes
        # no progress and each idle round is counted.
        assert writer.pump() == 0
        assert writer.pump() == 0
        assert writer.stream_stalls >= 2
        assert (
            registry.value("http2_writer_stalls_total", layer="http2", operation="stream")
            == writer.stream_stalls
        )
        # The shared connection window still has credit, so no
        # connection-scope stalls were recorded.
        assert not registry.value(
            "http2_writer_stalls_total", layer="http2", operation="connection"
        )

    def test_connection_window_exhaustion_counts_connection_stalls(self):
        registry = MetricsRegistry()
        pair = InMemoryTransportPair(
            H2Connection(Role.CLIENT, gen_ability=True),
            H2Connection(Role.SERVER, gen_ability=True),
        )
        pair.handshake()
        stream_id = open_request(pair)
        writer = ConnectionWriter(pair.server.conn, registry=registry)
        pair.server.conn.send_headers(stream_id, RESPONSE)
        writer.enqueue(stream_id, bytes(1_000), end_stream=True)
        # Drain the shared connection window (as many slow peers would)
        # while the stream's own window still has credit: the park is
        # attributed to the connection scope, not the stream.
        conn_window = pair.server.conn.outbound_window
        conn_window.consume(conn_window.available)

        assert writer.pump() == 0
        assert writer.connection_stalls >= 1
        assert writer.stream_stalls == 0
        assert (
            registry.value(
                "http2_writer_stalls_total", layer="http2", operation="connection"
            )
            == writer.connection_stalls
        )
        # Replenished credit releases the park and the response completes.
        conn_window.replenish(65_535)
        assert writer.pump() > 0
        assert writer.idle

    def test_debug_state_reflects_parked_streams(self):
        window = 4096
        pair = small_window_pair(window)
        stream_id = open_request(pair)
        writer = ConnectionWriter(pair.server.conn, registry=MetricsRegistry())
        pair.server.conn.send_headers(stream_id, RESPONSE)
        body = bytes(window * 3)
        writer.enqueue(stream_id, body, end_stream=True)
        writer.pump()
        pair.pump()
        writer.pump()  # one counted stall

        state = writer.debug_state()
        assert state["pending_streams"] == 1
        assert state["pending_bytes"] == len(body) - window
        assert state["stream_stalls"] >= 1
        (stream_state,) = state["streams"]
        assert stream_state["stream_id"] == stream_id
        assert stream_state["queued_bytes"] == len(body) - window
        assert stream_state["stream_window"] == 0
        assert stream_state["end_stream"] is True

    def test_stall_counters_absent_with_null_registry(self):
        # A writer without a registry keeps its plain attributes but emits
        # no metrics — the hot path must not require telemetry.
        window = 4096
        pair = small_window_pair(window)
        stream_id = open_request(pair)
        writer = ConnectionWriter(pair.server.conn)
        pair.server.conn.send_headers(stream_id, RESPONSE)
        writer.enqueue(stream_id, bytes(window * 2), end_stream=True)
        writer.pump()
        pair.pump()
        assert writer.pump() == 0
        assert writer.stream_stalls >= 1
