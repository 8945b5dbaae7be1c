"""Wide events on the serving path, success and failure: every request
that starts an event must finish it exactly once — handler exceptions,
streams reset under their response, dead connections, failed single-flight
leaders and batch-wide errors all included. ``EventLog.open_count`` is the
leak detector throughout."""

import asyncio
import threading
import time

import pytest

from repro.devices import LAPTOP, WORKSTATION
from repro.http2.connection import H2Connection, Role
from repro.http2.transport import InMemoryTransportPair
from repro.http2.writer import ConnectionWriter
from repro.obs import EventLog, FlightRecorder, MetricsRegistry
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.workloads import build_travel_blog

PAGE = "/blog/ridgeline-hike"


def _store() -> SiteStore:
    page = build_travel_blog()
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    return store


class TestSerialMode:
    """One request at a time over the in-memory pair."""

    def test_success_event_is_complete(self):
        events = EventLog()
        server = GenerativeServer(_store(), events=events)
        client = GenerativeClient(device=LAPTOP)
        pair = connect_in_memory(client, server)
        result = client.fetch_via_pair(pair, PAGE)
        assert result.status == 200
        recorded = events.events()
        assert len(recorded) == 1
        fields = recorded[0].to_dict()
        assert fields["event"] == "server.request"
        assert fields["path"] == PAGE
        assert fields["transport"] == "memory"
        assert fields["status"] == 200
        assert fields["serve_mode"] == "generative"
        assert fields["client_gen_ability"] is True
        assert fields["body_bytes"] > 0
        assert fields["duration_s"] >= 0.0
        assert "error" not in fields
        assert events.open_count == 0

    def test_handler_exception_emits_500_event_without_leaks(self):
        events = EventLog()
        server = GenerativeServer(_store(), events=events)

        def broken_handle(path, *args, **kwargs):
            raise ValueError("synthetic handler failure")

        server.handle_request = broken_handle
        client = GenerativeClient(device=LAPTOP)
        pair = connect_in_memory(client, server)
        assert client.fetch_via_pair(pair, PAGE).status == 500
        recorded = events.events()
        assert len(recorded) == 1
        fields = recorded[0].to_dict()
        assert fields["status"] == 500
        assert fields["error"] == "ValueError"
        assert fields["transport"] == "memory"
        assert events.open_count == 0


    @pytest.mark.parametrize(
        "path, gen_ability, route",
        [("/nope", False, "read turn"), (PAGE, True, "executor")],
        ids=["read-turn", "executor"],
    )
    def test_500_log_line_joins_its_event(self, monkeypatch, path, gen_ability, route):
        import io
        import json
        import logging

        from repro.http2.endpoint import ServerConnection
        from repro.obs import Tracer, _JsonLogFormatter

        events = EventLog()
        server = GenerativeServer(_store(), events=events, tracer=Tracer())

        def raising(*args, **kwargs):
            raise ValueError("synthetic outcome failure")

        # Raises inside the request's span, on either route.
        monkeypatch.setattr(server, "_note_outcome", raising)
        spawned = []
        spawn = ServerConnection.spawn

        def recorded_spawn(driver, coro):
            spawned.append(coro)
            return spawn(driver, coro)

        monkeypatch.setattr(ServerConnection, "spawn", recorded_spawn)
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.setFormatter(_JsonLogFormatter())
        logger = logging.getLogger("repro.sww.server")
        logger.addHandler(handler)
        try:
            client = GenerativeClient(device=LAPTOP, gen_ability=gen_ability)
            pair = connect_in_memory(client, server)
            assert client.fetch_via_pair(pair, path).status == 500
            pair.close()
        finally:
            logger.removeHandler(handler)
        assert len(spawned) == (route == "executor")
        (event,) = events.events()
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        (line,) = [line for line in lines if "responding 500" in line["message"]]
        assert event.fields["status"] == 500 and event.fields["trace_id"]
        assert (line["trace_id"], line["seq"]) == (event.fields["trace_id"], event.fields["seq"])
        assert line["error"] == "ValueError"


REQUEST = [
    (b":method", b"GET"),
    (b":scheme", b"https"),
    (b":path", b"/page"),
    (b":authority", b"test"),
]
RESPONSE = [(b":status", b"200"), (b"content-type", b"text/html")]


def _writer_pair(window: int = 4096) -> InMemoryTransportPair:
    pair = InMemoryTransportPair(
        H2Connection(Role.CLIENT, initial_window_size=window),
        H2Connection(Role.SERVER),
    )
    pair.handshake()
    return pair


def _open_request(pair: InMemoryTransportPair) -> int:
    stream_id = pair.client.conn.get_next_available_stream_id()
    pair.client.conn.send_headers(stream_id, REQUEST, end_stream=True)
    pair.pump()
    return stream_id


class TestWriterErrorPaths:
    def test_stream_reset_mid_send_finishes_the_event(self):
        events = EventLog()
        pair = _writer_pair(window=4096)
        stream_id = _open_request(pair)
        writer = ConnectionWriter(pair.server.conn)
        pair.server.conn.send_headers(stream_id, RESPONSE)
        record = events.begin(
            "server.request", path="/page", stream_id=stream_id, transport="memory"
        )
        record.set(status=200)
        writer.enqueue(stream_id, b"x" * 16384, end_stream=True, event=record)
        # First pump moves one window's worth, then parks on flow control
        # — the response is genuinely mid-flight when the reset lands.
        writer.pump()
        pair.pump()
        assert not record.finished
        pair.client.conn.reset_stream(stream_id)
        pair.pump()
        writer.pump()
        assert record.finished
        fields = record.to_dict()
        assert fields["error"] == "stream-reset"
        assert fields["writer_frames"] >= 1
        assert fields["writer_queue_s"] >= 0.0
        assert events.open_count == 0

    def test_abort_pending_finishes_queued_events_as_connection_closed(self):
        events = EventLog()
        pair = _writer_pair()
        stream_id = _open_request(pair)
        writer = ConnectionWriter(pair.server.conn)
        pair.server.conn.send_headers(stream_id, RESPONSE)
        record = events.begin(
            "server.request", path="/page", stream_id=stream_id, transport="tcp"
        )
        writer.enqueue(stream_id, b"y" * 8192, end_stream=True, event=record)
        aborted = writer.abort_pending()
        assert aborted == 1
        assert record.finished
        assert record.to_dict()["error"] == "connection-closed"
        assert events.open_count == 0


class TestConcurrentMode:
    def _serve(self, scenario_body, recorder=None, **server_kwargs):
        """Run a TCP server + the given async client scenario."""

        async def scenario():
            server = GenerativeServer(_store(), **server_kwargs)
            server.recorder = recorder
            listener = await server.serve_forever("127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            try:
                await scenario_body(server, port)
            finally:
                listener.close()
                await listener.wait_closed()

        asyncio.run(scenario())

    def test_generation_failure_event_and_recorder_note(self):
        events = EventLog()
        recorder = FlightRecorder(events=events)

        async def body(server, port):
            def broken_handle(path, *args, **kwargs):
                raise RuntimeError("generation exploded")

            server.handle_request = broken_handle
            client = GenerativeClient(device=LAPTOP)
            result = await asyncio.wait_for(
                client.fetch_tcp("127.0.0.1", port, PAGE), timeout=30
            )
            assert result.status == 500

        self._serve(body, events=events, recorder=recorder)
        recorded = [e.to_dict() for e in events.events() if e.fields["event"] == "server.request"]
        assert len(recorded) == 1
        assert recorded[0]["status"] == 500
        assert recorded[0]["error"] == "RuntimeError"
        assert recorded[0]["transport"] == "tcp"
        # The writer closed the event after shipping the 500 body.
        assert recorded[0]["writer_frames"] >= 1
        bundles = recorder.incidents()
        assert [b["trigger"]["kind"] for b in bundles] == ["generation-failure"]
        assert "RuntimeError" in bundles[0]["trigger"]["detail"]
        assert events.open_count == 0

    def test_failed_single_flight_leader_fans_error_to_every_event(self):
        events = EventLog()
        registry = MetricsRegistry()
        recorder = FlightRecorder(events=events)
        cold_calls = []
        release = threading.Event()

        async def body(server, port):
            def failing_cold(page):
                cold_calls.append(page.path)
                release.wait(timeout=10)
                raise RuntimeError("leader materialise failed")

            server._materialise_cold = failing_cold
            # Naive clients force server-side materialisation.
            first = GenerativeClient(device=LAPTOP, gen_ability=False)
            second = GenerativeClient(device=LAPTOP, gen_ability=False)
            loop = asyncio.get_running_loop()
            task_a = asyncio.ensure_future(first.fetch_tcp("127.0.0.1", port, PAGE))
            # Wait until the leader is inside the cold path, start the
            # follower, and only release the failure once both streams are
            # in flight — the follower is then provably waiting on the
            # leader's future, not running its own generation.
            await loop.run_in_executor(None, lambda: _wait_for(lambda: cold_calls))
            task_b = asyncio.ensure_future(second.fetch_tcp("127.0.0.1", port, PAGE))
            await loop.run_in_executor(
                None,
                lambda: _wait_for(
                    lambda: registry.value(
                        "sww_server_inflight_streams", layer="sww", operation="serve"
                    )
                    == 2
                ),
            )
            await asyncio.sleep(0.25)
            release.set()
            results = await asyncio.wait_for(
                asyncio.gather(task_a, task_b), timeout=30
            )
            assert [r.status for r in results] == [500, 500]

        self._serve(body, events=events, recorder=recorder, registry=registry)
        # Exactly one generation ran: the follower coalesced onto the
        # failed leader and inherited its exception.
        assert cold_calls == [PAGE]
        recorded = [e.to_dict() for e in events.events() if e.fields["event"] == "server.request"]
        assert len(recorded) == 2
        for fields in recorded:
            assert fields["status"] == 500
            assert fields["error"] == "RuntimeError"
        # One bundle: the trigger is one-shot, the second failure finds it
        # disarmed.
        assert [b["trigger"]["kind"] for b in recorder.incidents()] == [
            "generation-failure"
        ]
        assert events.open_count == 0


    def test_stream_cancelled_by_drain_closes_its_event(self):
        """``ServerConnection.drain`` cancels streams still pending at its
        timeout; the cancelled stream's wide event must not stay open."""
        events = EventLog()
        entered, release = threading.Event(), threading.Event()

        async def body(server, port):
            def parked_cold(page):
                entered.set()
                release.wait(timeout=10)
                raise RuntimeError("released after the stream was cancelled")

            server._materialise_cold = parked_cold
            naive = GenerativeClient(device=LAPTOP, gen_ability=False)
            fetch = asyncio.ensure_future(naive.fetch_tcp("127.0.0.1", port, PAGE))
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, entered.wait, 10)
            (session,) = server.sessions()
            try:
                await asyncio.wait_for(session.shutdown(timeout_s=0.05), timeout=10)
                assert events.open_count == 0
            finally:
                release.set()
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(fetch, timeout=10)

        self._serve(body, events=events)
        (fields,) = [e.to_dict() for e in events.events() if e.fields["event"] == "server.request"]
        assert fields["error"] == "cancelled"
        assert fields["status"] == 0
        assert events.open_count == 0


class TestEngineBackedRequest:
    """Generation annotates the request's own event: nothing about a page
    leaves the request's thread, with or without a batching engine."""

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_materialisation_event_names_model_steps_and_batch(self, transport):
        from repro.batching.engine import BatchingEngine

        events = EventLog()
        naive = GenerativeClient(device=LAPTOP, gen_ability=False)
        # The blog's three images fill the window: the batch closes at once.
        with BatchingEngine(WORKSTATION, max_batch=3, max_wait_s=5.0, events=events) as engine:
            server = GenerativeServer(_store(), engine=engine, events=events)
            if transport == "memory":
                result = naive.fetch_via_pair(connect_in_memory(naive, server), PAGE)
            else:

                async def fetch():
                    listener = await server.serve_forever("127.0.0.1", 0)
                    port = listener.sockets[0].getsockname()[1]
                    try:
                        return await asyncio.wait_for(naive.fetch_tcp("127.0.0.1", port, PAGE), 30)
                    finally:
                        listener.close()
                        await listener.wait_closed()

                result = asyncio.run(fetch())
        assert result.status == 200
        by_kind = {e.fields["event"]: e.to_dict() for e in events.events()}
        batch, request = by_kind["batch.execute"], by_kind["server.request"]
        assert request["serve_mode"] == "server-generated"
        assert request["model"] == batch["model"]
        assert request["steps"] == batch["steps"]
        assert request["batch_id"] == batch["batch_id"]
        assert request["batch_size"] == batch["batch_size"] == 3
        assert events.open_count == 0


def _wait_for(predicate, timeout_s: float = 10.0, interval_s: float = 0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    raise AssertionError("condition not reached within timeout")


class TestBatchErrorFanOut:
    def test_batch_failure_errors_the_event_and_every_waiter(self, monkeypatch):
        from repro.batching.engine import BatchingEngine
        from repro.genai.registry import DEFAULT_IMAGE_MODEL

        events = EventLog()

        def exploding_batch(*args, **kwargs):
            raise RuntimeError("kernel fault")

        monkeypatch.setattr(
            "repro.batching.engine.generate_image_batch", exploding_batch
        )
        with BatchingEngine(
            WORKSTATION, max_batch=4, max_wait_s=0.05, events=events
        ) as engine:
            futures = [
                engine.submit_image(DEFAULT_IMAGE_MODEL, f"prompt {i}")
                for i in range(2)
            ]
            for future in futures:
                with pytest.raises(RuntimeError, match="kernel fault"):
                    future.result(timeout=10)
        recorded = [e.to_dict() for e in events.events()]
        assert recorded, "no batch.execute event emitted"
        assert all(f["event"] == "batch.execute" for f in recorded)
        assert all(f["error"] == "RuntimeError" for f in recorded)
        # Every waiter is accounted to some failed batch.
        assert sum(f["batch_size"] for f in recorded) == 2
        assert events.open_count == 0
