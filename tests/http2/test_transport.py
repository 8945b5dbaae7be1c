"""Tests for the in-memory and asyncio transports."""

import asyncio
import hashlib
import socket

import pytest

from repro.http2.connection import (
    DataReceived,
    H2Connection,
    RequestReceived,
    Role,
    StreamEnded,
)
from repro.http2.endpoint import ServerConnection
from repro.http2.transport import (
    Endpoint,
    InMemoryTransportPair,
    listen,
    open_memory_pair,
    open_tcp_pair,
)

GET = [(b":method", b"GET"), (b":path", b"/"), (b":scheme", b"https"), (b":authority", b"t")]


class TestEndpoint:
    def test_take_events_drains(self):
        endpoint = Endpoint(H2Connection(Role.CLIENT))
        endpoint.events = [DataReceived(stream_id=1), StreamEnded(stream_id=1)]
        assert len(endpoint.take_events()) == 2
        assert endpoint.take_events() == []

    def test_take_events_filtered(self):
        endpoint = Endpoint(H2Connection(Role.CLIENT))
        endpoint.events = [DataReceived(stream_id=1), StreamEnded(stream_id=1)]
        data = endpoint.take_events(DataReceived)
        assert len(data) == 1
        assert len(endpoint.events) == 1  # the StreamEnded remains


class TestInMemoryPair:
    def test_handshake_quiesces(self):
        pair = InMemoryTransportPair(
            H2Connection(Role.CLIENT, gen_ability=True),
            H2Connection(Role.SERVER, gen_ability=True),
        )
        pair.handshake()
        # After quiescing there must be nothing left to send.
        assert pair.client.conn.data_to_send() == b""
        assert pair.server.conn.data_to_send() == b""

    def test_pump_detects_livelock(self):
        pair = InMemoryTransportPair(H2Connection(Role.CLIENT), H2Connection(Role.SERVER))
        pair.handshake()

        class Chatterbox:
            def data_to_send(self):
                # A complete unknown-type frame: parsed, ignored, repeated
                # forever — the transport must give up rather than spin.
                return b"\x00\x00\x00\xee\x00\x00\x00\x00\x00"

            def receive_data(self, data):
                return []

        pair.client.conn = Chatterbox()
        with pytest.raises(RuntimeError):
            pair.pump()


class TestMemoryTurns:
    """The in-memory pair reads like a socket: what one loop turn wrote
    arrives as one read, on a later turn."""

    def test_a_write_inside_a_read_is_read_on_a_later_turn(self):
        async def scenario():
            client, server = open_memory_pair(H2Connection(Role.CLIENT), H2Connection(Role.SERVER))
            reads: list[tuple[str, int]] = []
            depth = 0
            for name, end in (("client", client), ("server", server)):

                def traced(data, name=name, original=end.data_received):
                    nonlocal depth
                    reads.append((name, depth))
                    depth += 1
                    try:
                        original(data)
                    finally:
                        depth -= 1

                end.data_received = traced
                end.run(lambda event: None)
            server.conn.initiate_connection()
            server.flush()
            assert reads == [], "a write reached its peer inside the writing turn"
            for _ in range(10):
                await asyncio.sleep(0)
            return reads

        # The server reads the preface and ACKs it from inside that read;
        # the ACK joins the SETTINGS still waiting from the scenario's turn,
        # and the client reads both at once, then the server reads the
        # client's ACK. Every read comes from the loop, none nested.
        assert asyncio.run(scenario()) == [("server", 0), ("client", 0), ("server", 0)]

    def test_two_writes_in_one_turn_arrive_as_one_read(self):
        async def scenario():
            client, server = open_memory_pair(H2Connection(Role.CLIENT), H2Connection(Role.SERVER))
            batches: list[list] = []
            server.run(lambda event: batches[-1].append(event))
            original = server.data_received

            def read(data):
                batches.append([])
                original(data)

            server.data_received = read
            for stream_id in (1, 3):
                client.conn.send_headers(stream_id, GET, end_stream=True)
                client.flush()
            await asyncio.sleep(0)
            return batches, client.conn.tally.writes

        batches, writes = asyncio.run(scenario())
        assert writes == 3  # the preface and two requests
        (events,) = batches
        assert [e.stream_id for e in events if isinstance(e, RequestReceived)] == [1, 3]


class TestTcpTransport:
    """End-to-end over a real asyncio TCP socket."""

    def test_request_response_over_tcp(self):
        async def scenario():
            server_conn_holder = {}

            async def on_connect(transport):
                conn = transport.conn
                server_conn_holder["conn"] = conn
                conn.initiate_connection()
                transport.flush()

                async def handler(event):
                    if isinstance(event, RequestReceived):
                        conn.send_headers(event.stream_id, [(b":status", b"200")])
                        conn.send_data(event.stream_id, b"tcp-works", end_stream=True)

                await transport.run(handler)
                await transport.close()

            server = await listen(lambda: H2Connection(Role.SERVER, gen_ability=True), on_connect)
            port = server.sockets[0].getsockname()[1]

            client_conn = H2Connection(Role.CLIENT, gen_ability=True)
            transport = await open_tcp_pair("127.0.0.1", port, client_conn)

            body = bytearray()
            done = asyncio.Event()

            async def handler(event):
                if isinstance(event, DataReceived):
                    body.extend(event.data)
                if isinstance(event, StreamEnded):
                    done.set()

            run = transport.run(handler)
            sid = client_conn.get_next_available_stream_id()
            client_conn.send_headers(sid, GET, end_stream=True)
            await transport.flush()
            await asyncio.wait_for(done.wait(), timeout=5)
            negotiated = client_conn.gen_ability_negotiated
            await transport.close()
            await run
            server.close()
            await server.wait_closed()
            return bytes(body), negotiated

        body, negotiated = asyncio.run(scenario())
        assert body == b"tcp-works"
        assert negotiated

    def test_a_handler_that_suspends_ends_the_connection(self):
        async def scenario():
            async def serve(transport):
                await ServerConnection(transport).run(lambda event: None)

            server = await listen(lambda: H2Connection(Role.SERVER), serve)
            transport = await open_tcp_pair(
                "127.0.0.1", server.sockets[0].getsockname()[1], H2Connection(Role.CLIENT)
            )

            async def suspends(event):
                await asyncio.sleep(0)

            try:
                with pytest.raises(RuntimeError, match="suspended inside a read turn"):
                    await asyncio.wait_for(transport.run(suspends), 5)
                return transport.closed.is_set()
            finally:
                server.close()
                await server.wait_closed()

        assert asyncio.run(scenario()) is True

    def test_a_peer_that_stops_reading_pauses_the_writer_without_spinning(self):
        """4 MiB to a peer that reads nothing: the socket pushes back, the
        half queued during the pause is not pumped however often the
        writer is woken, and it leaves once the socket resumes."""
        body = hashlib.sha256(b"seed").digest() * (4 * 1024 * 1024 // 32)
        half = len(body) // 2
        seen = {"paused": 0, "resumed": 0, "pumps_while_paused": 0, "wakes_while_paused": 0}

        async def scenario():
            state = {"paused": False}
            woken_while_paused = asyncio.Event()
            closed = []

            async def serve(transport):
                closed.append(transport.closed)
                driver = ServerConnection(transport)
                pause, resume, pump = transport.pause_writing, transport.resume_writing, driver.writer.pump

                def paused():
                    seen["paused"] += 1
                    state["paused"] = True
                    pause()

                def resumed():
                    seen["resumed"] += 1
                    state["paused"] = False
                    resume()

                def pumped():
                    seen["pumps_while_paused"] += state["paused"]
                    return pump()

                transport.pause_writing, transport.resume_writing = paused, resumed
                driver.writer.pump = pumped

                async def second_half(stream_id):
                    while not state["paused"]:
                        await asyncio.sleep(0.01)
                    driver.writer.enqueue(stream_id, body[half:], end_stream=True)
                    for _ in range(50):
                        driver.wake()
                        seen["wakes_while_paused"] += state["paused"]
                        await asyncio.sleep(0)
                    woken_while_paused.set()

                def on_event(event):
                    if isinstance(event, RequestReceived):
                        driver.conn.send_headers(event.stream_id, [(b":status", b"200")])
                        driver.writer.enqueue(event.stream_id, body[:half], end_stream=False)
                        driver.spawn(second_half(event.stream_id))

                await driver.run(on_event)

            server = await listen(lambda: H2Connection(Role.SERVER), serve)
            # A fixed send buffer (accepted sockets inherit it) keeps the
            # kernel from absorbing the body, so the socket pushes back.
            server.sockets[0].setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 16384)
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            await asyncio.get_running_loop().sock_connect(sock, server.sockets[0].getsockname())
            reader, writer = await asyncio.open_connection(sock=sock)
            conn = H2Connection(Role.CLIENT, initial_window_size=1 << 24)
            conn.initiate_connection()
            conn.send_headers(1, GET, end_stream=True)
            writer.write(conn.data_to_send())
            try:
                await asyncio.wait_for(woken_while_paused.wait(), 10)
                received, ended = bytearray(), False
                while not ended:
                    data = await asyncio.wait_for(reader.read(65536), 10)
                    assert data, "the server hung up mid-body"
                    for event in conn.receive_data(data):
                        if isinstance(event, DataReceived):
                            received += event.data
                        ended = ended or isinstance(event, StreamEnded)
                    writer.write(conn.data_to_send())
                return bytes(received)
            finally:
                writer.close()
                await writer.wait_closed()
                await asyncio.wait_for(asyncio.gather(*(event.wait() for event in closed)), 5)
                server.close()
                await server.wait_closed()

        received = asyncio.run(scenario())
        assert seen["paused"] >= 1 and seen["resumed"] >= 1
        assert seen["wakes_while_paused"] == 50
        assert seen["pumps_while_paused"] == 0
        assert hashlib.sha256(received).digest() == hashlib.sha256(body).digest()
