"""The endpoint runtime over real loopback TCP, tested once instead of
once per consumer: credit return in both directions, drain on half-close,
multiplexing, push collection, shutdown with a parked stream, the
handshake timeout and failure fan-out — plus the structural check that
keeps hand-rolled connection loops from growing back."""

import asyncio
import hashlib
import re
from pathlib import Path

import pytest

from repro.http2.connection import (
    DataReceived,
    H2Connection,
    RequestReceived,
    Role,
    StreamEnded,
)
from repro.http2.endpoint import ClientConnection, ServerConnection
from repro.http2.errors import ErrorCode
from repro.http2.transport import listen
from repro.obs import EventLog
from repro.serving.h2util import MiniH2Server, MiniResponse

OK = [(b":status", b"200"), (b"content-type", b"application/octet-stream")]
GET = [(b":method", b"GET"), (b":scheme", b"https"), (b":authority", b"test")]


class _Responder:
    """A respond-only server straight on :class:`ServerConnection`:
    ``respond(driver, stream_id, path, body)`` runs as the stream's task."""

    def __init__(self, respond, **conn_kwargs) -> None:
        self.respond = respond
        self.conn_kwargs = conn_kwargs
        self.drivers: list[ServerConnection] = []
        self.handlers: set[asyncio.Task] = set()

    def listen(self):
        return listen(lambda: H2Connection(Role.SERVER, **self.conn_kwargs), self.on_connect)

    async def on_connect(self, transport) -> None:
        self.handlers.add(asyncio.current_task())
        driver = ServerConnection(transport)
        self.drivers.append(driver)
        requests: dict[int, tuple[str, bytearray]] = {}

        def on_event(event) -> None:
            if isinstance(event, RequestReceived):
                path = dict(event.headers)[b":path"].decode()
                requests[event.stream_id] = (path, bytearray())
            elif isinstance(event, DataReceived):
                requests[event.stream_id][1].extend(event.data)
            elif isinstance(event, StreamEnded):
                path, body = requests.pop(event.stream_id)
                driver.spawn(self.respond(driver, event.stream_id, path, bytes(body)))

        await driver.run(on_event)


def _send(driver: ServerConnection, stream_id: int, body: bytes, event=None) -> None:
    driver.conn.send_headers(stream_id, OK)
    driver.writer.enqueue(stream_id, body, end_stream=True, event=event)
    driver.wake()


def _run(start, scenario, timeout_s: float = 20.0):
    """Start a listener with ``start()`` and run ``scenario(port)`` against it."""

    async def main():
        listener = await start()
        port = listener.sockets[0].getsockname()[1]
        try:
            return await asyncio.wait_for(scenario(port), timeout_s)
        finally:
            listener.close()
            await listener.wait_closed()

    return asyncio.run(main())


async def _open(port: int, **conn_kwargs) -> ClientConnection:
    client = await ClientConnection.open(
        "127.0.0.1", port, H2Connection(Role.CLIENT, **conn_kwargs), "test"
    )
    await client.settled()
    return client


class TestCreditReturn:
    def test_request_body_larger_than_the_connection_window(self):
        """The server driver hands credit back as the body arrives and the
        client sends within it; without either side the PUT would stall."""
        window = 8192
        body = bytes(range(256)) * 1024  # 256 KiB, 32 windows

        async def digest(driver, stream_id, path, received):
            _send(driver, stream_id, hashlib.sha256(received).hexdigest().encode())

        async def scenario(port):
            client = await _open(port)
            try:
                return await client.request("PUT", "/blob", body=body)
            finally:
                await client.close()

        server = _Responder(digest, initial_window_size=window)
        response = _run(server.listen, scenario)
        assert response.status == 200
        assert response.body == hashlib.sha256(body).hexdigest().encode()

    def test_response_larger_than_a_small_stream_window_plain_replenisher(self):
        """The plain rule alone (connection window always, stream window
        while open) carries a body 64 stream windows long."""
        body = b"\xa5" * (256 * 1024)

        async def blob(driver, stream_id, path, received):
            _send(driver, stream_id, body)

        async def scenario(port):
            client = await _open(port, initial_window_size=4096)
            try:
                return await client.request("GET", "/blob")
            finally:
                await client.close()

        response = _run(_Responder(blob).listen, scenario)
        assert response.body == body


class TestServerDriver:
    def test_half_close_drains_every_queued_byte_before_the_socket_closes(self):
        """The peer sends its requests and FINs; responses that are only
        produced afterwards still arrive whole, then the server closes."""
        bodies = {f"/r{i}": bytes([i]) * 40_000 for i in range(4)}

        async def slow(driver, stream_id, path, received):
            await asyncio.sleep(0.1)  # the FIN overtakes every response
            _send(driver, stream_id, bodies[path])

        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            conn = H2Connection(Role.CLIENT)
            conn.initiate_connection()
            paths = {}
            for path in bodies:
                stream_id = conn.get_next_available_stream_id()
                paths[stream_id] = path
                conn.send_headers(stream_id, GET + [(b":path", path.encode())], end_stream=True)
            writer.write(conn.data_to_send())
            writer.write_eof()
            received = {stream_id: bytearray() for stream_id in paths}
            ended = set()
            while data := await reader.read(65536):
                for event in conn.receive_data(data):
                    if isinstance(event, DataReceived):
                        received[event.stream_id] += event.data
                    elif isinstance(event, StreamEnded):
                        ended.add(event.stream_id)
            writer.close()
            return {paths[sid]: bytes(body) for sid, body in received.items()}, ended

        received, ended = _run(_Responder(slow).listen, scenario)
        assert received == bodies
        assert len(ended) == len(bodies)

    def test_shutdown_with_a_parked_stream_returns_and_closes_its_event(self):
        """A peer that never returns credit parks the response; shutdown
        must not wait for it, and the wide event must not stay open."""
        events = EventLog()
        parked = asyncio.Event()

        async def big(driver, stream_id, path, received):
            record = events.begin("server.request", path=path, stream_id=stream_id)
            record.set(status=200)
            _send(driver, stream_id, bytes(64 * 1024), event=record)
            while driver.writer.stream_stalls == 0:
                await asyncio.sleep(0.01)
            parked.set()

        server = _Responder(big)

        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            conn = H2Connection(Role.CLIENT, initial_window_size=1024)
            conn.initiate_connection()
            conn.send_headers(1, GET + [(b":path", b"/big")], end_stream=True)
            writer.write(conn.data_to_send())
            await parked.wait()
            (driver,) = server.drivers
            assert driver.writer.pending_streams == 1
            started = asyncio.get_running_loop().time()
            await driver.shutdown(timeout_s=1.0)
            took = asyncio.get_running_loop().time() - started
            await asyncio.gather(*server.handlers)
            writer.close()
            return took, driver

        took, driver = _run(server.listen, scenario)
        assert took < 1.5
        assert driver.closed and driver.inflight == 0
        assert events.open_count == 0
        (record,) = events.events()
        assert record.to_dict()["error"] == "connection-closed"

    def test_handler_exception_is_a_500_and_the_connection_survives(self):
        async def handler(request):
            if request.path == "/boom":
                raise RuntimeError("synthetic handler failure")
            return MiniResponse(body=request.path.encode())

        async def scenario(port):
            client = await _open(port)
            try:
                failed = await client.request("GET", "/boom")
                after = await client.request("GET", "/fine")
            finally:
                await client.close()
            return failed, after

        failed, after = _run(MiniH2Server(handler).serve, scenario)
        assert failed.status == 500
        assert (after.status, after.body) == (200, b"/fine")


class TestClientConnection:
    def test_64_concurrent_requests_each_get_their_own_body(self):
        async def handler(request):
            # Later requests answer first, so completion order ≠ id order.
            await asyncio.sleep(0.001 * (64 - int(request.path[2:])))
            return MiniResponse(body=request.path.encode() * 500 + request.body)

        async def scenario(port):
            client = await _open(port)
            try:
                return await asyncio.gather(
                    *(
                        client.request("POST", f"/p{i}", body=f"<{i}>".encode())
                        for i in range(64)
                    )
                )
            finally:
                await client.close()

        responses = _run(MiniH2Server(handler).serve, scenario)
        assert [r.status for r in responses] == [200] * 64
        for i, response in enumerate(responses):
            assert response.body == f"/p{i}".encode() * 500 + f"<{i}>".encode()

    def test_pushed_streams_are_collected_onto_their_request(self):
        async def page(driver, stream_id, path, received):
            driver.conn.send_headers(stream_id, OK)
            for name in ("/a.png", "/b.png"):
                promised = driver.conn.promise_stream(
                    stream_id, GET + [(b":path", name.encode())], OK
                )
                driver.writer.enqueue(promised, name.encode() * 3000, end_stream=True)
            driver.writer.enqueue(stream_id, b"<html>", end_stream=True)
            driver.wake()

        async def scenario(port):
            client = await _open(port)
            try:
                return await client.request("GET", "/page")
            finally:
                await client.close()

        response = _run(_Responder(page).listen, scenario)
        assert response.body == b"<html>"
        assert response.pushed == {"/a.png": b"/a.png" * 3000, "/b.png": b"/b.png" * 3000}

    def test_handshake_timeout(self):
        async def mute(reader, writer):
            await reader.read()  # never answers; waits for the client to give up
            writer.close()

        async def scenario(port):
            client = await ClientConnection.open(
                "127.0.0.1", port, H2Connection(Role.CLIENT), "test"
            )
            with pytest.raises(ConnectionError, match="handshake timed out"):
                await client.settled(timeout_s=0.2)
            return client.closed

        assert _run(lambda: asyncio.start_server(mute, "127.0.0.1", 0), scenario) is True

    @pytest.mark.parametrize("death", ["close", "goaway", "garbage"])
    def test_every_pending_request_fails_when_the_peer_dies(self, death):
        """EOF, GOAWAY and an engine error mid-response all fan out as
        ``ConnectionError`` to every waiter — nothing hangs."""

        async def dying(reader, writer):
            conn = H2Connection(Role.SERVER)
            conn.initiate_connection()
            writer.write(conn.data_to_send())
            requests = 0
            while requests < 3:
                events = conn.receive_data(await reader.read(65536))
                requests += sum(isinstance(e, RequestReceived) for e in events)
                writer.write(conn.data_to_send())
            if death == "goaway":
                conn.close_connection(ErrorCode.INTERNAL_ERROR)
                writer.write(conn.data_to_send())
                await reader.read()  # the client hangs up on GOAWAY
            elif death == "garbage":
                # DATA on stream 0: a connection error inside the client engine.
                writer.write(b"\x00\x00\x01\x00\x00\x00\x00\x00\x00x")
                await reader.read()
            writer.close()

        async def scenario(port):
            client = await _open(port)
            pending = [client.submit(GET + [(b":path", b"/x")]) for _ in range(3)]
            await client.flush()
            results = await asyncio.wait_for(
                asyncio.gather(*pending, return_exceptions=True), 1.0
            )
            with pytest.raises(ConnectionError):
                client.submit(GET + [(b":path", b"/late")])
            await client.close()
            return results

        results = _run(lambda: asyncio.start_server(dying, "127.0.0.1", 0), scenario)
        assert len(results) == 3
        assert all(isinstance(r, ConnectionError) for r in results), results


class TestOneRuntime:
    """Same spirit as the metric-catalog lint: the handshake, the socket
    binding and credit return live in ``repro.http2`` only, so a sixth
    connection loop cannot grow back in a consumer."""

    FORBIDDEN = re.compile(
        r"AsyncH2Transport\(|initiate_connection\(\)|increment_flow_control_window"
    )

    def test_consumers_do_not_hand_roll_connection_loops(self):
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        offenders = []
        scanned = 0
        for package in ("sww", "serving"):
            for path in sorted((src / package).rglob("*.py")):
                scanned += 1
                for number, line in enumerate(path.read_text().splitlines(), 1):
                    if self.FORBIDDEN.search(line):
                        offenders.append(f"{path.relative_to(src)}:{number}: {line.strip()}")
        assert scanned >= 20, "scanner found no sources; the check would pass vacuously"
        assert offenders == [], "\n".join(offenders)

    def test_the_pattern_still_matches_the_runtime_itself(self):
        runtime = Path(__file__).resolve().parents[2] / "src" / "repro" / "http2"
        text = "".join(path.read_text() for path in runtime.glob("*.py"))
        assert len(set(self.FORBIDDEN.findall(text))) == 3
