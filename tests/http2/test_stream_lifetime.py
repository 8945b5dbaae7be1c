"""A connection's stream table holds only streams that are not closed.

The engine drops a stream on its CLOSED transition and decides whether an
absent id is closed or idle from the highest id each parity has opened
(RFC 9113 §5.1.1). A frame for a dropped stream is answered exactly as it
was when closed streams stayed in the table, and a keep-alive connection
costs the same at its ten-thousandth request as at its first.
"""

import gc
import time
import tracemalloc

import pytest

from repro.http2.connection import (
    DataReceived,
    H2Connection,
    RequestReceived,
    Role,
    StreamEnded,
    StreamRefused,
    StreamReset,
    WindowUpdated,
)
from repro.http2.errors import ErrorCode, ProtocolError, StreamError
from repro.http2.frames import (
    DataFrame,
    GoAwayFrame,
    HeadersFrame,
    PriorityFrame,
    PriorityUpdateFrame,
    RstStreamFrame,
    WindowUpdateFrame,
    parse_frames,
)
from repro.http2.writer import ConnectionWriter

REQUEST = [
    (b":method", b"GET"),
    (b":scheme", b"https"),
    (b":path", b"/page"),
    (b":authority", b"test"),
]
RESPONSE = [(b":status", b"200"), (b"content-type", b"text/html"), (b"content-length", b"2600")]
BODY = bytes(2600)


def connect(**server_kwargs) -> tuple[H2Connection, H2Connection]:
    """Two bare engines with the handshake exchanged."""
    client = H2Connection(Role.CLIENT)
    server = H2Connection(Role.SERVER, **server_kwargs)
    client.initiate_connection()
    server.initiate_connection()
    while True:
        out = client.data_to_send()
        back = server.data_to_send()
        if not out and not back:
            return client, server
        server.receive_data(out)
        client.receive_data(back)


def turn(client: H2Connection, server: H2Connection) -> int:
    """One GET answered with a 2.6 kB body; returns the stream id."""
    stream_id = client.get_next_available_stream_id()
    client.send_headers(stream_id, REQUEST, end_stream=True)
    for event in server.receive_data(client.data_to_send()):
        if isinstance(event, RequestReceived):
            server.send_headers(event.stream_id, RESPONSE)
            server.send_data(event.stream_id, BODY, end_stream=True)
    for event in client.receive_data(server.data_to_send()):
        if isinstance(event, DataReceived):
            client.acknowledge_received_data(event.flow_controlled_length, event.stream_id)
    return stream_id


def headers_frame(client: H2Connection, stream_id: int) -> bytes:
    """A request HEADERS frame for ``stream_id``, HPACK-encoded by the
    client so the server's decoder stays in step."""
    block = client.encoder.encode(REQUEST)
    return HeadersFrame(stream_id=stream_id, header_block=block, end_headers=True, end_stream=True).serialize()


class TestPruning:
    def test_an_open_stream_stays_until_it_closes(self):
        client, server = connect()
        stream_id = client.get_next_available_stream_id()
        client.send_headers(stream_id, REQUEST, end_stream=True)
        server.receive_data(client.data_to_send())
        assert stream_id in client.streams and stream_id in server.streams
        server.send_headers(stream_id, RESPONSE)
        server.send_data(stream_id, BODY, end_stream=True)
        assert stream_id not in server.streams
        client.receive_data(server.data_to_send())
        assert stream_id not in client.streams

    def test_reset_stream_leaves_both_tables(self):
        client, server = connect()
        stream_id = client.get_next_available_stream_id()
        client.send_headers(stream_id, REQUEST, end_stream=False)
        server.receive_data(client.data_to_send())
        client.reset_stream(stream_id)
        events = server.receive_data(client.data_to_send())
        assert StreamReset(stream_id=stream_id, error_code=ErrorCode.CANCEL) in events
        assert client.streams == {} and server.streams == {}

    def test_goaway_names_the_highest_peer_stream(self):
        client, server = connect()
        for _ in range(3):
            turn(client, server)
        server.close_connection()
        (goaway,) = [f for f in parse_frames(server.data_to_send())[0] if isinstance(f, GoAwayFrame)]
        assert goaway.last_stream_id == 5


class TestStreamIdOrder:
    def test_headers_below_the_highest_peer_id_are_rejected(self):
        """§5.1.1: opening stream 7 implicitly closes every idle stream
        below it, so HEADERS on stream 5 is not a new request."""
        client, server = connect()
        events = server.receive_data(headers_frame(client, 7))
        assert [type(e) for e in events] == [RequestReceived, StreamEnded]
        with pytest.raises(StreamError) as caught:
            server.receive_data(headers_frame(client, 5))
        assert caught.value.code == ErrorCode.STREAM_CLOSED
        assert 5 not in server.streams

    def test_local_ids_below_the_highest_cannot_be_opened(self):
        client, _ = connect()
        client.send_headers(3, REQUEST, end_stream=True)
        with pytest.raises(ProtocolError):
            client.send_headers(1, REQUEST, end_stream=True)


class TestFramesForAPrunedStream:
    """Each frame type, on a stream that finished and left the table,
    is handled as it was while closed streams were kept."""

    @pytest.fixture
    def pruned(self):
        client, server = connect()
        stream_id = turn(client, server)
        assert stream_id not in server.streams
        return client, server, stream_id

    def test_data_is_a_stream_closed_error(self, pruned):
        _, server, stream_id = pruned
        with pytest.raises(StreamError) as caught:
            server.receive_data(DataFrame(stream_id=stream_id, data=b"late").serialize())
        assert caught.value.code == ErrorCode.STREAM_CLOSED

    def test_headers_are_a_stream_closed_error(self, pruned):
        client, server, stream_id = pruned
        with pytest.raises(StreamError) as caught:
            server.receive_data(headers_frame(client, stream_id))
        assert caught.value.code == ErrorCode.STREAM_CLOSED

    def test_rst_stream_is_tolerated(self, pruned):
        _, server, stream_id = pruned
        wire = RstStreamFrame(stream_id=stream_id, error_code=ErrorCode.CANCEL).serialize()
        events = server.receive_data(wire)
        assert events == [StreamReset(stream_id=stream_id, error_code=ErrorCode.CANCEL)]
        assert stream_id not in server.streams

    def test_rst_stream_on_an_idle_id_is_still_an_error(self, pruned):
        _, server, _ = pruned
        with pytest.raises(ProtocolError, match="idle stream"):
            server.receive_data(RstStreamFrame(stream_id=99).serialize())

    def test_window_update_and_priority_signals_are_ignored(self, pruned):
        _, server, stream_id = pruned
        wire = (
            WindowUpdateFrame(stream_id=stream_id, increment=1000).serialize()
            + PriorityUpdateFrame(prioritized_stream_id=stream_id, field_value=b"u=0").serialize()
            + PriorityFrame(stream_id=stream_id, weight=256).serialize()
        )
        events = server.receive_data(wire)
        assert events == [WindowUpdated(stream_id=stream_id, delta=1000)]
        assert stream_id not in server.streams

    def test_not_counted_as_a_new_stream(self):
        client, server = connect(max_concurrent_streams=1)
        closed = turn(client, server)
        server.receive_data(headers_frame(client, 3))  # fills the one slot
        with pytest.raises(StreamError):
            server.receive_data(headers_frame(client, closed))
        refusals = [
            f for f in parse_frames(server.data_to_send())[0]
            if isinstance(f, RstStreamFrame) and f.error_code == ErrorCode.REFUSED_STREAM
        ]
        assert refusals == []
        events = server.receive_data(headers_frame(client, 5))
        assert events == [StreamRefused(stream_id=5)]


class TestWriterAsksTheConnection:
    def test_enqueue_after_a_reset_is_rejected(self):
        client, server = connect()
        stream_id = client.get_next_available_stream_id()
        client.send_headers(stream_id, REQUEST, end_stream=True)
        server.receive_data(client.data_to_send())
        server.send_headers(stream_id, RESPONSE)
        client.reset_stream(stream_id)
        server.receive_data(client.data_to_send())
        with pytest.raises(ValueError, match="already finished"):
            ConnectionWriter(server).enqueue(stream_id, BODY)

    def test_enqueue_on_an_idle_stream_is_accepted(self):
        _, server = connect()
        writer = ConnectionWriter(server)
        writer.enqueue(2, BODY)
        assert writer.pending_streams == 1


def test_keep_alive_soak_is_flat():
    """10 000 GET/2.6 kB turns on one connection: both tables empty after
    every turn, no growth in live objects from turn 1 000 on nor in bytes
    traced over a late thousand, and the last thousand turns cost what the
    first thousand did (each thousand's cheapest hundred, so one scheduler
    stall cannot decide it). Tracing runs over turns 8 000–8 999 only: it
    triples a turn's cost, and the timed thousands run untraced."""
    client, server = connect(max_concurrent_streams=100)
    hundreds = []
    for index in range(10_000):
        if index % 100 == 0:
            hundreds.append(time.perf_counter())
        if index == 1_000:
            gc.collect()
            objects = len(gc.get_objects())
        elif index == 8_000:
            tracemalloc.start()
            traced = tracemalloc.get_traced_memory()[0]
        elif index == 9_000:
            traced_growth = tracemalloc.get_traced_memory()[0] - traced
            tracemalloc.stop()
        turn(client, server)
        assert not client.streams and not server.streams
    hundreds.append(time.perf_counter())
    gc.collect()
    object_growth = len(gc.get_objects()) - objects
    costs = [end - start for start, end in zip(hundreds, hundreds[1:])]
    first, last = min(costs[:10]), min(costs[-10:])
    assert object_growth < 100, f"{object_growth} objects over 9 000 turns"
    assert traced_growth < 16_384, f"{traced_growth} B traced over 1 000 turns"
    assert last < 2 * first, f"100 turns: {first * 1e3:.1f} ms at the start, {last * 1e3:.1f} ms at the end"
