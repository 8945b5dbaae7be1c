"""Tests for the flow-control-aware connection writer (stream scheduler)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.http2.connection import (
    DataReceived,
    H2Connection,
    RequestReceived,
    Role,
    StreamEnded,
    WindowUpdated,
)
from repro.http2.frames import DataFrame, parse_frames
from repro.http2.transport import InMemoryTransportPair
from repro.http2.writer import ConnectionWriter

REQUEST = [
    (b":method", b"GET"),
    (b":scheme", b"https"),
    (b":path", b"/page"),
    (b":authority", b"test"),
]
RESPONSE = [(b":status", b"200"), (b"content-type", b"text/html")]


def small_window_pair(window: int = 4096) -> InMemoryTransportPair:
    """Handshaken pair whose CLIENT advertises a tiny per-stream window,
    so the server's outbound stream windows start at ``window``."""
    pair = InMemoryTransportPair(
        H2Connection(Role.CLIENT, gen_ability=True, initial_window_size=window),
        H2Connection(Role.SERVER, gen_ability=True),
    )
    pair.handshake()
    return pair


def open_request(pair: InMemoryTransportPair, path: bytes = b"/page") -> int:
    headers = [(k, path if k == b":path" else v) for k, v in REQUEST]
    stream_id = pair.client.conn.get_next_available_stream_id()
    pair.client.conn.send_headers(stream_id, headers, end_stream=True)
    pair.pump()
    assert any(isinstance(e, RequestReceived) for e in pair.server.take_events())
    return stream_id


def client_body(pair: InMemoryTransportPair, stream_id: int) -> bytes:
    body = bytearray()
    for event in pair.client.events:
        if isinstance(event, DataReceived) and event.stream_id == stream_id:
            body += event.data
    return bytes(body)


class TestFlowControlPause:
    def test_pauses_at_stream_window_and_resumes_on_window_update(self):
        window = 4096
        pair = small_window_pair(window)
        stream_id = open_request(pair)
        body = bytes(range(256)) * 64  # 16 KiB, 4x the stream window

        writer = ConnectionWriter(pair.server.conn)
        pair.server.conn.send_headers(stream_id, RESPONSE)
        writer.enqueue(stream_id, body, end_stream=True)
        writer.pump()
        pair.pump()

        # Exactly one window's worth crossed the wire, then the stream parked.
        assert len(client_body(pair, stream_id)) == window
        assert writer.pending_streams == 1
        assert writer.pending_bytes == len(body) - window
        assert pair.server.conn.streams[stream_id].outbound_window.available == 0
        assert not any(isinstance(e, StreamEnded) for e in pair.client.events)

        # Pumping again without new credit makes no progress and counts a stall.
        stalls_before = writer.stream_stalls
        assert writer.pump() == 0
        assert writer.stream_stalls > stalls_before

        # Replenish in window-sized grants until the response completes.
        rounds = 0
        while writer.pending_streams and rounds < 16:
            pair.client.conn.increment_flow_control_window(window, stream_id=stream_id)
            pair.pump()  # delivers WINDOW_UPDATE to the server engine
            assert any(
                isinstance(e, WindowUpdated) and e.stream_id == stream_id
                for e in pair.server.take_events()
            )
            writer.pump()
            pair.pump()
            rounds += 1

        assert writer.idle
        assert client_body(pair, stream_id) == body
        assert any(isinstance(e, StreamEnded) for e in pair.client.events)

    def test_never_overruns_peer_window(self):
        """The client engine enforces its own receive windows: any overrun
        would raise FlowControlError inside pump(). Drive an adversarially
        sized body through repeated partial grants and let both engines'
        accounting assert the invariant."""
        window = 1000
        pair = small_window_pair(window)
        stream_id = open_request(pair)
        body = b"x" * 5003  # not a multiple of any grant size

        writer = ConnectionWriter(pair.server.conn)
        pair.server.conn.send_headers(stream_id, RESPONSE)
        writer.enqueue(stream_id, body, end_stream=True)
        for _ in range(40):
            writer.pump()
            pair.pump()  # raises FlowControlError on any overrun
            if writer.idle:
                break
            pair.client.conn.increment_flow_control_window(137, stream_id=stream_id)
            pair.pump()
        assert writer.idle
        assert client_body(pair, stream_id) == body

    def test_connection_window_shared_across_streams(self):
        """With ample stream windows, the 64 KiB connection window is the
        binding constraint; the writer parks everyone and resumes on a
        connection-level WINDOW_UPDATE."""
        pair = InMemoryTransportPair(
            H2Connection(Role.CLIENT, gen_ability=True, initial_window_size=65535),
            H2Connection(Role.SERVER, gen_ability=True),
        )
        pair.handshake()
        first = open_request(pair, b"/a")
        second = open_request(pair, b"/b")
        conn_window = pair.server.conn.outbound_window.available
        body = b"y" * conn_window  # each body alone could fill the connection

        writer = ConnectionWriter(pair.server.conn)
        for sid in (first, second):
            pair.server.conn.send_headers(sid, RESPONSE)
            writer.enqueue(sid, body, end_stream=True)
        writer.pump()
        pair.pump()
        received = len(client_body(pair, first)) + len(client_body(pair, second))
        assert received == conn_window
        assert pair.server.conn.outbound_window.available == 0
        assert writer.connection_stalls > 0

        pair.client.conn.increment_flow_control_window(len(body))
        # Stream windows also drained; top them up too.
        for sid in (first, second):
            pair.client.conn.increment_flow_control_window(len(body), stream_id=sid)
        pair.pump()
        writer.pump()
        pair.pump()
        assert client_body(pair, first) == body
        assert client_body(pair, second) == body
        assert writer.idle


class TestInterleaving:
    def test_small_response_completes_while_large_mid_stream(self):
        """Round-robin scheduling: one frame per stream per round, so the
        100-byte page's END_STREAM lands before the 64 KiB asset finishes."""
        pair = small_window_pair(1 << 20)
        large = open_request(pair, b"/large")
        small = open_request(pair, b"/small")
        large_body = b"L" * (1 << 16)
        small_body = b"s" * 100

        writer = ConnectionWriter(pair.server.conn)
        pair.server.conn.send_headers(large, RESPONSE)
        writer.enqueue(large, large_body, end_stream=True)
        pair.server.conn.send_headers(small, RESPONSE)
        writer.enqueue(small, small_body, end_stream=True)
        writer.pump()

        wire = pair.server.conn.data_to_send()
        frames, rest = parse_frames(wire)
        assert rest == b""
        data_frames = [f for f in frames if isinstance(f, DataFrame)]
        small_end = next(
            i for i, f in enumerate(data_frames) if f.stream_id == small and f.end_stream
        )
        large_after_small = [
            f for f in data_frames[small_end + 1 :] if f.stream_id == large
        ]
        assert large_after_small, "small stream should finish while large is mid-transfer"

        pair.client.events.extend(pair.client.conn.receive_data(wire))
        assert client_body(pair, large) == large_body
        assert client_body(pair, small) == small_body

    def test_round_robin_alternates_frames(self):
        pair = small_window_pair(1 << 20)
        first = open_request(pair, b"/a")
        second = open_request(pair, b"/b")
        frame_limit = pair.server.conn.peer_settings.max_frame_size
        body = b"z" * (frame_limit * 3)

        writer = ConnectionWriter(pair.server.conn)
        for sid in (first, second):
            pair.server.conn.send_headers(sid, RESPONSE)
            writer.enqueue(sid, body, end_stream=True)
        writer.pump()
        frames, _ = parse_frames(pair.server.conn.data_to_send())
        order = [f.stream_id for f in frames if isinstance(f, DataFrame)]
        assert order[:6] == [first, second, first, second, first, second]


class TestQueueSemantics:
    def test_enqueue_after_finish_rejected(self):
        pair = small_window_pair(1 << 20)
        stream_id = open_request(pair)
        writer = ConnectionWriter(pair.server.conn)
        pair.server.conn.send_headers(stream_id, RESPONSE)
        writer.enqueue(stream_id, b"done", end_stream=True)
        writer.pump()
        pair.pump()
        with pytest.raises(ValueError):
            writer.enqueue(stream_id, b"more")

    def test_chunked_enqueue_appends_in_order(self):
        pair = small_window_pair(1 << 20)
        stream_id = open_request(pair)
        writer = ConnectionWriter(pair.server.conn)
        pair.server.conn.send_headers(stream_id, RESPONSE)
        writer.enqueue(stream_id, b"hello ", end_stream=False)
        writer.enqueue(stream_id, b"world", end_stream=True)
        writer.pump()
        pair.pump()
        assert client_body(pair, stream_id) == b"hello world"
        assert any(isinstance(e, StreamEnded) for e in pair.client.events)

    def test_reset_stream_drops_queue(self):
        pair = small_window_pair(100)
        stream_id = open_request(pair)
        writer = ConnectionWriter(pair.server.conn)
        pair.server.conn.send_headers(stream_id, RESPONSE)
        writer.enqueue(stream_id, b"q" * 500, end_stream=True)
        writer.pump()
        pair.pump()
        # Peer cancels mid-response; the queued remainder must be dropped.
        pair.client.conn.reset_stream(stream_id)
        pair.pump()
        pair.server.take_events()
        writer.pump()
        assert writer.idle


class TestZeroCopy:
    def test_take_returns_view_into_original_body(self):
        from repro.http2.writer import _SendQueue

        body = bytes(range(256)) * 16
        queue = _SendQueue(1, memoryview(body), end_stream=True)
        chunk = queue.take(1024)
        assert isinstance(chunk, memoryview)
        assert chunk.obj is body  # a slice of the body, not a copy
        assert queue.remaining == len(body) - 1024

    def test_enqueue_keeps_caller_buffer_without_copying(self):
        pair = small_window_pair(1 << 20)
        stream_id = open_request(pair)
        writer = ConnectionWriter(pair.server.conn)
        pair.server.conn.send_headers(stream_id, RESPONSE)
        body = b"z" * 50_000
        writer.enqueue(stream_id, body)
        assert writer._queues[stream_id].data.obj is body

    def test_zero_copy_path_delivers_identical_bytes(self):
        """The memoryview plumbing must be invisible on the wire: the
        client reassembles exactly the enqueued body across many frames."""
        pair = small_window_pair(1 << 20)
        stream_id = open_request(pair)
        writer = ConnectionWriter(pair.server.conn)
        pair.server.conn.send_headers(stream_id, RESPONSE)
        body = bytes(range(256)) * 256  # 64 KiB, several MAX_FRAME_SIZE frames
        writer.enqueue(stream_id, body)
        writer.pump()
        pair.pump()
        assert client_body(pair, stream_id) == body
        assert any(isinstance(e, StreamEnded) for e in pair.client.events)

    def test_dataframe_serializes_memoryview_like_bytes(self):
        plain = DataFrame(stream_id=1, data=b"abcdef", end_stream=True)
        viewed = DataFrame(stream_id=1, data=memoryview(b"abcdef"), end_stream=True)
        assert viewed.serialize() == plain.serialize()

    def test_padded_dataframe_accepts_memoryview(self):
        plain = DataFrame(stream_id=1, data=b"abc", pad_length=4)
        viewed = DataFrame(stream_id=1, data=memoryview(b"abc"), pad_length=4)
        assert viewed.serialize() == plain.serialize()
        parsed = parse_frames(memoryview(viewed.serialize()))[0][0]
        assert bytes(parsed.data) == b"abc"


class TestPendingBytesProperty:
    """``pending_bytes`` is a running sum kept by ``enqueue``, frame
    sends, dropped queues and ``abort_pending``; it must always equal the
    bytes the queues actually hold."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["open", "append", "pump", "credit", "reset", "abort"]),
                st.integers(0, 7),
                st.integers(1, 6000),
            ),
            max_size=40,
        )
    )
    # A parked body dropped because its stream was reset under it.
    @example([("open", 0, 3000), ("pump", 0, 1), ("reset", 0, 1), ("pump", 0, 1)])
    def test_running_sum_equals_recomputed_after_every_operation(self, operations):
        pair = small_window_pair(1000)
        server, client = pair.server.conn, pair.client.conn
        writer = ConnectionWriter(server)
        opened: list[int] = []
        for operation, index, size in operations:
            if operation == "open":
                stream_id = open_request(pair)
                server.send_headers(stream_id, RESPONSE)
                writer.enqueue(stream_id, bytes(size), end_stream=index % 2 == 0)
                opened.append(stream_id)
            elif operation == "pump":
                writer.pump()
                pair.pump()
            elif operation == "abort":
                writer.abort_pending()
            elif opened:
                stream_id = opened[index % len(opened)]
                stream = server.streams.get(stream_id)
                queue = writer._queues.get(stream_id)
                if operation == "append":
                    if stream is not None and stream.can_send_data and not (queue and queue.end_stream):
                        writer.enqueue(stream_id, bytes(size), end_stream=index % 2 == 0)
                elif operation == "credit":
                    if stream_id in client.streams:
                        client.increment_flow_control_window(size, stream_id)
                    client.increment_flow_control_window(size)
                    pair.pump()
                elif stream is not None:  # reset: the next pump drops the queue
                    server.reset_stream(stream_id)
                    pair.pump()
            recomputed = sum(queue.queued for queue in writer._queues.values())
            assert writer.pending_bytes == recomputed, (operation, writer.pending_bytes, recomputed)
