"""Scheduling tests for the urgency-bucketed writer (RFC 9218 semantics,
anti-starvation credit, and equivalence with the legacy round robin)."""

import pytest

from repro.http2.connection import H2Connection, RequestReceived, Role
from repro.http2.frames import DataFrame, parse_frames
from repro.http2.priority import Priority
from repro.http2.transport import InMemoryTransportPair
from repro.http2.writer import ConnectionWriter

REQUEST = [
    (b":method", b"GET"),
    (b":scheme", b"https"),
    (b":path", b"/page"),
    (b":authority", b"test"),
]
RESPONSE = [(b":status", b"200"), (b"content-type", b"text/html")]


def make_pair(window: int = 1 << 20) -> InMemoryTransportPair:
    pair = InMemoryTransportPair(
        H2Connection(Role.CLIENT, gen_ability=True, initial_window_size=window),
        H2Connection(Role.SERVER, gen_ability=True),
    )
    pair.handshake()
    return pair


def open_request(pair, path=b"/page", priority: bytes | None = None):
    headers = [(k, path if k == b":path" else v) for k, v in REQUEST]
    if priority is not None:
        headers.append((b"priority", priority))
    stream_id = pair.client.conn.get_next_available_stream_id()
    pair.client.conn.send_headers(stream_id, headers, end_stream=True)
    pair.pump()
    assert any(isinstance(e, RequestReceived) for e in pair.server.take_events())
    return stream_id


def data_order(pair) -> list[int]:
    frames, rest = parse_frames(pair.server.conn.data_to_send())
    assert rest == b""
    return [f.stream_id for f in frames if isinstance(f, DataFrame)]


def respond(pair, writer, stream_id, body, **kwargs):
    pair.server.conn.send_headers(stream_id, RESPONSE)
    writer.enqueue(stream_id, body, end_stream=True, **kwargs)


class TestUrgencyOrdering:
    def test_urgent_stream_preempts_bulk(self):
        """A u=1 response enqueued *after* two u=5 responses still sends
        every frame first (strict priority, not arrival order)."""
        pair = make_pair()
        bulk_a = open_request(pair, b"/a", priority=b"u=5, i")
        bulk_b = open_request(pair, b"/b", priority=b"u=5, i")
        critical = open_request(pair, b"/critical", priority=b"u=1")
        frame = pair.server.conn.peer_settings.max_frame_size

        writer = ConnectionWriter(pair.server.conn)
        respond(pair, writer, bulk_a, b"a" * (frame * 2))
        respond(pair, writer, bulk_b, b"b" * (frame * 2))
        respond(pair, writer, critical, b"c" * (frame * 2))
        writer.pump()

        order = data_order(pair)
        assert order[:2] == [critical, critical]
        assert set(order[2:]) == {bulk_a, bulk_b}

    def test_incremental_same_bucket_round_robins(self):
        pair = make_pair()
        first = open_request(pair, b"/a", priority=b"u=5, i")
        second = open_request(pair, b"/b", priority=b"u=5, i")
        frame = pair.server.conn.peer_settings.max_frame_size

        writer = ConnectionWriter(pair.server.conn)
        respond(pair, writer, first, b"a" * (frame * 3))
        respond(pair, writer, second, b"b" * (frame * 3))
        writer.pump()
        assert data_order(pair)[:6] == [first, second, first, second, first, second]

    def test_non_incremental_runs_to_completion(self):
        """§4.2: a non-incremental response is useless until complete, so
        the writer does not interleave it with its bucket peers."""
        pair = make_pair()
        first = open_request(pair, b"/a", priority=b"u=3")
        second = open_request(pair, b"/b", priority=b"u=3")
        frame = pair.server.conn.peer_settings.max_frame_size

        writer = ConnectionWriter(pair.server.conn)
        respond(pair, writer, first, b"a" * (frame * 3))
        respond(pair, writer, second, b"b" * (frame * 3))
        writer.pump()
        assert data_order(pair) == [first] * 3 + [second] * 3

    def test_unsignalled_streams_reproduce_legacy_round_robin(self):
        """No priority signal → default bucket, incremental: byte-for-byte
        the pre-priority writer's schedule."""
        pair = make_pair()
        first = open_request(pair, b"/a")
        second = open_request(pair, b"/b")
        frame = pair.server.conn.peer_settings.max_frame_size

        writer = ConnectionWriter(pair.server.conn)
        respond(pair, writer, first, b"x" * (frame * 3))
        respond(pair, writer, second, b"y" * (frame * 3))
        writer.pump()
        assert data_order(pair)[:6] == [first, second, first, second, first, second]

    def test_explicit_enqueue_arguments_win_over_stream_signal(self):
        pair = make_pair()
        first = open_request(pair, b"/a", priority=b"u=6, i")
        second = open_request(pair, b"/b", priority=b"u=1")
        frame = pair.server.conn.peer_settings.max_frame_size

        writer = ConnectionWriter(pair.server.conn)
        # The owner overrides: first is actually the critical one.
        respond(pair, writer, first, b"a" * frame, urgency=0, incremental=False)
        respond(pair, writer, second, b"b" * frame)
        writer.pump()
        assert data_order(pair)[0] == first


class TestReprioritization:
    def test_reprioritize_moves_stream_between_buckets(self):
        pair = make_pair()
        first = open_request(pair, b"/a", priority=b"u=6, i")
        second = open_request(pair, b"/b", priority=b"u=5, i")
        frame = pair.server.conn.peer_settings.max_frame_size

        writer = ConnectionWriter(pair.server.conn)
        respond(pair, writer, first, b"a" * (frame * 2))
        respond(pair, writer, second, b"b" * (frame * 2))
        assert writer.reprioritize(first, urgency=0, incremental=False)
        writer.pump()
        assert data_order(pair)[:2] == [first, first]

    def test_reprioritize_unknown_stream_is_noop(self):
        pair = make_pair()
        writer = ConnectionWriter(pair.server.conn)
        assert writer.reprioritize(99, urgency=0, incremental=False) is False

    def test_priority_update_frame_drives_reprioritization(self):
        """PRIORITY_UPDATE mid-response → PriorityUpdated event → the
        owner calls reprioritize → the promoted stream jumps the line."""
        pair = make_pair()
        first = open_request(pair, b"/a", priority=b"u=6, i")
        second = open_request(pair, b"/b", priority=b"u=6, i")
        frame = pair.server.conn.peer_settings.max_frame_size

        writer = ConnectionWriter(pair.server.conn)
        respond(pair, writer, first, b"a" * (frame * 2))
        respond(pair, writer, second, b"b" * (frame * 2))
        pair.client.conn.send_priority_update(second, Priority(urgency=0))
        pair.pump()
        from repro.http2.connection import PriorityUpdated

        (update,) = [e for e in pair.server.take_events() if isinstance(e, PriorityUpdated)]
        assert writer.reprioritize(update.stream_id, update.urgency, update.incremental)
        writer.pump()
        assert data_order(pair)[:2] == [second, second]

    def test_debug_state_reports_buckets(self):
        pair = make_pair()
        stream = open_request(pair, b"/a", priority=b"u=2, i")
        writer = ConnectionWriter(pair.server.conn)
        pair.server.conn.send_headers(stream, RESPONSE)
        writer.enqueue(stream, b"z" * 10, end_stream=False)
        state = writer.debug_state()
        (entry,) = state["streams"]
        assert entry["urgency"] == 2 and entry["incremental"] is True


class TestStarvation:
    def test_bulk_progresses_under_steady_urgent_stream(self):
        """Anti-starvation credit: u=7 bulk gets one frame per
        ``starvation_interval`` urgent frames instead of waiting for the
        urgent bucket to dry out."""
        pair = make_pair()
        urgent = open_request(pair, b"/urgent", priority=b"u=0, i")
        bulk = open_request(pair, b"/bulk", priority=b"u=7, i")
        frame = pair.server.conn.peer_settings.max_frame_size
        interval = 4

        writer = ConnectionWriter(pair.server.conn, starvation_interval=interval)
        respond(pair, writer, urgent, b"u" * (frame * 12))
        respond(pair, writer, bulk, b"b" * (frame * 2))
        writer.pump()

        order = data_order(pair)
        first_bulk = order.index(bulk)
        # The claim lands after ~interval urgent frames, not after all 12.
        assert first_bulk == interval
        assert writer.starvation_credits >= 1

    def test_strict_priority_when_interval_not_reached(self):
        pair = make_pair()
        urgent = open_request(pair, b"/urgent", priority=b"u=0, i")
        bulk = open_request(pair, b"/bulk", priority=b"u=7, i")
        frame = pair.server.conn.peer_settings.max_frame_size

        writer = ConnectionWriter(pair.server.conn, starvation_interval=100)
        respond(pair, writer, urgent, b"u" * (frame * 3))
        respond(pair, writer, bulk, b"b" * frame)
        writer.pump()
        order = data_order(pair)
        assert order[:3] == [urgent] * 3
        assert writer.starvation_credits == 0

    @pytest.mark.parametrize("interval", [2, 5, 8])
    def test_starvation_bound_property(self, interval):
        """Property: between consecutive bulk frames there are never more
        than ``interval`` + 1 urgent frames (the strict scan can add at
        most one full interval before the next claim)."""
        pair = make_pair()
        urgent = open_request(pair, b"/urgent", priority=b"u=0, i")
        bulk = open_request(pair, b"/bulk", priority=b"u=7, i")
        frame = pair.server.conn.peer_settings.max_frame_size

        writer = ConnectionWriter(pair.server.conn, starvation_interval=interval)
        respond(pair, writer, urgent, b"u" * (frame * 30))
        respond(pair, writer, bulk, b"b" * (frame * 4))
        writer.pump()
        order = data_order(pair)

        gaps, run = [], 0
        for sid in order:
            if sid == bulk:
                gaps.append(run)
                run = 0
            else:
                run += 1
        assert gaps, "bulk never served"
        assert max(gaps) <= interval + 1

    def test_payload_identity_with_priorities(self):
        """Scheduling reorders frames, never bytes: each stream's payload
        reassembles exactly, whatever the urgencies."""
        pair = make_pair()
        streams = {}
        for index, field in enumerate([b"u=0", b"u=3, i", b"u=5, i", b"u=7, i", None]):
            path = f"/s{index}".encode()
            sid = open_request(pair, path, priority=field)
            streams[sid] = bytes([index]) * (1000 * (index + 1))
        writer = ConnectionWriter(pair.server.conn, starvation_interval=2)
        for sid, body in streams.items():
            respond(pair, writer, sid, body)
        writer.pump()
        pair.pump()
        from repro.http2.connection import DataReceived

        for sid, body in streams.items():
            received = b"".join(
                bytes(e.data)
                for e in pair.client.events
                if isinstance(e, DataReceived) and e.stream_id == sid
            )
            assert received == body


class TestFlowControlInteraction:
    def test_urgent_stall_lets_lower_bucket_send(self):
        """A window-stalled urgent stream must not head-of-line-block the
        connection: the scan skips it and serves the next bucket."""
        window = 2048
        pair = InMemoryTransportPair(
            H2Connection(Role.CLIENT, gen_ability=True, initial_window_size=window),
            H2Connection(Role.SERVER, gen_ability=True),
        )
        pair.handshake()
        urgent = open_request(pair, b"/urgent", priority=b"u=0")
        bulk = open_request(pair, b"/bulk", priority=b"u=5, i")

        writer = ConnectionWriter(pair.server.conn)
        respond(pair, writer, urgent, b"u" * (window * 4))  # 4x its stream window
        respond(pair, writer, bulk, b"b" * window)
        writer.pump()
        pair.pump()

        from repro.http2.connection import DataReceived

        bulk_bytes = sum(
            len(e.data)
            for e in pair.client.events
            if isinstance(e, DataReceived) and e.stream_id == bulk
        )
        assert bulk_bytes == window  # bulk completed despite urgent parked
        assert writer.stream_stalls >= 1

    def test_never_overruns_windows_across_buckets(self):
        """Adversarial grants against mixed priorities: the client engine
        raises FlowControlError inside pump() on any overrun."""
        window = 999
        pair = InMemoryTransportPair(
            H2Connection(Role.CLIENT, gen_ability=True, initial_window_size=window),
            H2Connection(Role.SERVER, gen_ability=True),
        )
        pair.handshake()
        ids = [
            open_request(pair, b"/a", priority=b"u=0"),
            open_request(pair, b"/b", priority=b"u=3, i"),
            open_request(pair, b"/c", priority=b"u=7, i"),
        ]
        writer = ConnectionWriter(pair.server.conn, starvation_interval=2)
        for sid in ids:
            respond(pair, writer, sid, b"p" * 4001)
        for _ in range(80):
            writer.pump()
            pair.pump()  # raises on any overrun
            if writer.idle:
                break
            for sid in ids:
                pair.client.conn.increment_flow_control_window(211, stream_id=sid)
            pair.client.conn.increment_flow_control_window(633)
            pair.pump()
        assert writer.idle
