"""Abuse containment: MAX_CONCURRENT_STREAMS enforcement (REFUSED_STREAM),
rapid-reset accounting (CVE-2023-44487), control-frame flood limits and
the header-section bound (CONTINUATION floods)."""

import pytest

from repro.devices import WORKSTATION
from repro.http2.connection import (
    MAX_HEADER_SECTION,
    AbuseDetected,
    ConnectionTerminated,
    H2Connection,
    RequestReceived,
    Role,
    StreamRefused,
    StreamReset,
)
from repro.http2.errors import ErrorCode
from repro.http2.frames import ContinuationFrame, HeadersFrame, PingFrame, SettingsFrame
from repro.http2.settings import Setting
from repro.http2.transport import InMemoryTransportPair
from repro.obs import MetricsRegistry
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.server import GenerativeServer, SiteStore

REQUEST = [
    (b":method", b"GET"),
    (b":scheme", b"https"),
    (b":path", b"/page"),
    (b":authority", b"test"),
]


def make_pair(registry=None, **server_kwargs) -> InMemoryTransportPair:
    pair = InMemoryTransportPair(
        H2Connection(Role.CLIENT, gen_ability=True),
        H2Connection(Role.SERVER, gen_ability=True, registry=registry, **server_kwargs),
    )
    pair.handshake()
    return pair


def open_request(pair, path=b"/page", end_stream=True) -> int:
    headers = [(k, path if k == b":path" else v) for k, v in REQUEST]
    stream_id = pair.client.conn.get_next_available_stream_id()
    pair.client.conn.send_headers(stream_id, headers, end_stream=end_stream)
    pair.pump()
    return stream_id


class TestMaxConcurrentStreams:
    def test_limit_advertised_in_settings(self):
        pair = make_pair(max_concurrent_streams=2)
        assert pair.client.conn.peer_settings.max_concurrent_streams == 2

    def test_stream_over_limit_refused(self):
        registry = MetricsRegistry()
        pair = make_pair(registry=registry, max_concurrent_streams=2)
        first = open_request(pair, b"/a")
        second = open_request(pair, b"/b")
        third = open_request(pair, b"/c")

        refusals = [e for e in pair.server.events if isinstance(e, StreamRefused)]
        assert refusals == [StreamRefused(stream_id=third, reason="max-concurrent-streams")]
        # §8.7: REFUSED_STREAM promises no processing — no stream state,
        # no RequestReceived for the refused id.
        assert third not in pair.server.conn.streams
        served = {e.stream_id for e in pair.server.events if isinstance(e, RequestReceived)}
        assert served == {first, second}
        # The client's stream was reset with the retryable code.
        resets = [e for e in pair.client.events if isinstance(e, StreamReset)]
        assert resets and resets[0].error_code == ErrorCode.REFUSED_STREAM
        assert registry.value(
            "http2_refused_streams_total", layer="http2", operation="max-concurrent"
        ) == 1

    def test_closed_streams_free_their_slot(self):
        pair = make_pair(max_concurrent_streams=1)
        first = open_request(pair, b"/a")
        # Server answers and closes the first stream.
        pair.server.conn.send_headers(first, [(b":status", b"200")], end_stream=True)
        pair.pump()
        second = open_request(pair, b"/b")
        assert second in pair.server.conn.streams
        assert not any(isinstance(e, StreamRefused) for e in pair.server.events)

    def test_unlimited_by_default(self):
        pair = make_pair()
        for index in range(12):
            open_request(pair, f"/p{index}".encode())
        assert not any(isinstance(e, StreamRefused) for e in pair.server.events)


class TestRapidReset:
    def test_open_then_cancel_loop_trips_goaway(self):
        registry = MetricsRegistry()
        pair = make_pair(registry=registry, rapid_reset_limit=4)
        for index in range(4):
            stream_id = open_request(pair, f"/p{index}".encode(), end_stream=False)
            pair.client.conn.reset_stream(stream_id, ErrorCode.CANCEL)
            pair.pump()

        abuses = [e for e in pair.server.events if isinstance(e, AbuseDetected)]
        assert abuses == [AbuseDetected(kind="rapid-reset", count=4)]
        # GOAWAY with ENHANCE_YOUR_CALM reached the client.
        from repro.http2.connection import ConnectionTerminated

        terms = [e for e in pair.client.events if isinstance(e, ConnectionTerminated)]
        assert terms and terms[0].error_code == ErrorCode.ENHANCE_YOUR_CALM
        assert registry.value(
            "http2_rst_received_total", layer="http2", operation="CANCEL"
        ) == 4
        assert registry.value(
            "http2_goaway_sent_total", layer="http2", operation="ENHANCE_YOUR_CALM"
        ) == 1

    def test_reset_after_completion_is_not_rapid(self):
        """Cancelling a stream the server already answered is normal
        operation, not an attack; it must not count toward the limit."""
        pair = make_pair(rapid_reset_limit=3)
        for index in range(6):
            stream_id = open_request(pair, f"/p{index}".encode())
            pair.server.conn.send_headers(stream_id, [(b":status", b"200")], end_stream=True)
            pair.pump()
            pair.client.conn.reset_stream(stream_id, ErrorCode.CANCEL)
            pair.pump()
        assert not any(isinstance(e, AbuseDetected) for e in pair.server.events)

    def test_under_limit_no_goaway(self):
        pair = make_pair(rapid_reset_limit=10)
        for index in range(5):
            stream_id = open_request(pair, f"/p{index}".encode(), end_stream=False)
            pair.client.conn.reset_stream(stream_id, ErrorCode.CANCEL)
            pair.pump()
        assert not any(isinstance(e, AbuseDetected) for e in pair.server.events)


class TestControlFloods:
    def test_ping_flood_trips_enhance_your_calm(self):
        # The handshake's own SETTINGS already counted one control frame.
        pair = make_pair(control_flood_limit=8)
        baseline = pair.server.conn._control_frames
        events = []
        for index in range(8 - baseline):
            events += pair.server.conn.receive_data(
                PingFrame(data=index.to_bytes(8, "big")).serialize()
            )
        abuses = [e for e in events if isinstance(e, AbuseDetected)]
        assert abuses == [AbuseDetected(kind="ping-flood", count=8)]

    def test_settings_flood_trips_enhance_your_calm(self):
        pair = make_pair(control_flood_limit=6)
        events = []
        for _ in range(6):
            events += pair.server.conn.receive_data(
                SettingsFrame(settings={int(Setting.ENABLE_PUSH): 0}).serialize()
            )
        abuses = [e for e in events if isinstance(e, AbuseDetected)]
        assert abuses and abuses[0].kind == "settings-flood"

    def test_ping_acks_do_not_count(self):
        """Only ack-eliciting frames amplify; our own acked pings are free."""
        pair = make_pair(control_flood_limit=4)
        baseline = pair.server.conn._control_frames
        for _ in range(10):
            pair.server.conn.receive_data(PingFrame(data=b"\0" * 8, ack=True).serialize())
        assert pair.server.conn._control_frames == baseline

    def test_goaway_sent_once_for_sustained_abuse(self):
        pair = make_pair(control_flood_limit=3)
        for _ in range(9):
            pair.server.conn.receive_data(PingFrame(data=b"\0" * 8).serialize())
        pair.pump()
        from repro.http2.connection import ConnectionTerminated

        terms = [e for e in pair.client.events if isinstance(e, ConnectionTerminated)]
        assert len(terms) == 1
        assert terms[0].debug_data == b"ping-flood"


def counting_decoder(monkeypatch, conn: H2Connection) -> list[int]:
    """Record the size of every block ``conn`` HPACK-decodes."""
    decoded: list[int] = []
    decode = conn.decoder.decode

    def counting(block):
        decoded.append(len(block))
        return decode(block)

    monkeypatch.setattr(conn.decoder, "decode", counting)
    return decoded


class TestHeaderSectionBound:
    def test_empty_continuation_flood_is_never_decoded(self, monkeypatch):
        pair = make_pair()
        server = pair.server.conn
        decoded = counting_decoder(monkeypatch, server)
        frames = [HeadersFrame(stream_id=1, end_stream=True, end_headers=False)]
        frames += [ContinuationFrame(stream_id=1)] * (MAX_HEADER_SECTION // 9)
        frames.append(ContinuationFrame(stream_id=1, header_block=b"\x82", end_headers=True))
        events = server.receive_data(b"".join(f.serialize() for f in frames))
        pair.pump()

        # The first frame past the bound ends the section: 7 282 frame headers.
        assert [e for e in events if isinstance(e, AbuseDetected)] == [
            AbuseDetected(kind="continuation-flood", count=9 * (MAX_HEADER_SECTION // 9 + 1))
        ]
        assert not any(isinstance(e, RequestReceived) for e in events)
        assert decoded == []
        terms = [e for e in pair.client.events if isinstance(e, ConnectionTerminated)]
        assert [(t.error_code, t.debug_data) for t in terms] == [
            (ErrorCode.ENHANCE_YOUR_CALM, b"continuation-flood")
        ]
        # Nothing more is read from a peer whose header block was refused.
        assert server.receive_data(PingFrame(data=b"\0" * 8).serialize()) == []

    def test_oversized_request_through_the_server_ends_in_enhance_your_calm(self, monkeypatch):
        server = GenerativeServer(SiteStore())
        pair = connect_in_memory(GenerativeClient(device=WORKSTATION), server)
        decoded = counting_decoder(monkeypatch, pair.server.conn)
        headers = [
            (b":method", b"GET"),
            (b":path", b"/"),
            (b":scheme", b"https"),
            (b":authority", b"sww.example"),
            (b"x-pad", b"\xff" * MAX_HEADER_SECTION),
        ]

        async def flood():
            answer = pair.client.submit(headers)
            await pair.client.flush()
            with pytest.raises(ConnectionError, match=f"error code {int(ErrorCode.ENHANCE_YOUR_CALM)}"):
                await answer

        pair.run(flood())
        assert decoded == []
