"""Protocol-robustness tests: malformed inputs and adversarial byte streams.

The engine must fail *predictably* — typed H2 errors with the right RFC
error codes — never with unhandled exceptions, regardless of what bytes
arrive.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.http2.connection import (
    CONNECTION_PREFACE,
    MAX_HEADER_SECTION,
    AbuseDetected,
    H2Connection,
    RequestReceived,
    Role,
)
from repro.http2.errors import (
    CompressionError,
    ErrorCode,
    FlowControlError,
    FrameError,
    H2Error,
    ProtocolError,
    StreamError,
)
from repro.http2.frames import (
    ContinuationFrame,
    DataFrame,
    GoAwayFrame,
    HeadersFrame,
    SettingsFrame,
    parse_frames,
)
from repro.http2.hpack import HpackEncoder
from repro.http2.transport import InMemoryTransportPair


def frame(ftype: int, flags: int, stream_id: int, payload: bytes) -> bytes:
    header = struct.pack(
        ">BHBBL", (len(payload) >> 16) & 0xFF, len(payload) & 0xFFFF, ftype, flags, stream_id
    )
    return header + payload


def fresh_server() -> H2Connection:
    server = H2Connection(Role.SERVER, gen_ability=True)
    client = H2Connection(Role.CLIENT, gen_ability=True)
    pair = InMemoryTransportPair(client, server)
    pair.handshake()
    return server


class TestMalformedFrames:
    def test_data_on_stream_zero(self):
        server = fresh_server()
        with pytest.raises(ProtocolError):
            server.receive_data(frame(0x0, 0, 0, b"payload"))

    def test_headers_on_stream_zero(self):
        server = fresh_server()
        with pytest.raises(ProtocolError):
            server.receive_data(frame(0x1, 0x4, 0, b"\x82"))

    def test_window_update_zero_increment(self):
        server = fresh_server()
        with pytest.raises(ProtocolError):
            server.receive_data(frame(0x8, 0, 0, struct.pack(">L", 0)))

    def test_ping_wrong_length(self):
        server = fresh_server()
        with pytest.raises(FrameError):
            server.receive_data(frame(0x6, 0, 0, b"short"))

    def test_rst_for_idle_stream(self):
        server = fresh_server()
        with pytest.raises(ProtocolError):
            server.receive_data(frame(0x3, 0, 7, struct.pack(">L", 0x8)))

    def test_continuation_without_headers(self):
        server = fresh_server()
        with pytest.raises(ProtocolError):
            server.receive_data(frame(0x9, 0x4, 1, b"\x82"))

    def test_interleaved_frame_during_continuation(self):
        server = fresh_server()
        # HEADERS without END_HEADERS, then a PING: protocol error.
        server.receive_data(frame(0x1, 0x0, 1, b"\x82"))
        with pytest.raises(ProtocolError):
            server.receive_data(frame(0x6, 0, 0, b"12345678"))

    def test_data_for_idle_stream(self):
        server = fresh_server()
        with pytest.raises(StreamError) as excinfo:
            server.receive_data(frame(0x0, 0, 5, b"x"))
        assert excinfo.value.code == ErrorCode.STREAM_CLOSED

    def test_garbage_hpack_block(self):
        server = fresh_server()
        # Index 0 is never valid HPACK.
        with pytest.raises(CompressionError):
            server.receive_data(frame(0x1, 0x4, 1, b"\x80"))

    def test_client_receives_push_with_push_disabled(self):
        from repro.http2.settings import Setting

        client = H2Connection(Role.CLIENT)
        client.local_settings.update({Setting.ENABLE_PUSH: 0})
        client._preface_pending = False
        with pytest.raises(ProtocolError):
            client.receive_data(frame(0x5, 0x4, 1, struct.pack(">L", 2) + b"\x82"))


class TestFlowControlViolations:
    def test_peer_overruns_connection_window(self):
        client = H2Connection(Role.CLIENT, initial_window_size=100)
        server = H2Connection(Role.SERVER)
        pair = InMemoryTransportPair(client, server)
        pair.handshake()
        sid = client.get_next_available_stream_id()
        client.send_headers(sid, [(b":method", b"POST"), (b":path", b"/")])
        pair.pump()
        # Hand-feed DATA beyond the 100-byte receive window the client
        # advertised: must raise FLOW_CONTROL_ERROR on the client side.
        oversized = frame(0x0, 0, sid, b"x" * 200)
        with pytest.raises(FlowControlError):
            client.receive_data(oversized)

    def test_sender_respects_own_window_bookkeeping(self):
        client = H2Connection(Role.CLIENT)
        server = H2Connection(Role.SERVER, initial_window_size=50)
        pair = InMemoryTransportPair(client, server)
        pair.handshake()
        sid = client.get_next_available_stream_id()
        client.send_headers(sid, [(b":method", b"POST"), (b":path", b"/")])
        with pytest.raises(FlowControlError):
            client.send_data(sid, b"x" * 51)


class TestByteStreamFuzz:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.binary(min_size=0, max_size=400))
    def test_random_bytes_never_crash_unexpectedly(self, blob):
        """Arbitrary post-preface bytes produce H2Error or clean parses —
        never an unrelated exception."""
        server = H2Connection(Role.SERVER)
        try:
            server.receive_data(CONNECTION_PREFACE + blob)
        except H2Error:
            pass  # typed protocol failure: acceptable

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.binary(min_size=0, max_size=60), max_size=6), st.integers(0, 2**16 - 1))
    def test_valid_frames_with_junk_tail(self, payloads, junk_seed):
        """Valid frames parse even when followed by a truncated tail."""
        wire = b"".join(DataFrame(stream_id=1, data=p).serialize() for p in payloads)
        junk = junk_seed.to_bytes(2, "big")
        frames, rest = parse_frames(wire + junk)
        assert len(frames) == len(payloads)
        assert rest == junk or len(rest) <= len(junk)


class TestHeaderSectionBound:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.one_of(st.integers(0, 2_000), st.integers(60_000, 70_000)),
        st.lists(st.integers(0, 16_384), max_size=8),
        st.one_of(st.integers(0, 50), st.integers(7_000, 7_500)),
    )
    def test_section_decodes_or_ends_in_enhance_your_calm(self, pad, sizes, empties):
        """HEADERS without END_HEADERS, then CONTINUATIONs of random sizes
        (empty ones included): the block decodes when its frames fit the
        bound, else the connection ends in ENHANCE_YOUR_CALM undecoded."""
        headers = [(b":method", b"GET"), (b":path", b"/"), (b"x-pad", b"p" * pad)]
        block = HpackEncoder(use_huffman=False).encode(headers)
        fragments = []
        for size in sizes:
            fragments.append(block[:size])
            block = block[size:]
        fragments += [block[i : i + 16_384] for i in range(0, len(block), 16_384)]
        fragments[-1:-1] = [b""] * empties
        frames = [HeadersFrame(stream_id=1, header_block=fragments[0], end_stream=True, end_headers=False)]
        frames += [ContinuationFrame(stream_id=1, header_block=f) for f in fragments[1:]]
        frames.append(ContinuationFrame(stream_id=1, end_headers=True))
        cost = sum(9 + len(f.header_block) for f in frames)

        server = fresh_server()
        events = []
        try:
            for f in frames:
                events += server.receive_data(f.serialize())
                section = server._expect_continuation
                assert section is None or len(section[1]) <= MAX_HEADER_SECTION
        except H2Error:
            pass  # typed protocol failure: acceptable
        if cost <= MAX_HEADER_SECTION:
            assert [e.headers for e in events if isinstance(e, RequestReceived)] == [headers]
        else:
            assert [e.kind for e in events if isinstance(e, AbuseDetected)] == ["continuation-flood"]
            (goaway,) = [f for f in parse_frames(server.data_to_send())[0] if isinstance(f, GoAwayFrame)]
            assert goaway.error_code == ErrorCode.ENHANCE_YOUR_CALM


class TestSettingsEdgeCases:
    def test_mid_stream_settings_change_applies_to_new_streams(self):
        client = H2Connection(Role.CLIENT)
        server = H2Connection(Role.SERVER)
        pair = InMemoryTransportPair(client, server)
        pair.handshake()
        from repro.http2.settings import Setting

        server.update_settings({Setting.INITIAL_WINDOW_SIZE: 777})
        pair.pump()
        sid = client.get_next_available_stream_id()
        client.send_headers(sid, [(b":method", b"GET"), (b":path", b"/")])
        assert client.streams[sid].outbound_window.available == 777

    def test_window_resize_adjusts_open_streams(self):
        client = H2Connection(Role.CLIENT)
        server = H2Connection(Role.SERVER)
        pair = InMemoryTransportPair(client, server)
        pair.handshake()
        sid = client.get_next_available_stream_id()
        client.send_headers(sid, [(b":method", b"POST"), (b":path", b"/")])
        client.send_data(sid, b"x" * 1000)
        pair.pump()
        before = client.streams[sid].outbound_window.available
        from repro.http2.settings import Setting

        server.update_settings({Setting.INITIAL_WINDOW_SIZE: (1 << 24) + 5000})
        pair.pump()
        assert client.streams[sid].outbound_window.available == before + 5000

    def test_invalid_setting_value_is_protocol_error(self):
        server = fresh_server()
        payload = struct.pack(">HL", 0x2, 7)  # ENABLE_PUSH must be 0/1
        with pytest.raises(ProtocolError):
            server.receive_data(frame(0x4, 0, 0, payload))

    def test_settings_ack_storm_quiesces(self):
        """Two chatty peers must not ACK-loop forever."""
        client = H2Connection(Role.CLIENT)
        server = H2Connection(Role.SERVER)
        pair = InMemoryTransportPair(client, server)
        pair.handshake()
        for _ in range(5):
            client._emit_frame(SettingsFrame(settings={0x3: 100}))
            server._emit_frame(SettingsFrame(settings={0x3: 100}))
        pair.pump()  # raises RuntimeError if it never settles
