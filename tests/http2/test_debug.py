"""Tests for the wire tracer."""

from repro.http2.connection import H2Connection, Role
from repro.http2.debug import describe_frame, trace_wire
from repro.http2.frames import (
    ContinuationFrame,
    DataFrame,
    GoAwayFrame,
    PingFrame,
    PushPromiseFrame,
    SettingsFrame,
)
from repro.http2.transport import InMemoryTransportPair


class TestDescribeFrame:
    def test_settings_with_gen_ability(self):
        text = describe_frame(SettingsFrame(settings={0x7: 1, 0x1: 4096}))
        assert "GEN_ABILITY=1" in text
        assert "HEADER_TABLE_SIZE=4096" in text

    def test_settings_ack(self):
        assert "ACK" in describe_frame(SettingsFrame(ack=True))

    def test_unknown_setting_hex(self):
        assert "0x00ab=5" in describe_frame(SettingsFrame(settings={0xAB: 5}))

    def test_data_preview(self):
        text = describe_frame(DataFrame(stream_id=3, data=b"hello", end_stream=True))
        assert "stream=3" in text and "END_STREAM" in text and "hello" in text

    def test_ping_and_goaway(self):
        assert "PING" in describe_frame(PingFrame(data=b"\x00" * 8))
        assert "GOAWAY" in describe_frame(GoAwayFrame(last_stream_id=5))

    def test_continuation_block_length_and_flag(self):
        text = describe_frame(ContinuationFrame(stream_id=1, header_block=b"x" * 40))
        assert "CONTINUATION" in text and "block=40B" in text and "END_HEADERS" not in text
        final = describe_frame(
            ContinuationFrame(stream_id=1, header_block=b"x" * 7, end_headers=True)
        )
        assert "block=7B END_HEADERS" in final

    def test_push_promise_block_length_and_flag(self):
        text = describe_frame(
            PushPromiseFrame(stream_id=1, promised_stream_id=2, header_block=b"y" * 31)
        )
        assert "PUSH_PROMISE" in text
        assert "promised=2" in text and "block=31B END_HEADERS" in text
        partial = describe_frame(
            PushPromiseFrame(stream_id=1, promised_stream_id=4, header_block=b"", end_headers=False)
        )
        assert "block=0B" in partial and "END_HEADERS" not in partial


class TestTraceWire:
    def test_handshake_trace(self):
        client = H2Connection(Role.CLIENT, gen_ability=True)
        client.initiate_connection()
        trace = trace_wire(client.data_to_send(), label="c->s")
        assert "PREFACE" in trace
        assert "SETTINGS" in trace
        assert "GEN_ABILITY=1" in trace
        assert "WINDOW_UPDATE" in trace
        assert all(line.startswith("c->s") for line in trace.splitlines())

    def test_decode_first_header_block(self):
        client = H2Connection(Role.CLIENT)
        server = H2Connection(Role.SERVER)
        pair = InMemoryTransportPair(client, server)
        pair.handshake()
        sid = client.get_next_available_stream_id()
        client.send_headers(sid, [(b":method", b"GET"), (b":path", b"/traced")], end_stream=True)
        trace = trace_wire(client.data_to_send(), decode_headers=True)
        assert ":path: /traced" in trace

    def test_split_header_block_on_the_wire(self):
        # A HEADERS frame without END_HEADERS followed by its CONTINUATION,
        # exactly as a peer with a small max-frame-size would emit them.
        wire = (
            PushPromiseFrame(
                stream_id=1, promised_stream_id=2, header_block=b"a" * 16, end_headers=False
            ).serialize()
            + ContinuationFrame(stream_id=1, header_block=b"b" * 8, end_headers=True).serialize()
        )
        trace = trace_wire(wire, label="s->c")
        lines = trace.splitlines()
        assert len(lines) == 2
        assert "PUSH_PROMISE" in lines[0] and "block=16B" in lines[0]
        assert "END_HEADERS" not in lines[0]
        assert "CONTINUATION" in lines[1] and "block=8B END_HEADERS" in lines[1]

    def test_trailing_bytes_reported(self):
        trace = trace_wire(b"\x00\x00")
        assert "TRAILING" in trace

    def test_tracing_never_raises_on_junk(self):
        trace_wire(b"\xff" * 50)  # must not raise
