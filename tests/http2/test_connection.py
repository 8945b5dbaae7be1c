"""Tests for the sans-io connection engine."""

import pytest

from repro.http2.connection import (
    CONNECTION_PREFACE,
    ConnectionTerminated,
    DataReceived,
    GenAbilityNegotiated,
    H2Connection,
    PingAcknowledged,
    PingReceived,
    RemoteSettingsChanged,
    RequestReceived,
    ResponseReceived,
    Role,
    SettingsAcknowledged,
    StreamEnded,
    StreamReset,
    TrailersReceived,
    WindowUpdated,
)
from repro.http2.errors import ErrorCode, ProtocolError
from repro.http2.settings import Setting
from repro.http2.transport import InMemoryTransportPair

from tests.conftest import make_pair


class TestPreface:
    def test_client_sends_preface(self):
        client = H2Connection(Role.CLIENT)
        client.initiate_connection()
        assert client.data_to_send().startswith(CONNECTION_PREFACE)

    def test_server_requires_preface(self):
        server = H2Connection(Role.SERVER)
        with pytest.raises(ProtocolError):
            server.receive_data(b"GET / HTTP/1.1\r\n\r\n" + b"x" * 30)

    def test_server_accepts_split_preface(self):
        client = H2Connection(Role.CLIENT)
        client.initiate_connection()
        wire = client.data_to_send()
        server = H2Connection(Role.SERVER)
        events = server.receive_data(wire[:10])
        assert events == []
        events = server.receive_data(wire[10:])
        assert any(isinstance(e, RemoteSettingsChanged) for e in events)


class TestSettingsExchange:
    def test_settings_acknowledged(self):
        pair = make_pair()
        # Both sides must have seen a SETTINGS ACK during handshake.
        # (take_events drains, so re-run a settings update.)
        pair.client.conn.update_settings({Setting.MAX_CONCURRENT_STREAMS: 10})
        pair.pump()
        assert any(isinstance(e, SettingsAcknowledged) for e in pair.client.events)

    def test_peer_settings_visible(self):
        pair = make_pair()
        assert pair.server.conn.peer_settings.gen_ability
        assert pair.client.conn.peer_settings.gen_ability

    def test_header_table_size_propagates_to_encoder(self):
        pair = make_pair()
        pair.client.conn.update_settings({Setting.HEADER_TABLE_SIZE: 512})
        pair.pump()
        assert pair.server.conn.encoder.table.max_size == 512


class TestGenAbilityNegotiation:
    """The §3 negotiation rules, at the engine level."""

    @pytest.mark.parametrize(
        "client_gen, server_gen, expected",
        [(True, True, True), (True, False, False), (False, True, False), (False, False, False)],
    )
    def test_negotiation_matrix(self, client_gen, server_gen, expected):
        pair = make_pair(client_gen, server_gen)
        assert pair.client.conn.gen_ability_negotiated is expected
        assert pair.server.conn.gen_ability_negotiated is expected

    def test_event_fired_once_with_verdict(self):
        pair = make_pair(True, False)
        events = pair.client.take_events(GenAbilityNegotiated)
        assert len(events) == 1
        assert events[0].local and not events[0].peer and not events[0].negotiated

    def test_naive_peer_remains_naive(self):
        """A non-participating peer must not even notice the extension."""
        pair = make_pair(True, False)
        # The naive server stored the unknown setting but its own settings
        # never advertise it.
        assert pair.server.conn.peer_settings.gen_ability  # saw client's
        assert not pair.server.conn.local_gen_ability
        assert pair.client.conn.peer_settings.get(Setting.GEN_ABILITY) == 0

    def test_custom_32bit_value(self):
        client = H2Connection(Role.CLIENT, gen_ability=True, gen_ability_value=0x33)
        server = H2Connection(Role.SERVER, gen_ability=True)
        pair = InMemoryTransportPair(client, server)
        pair.handshake()
        assert server.peer_settings.get(Setting.GEN_ABILITY) == 0x33


class TestRequestResponse:
    def test_get_roundtrip(self, h2_pair):
        conn = h2_pair.client.conn
        sid = conn.get_next_available_stream_id()
        conn.send_headers(sid, [(b":method", b"GET"), (b":path", b"/x")], end_stream=True)
        h2_pair.pump()
        requests = h2_pair.server.take_events(RequestReceived)
        assert len(requests) == 1
        assert dict(requests[0].headers)[b":path"] == b"/x"
        assert requests[0].end_stream

        h2_pair.server.conn.send_headers(sid, [(b":status", b"200")])
        h2_pair.server.conn.send_data(sid, b"body", end_stream=True)
        h2_pair.pump()
        responses = h2_pair.client.take_events(ResponseReceived)
        data = h2_pair.client.take_events(DataReceived)
        ended = h2_pair.client.take_events(StreamEnded)
        assert dict(responses[0].headers)[b":status"] == b"200"
        assert data[0].data == b"body"
        assert ended and ended[0].stream_id == sid

    def test_client_stream_ids_are_odd(self):
        client = H2Connection(Role.CLIENT)
        ids = [client.get_next_available_stream_id() for _ in range(3)]
        assert ids == [1, 3, 5]

    def test_server_stream_ids_are_even(self):
        server = H2Connection(Role.SERVER)
        assert server.get_next_available_stream_id() == 2

    def test_trailers_event(self, h2_pair):
        conn = h2_pair.client.conn
        sid = conn.get_next_available_stream_id()
        conn.send_headers(sid, [(b":method", b"POST"), (b":path", b"/t")])
        conn.send_data(sid, b"payload")
        conn.send_headers(sid, [(b"x-checksum", b"abc")], end_stream=True)
        h2_pair.pump()
        trailers = h2_pair.server.take_events(TrailersReceived)
        assert trailers and trailers[0].headers == [(b"x-checksum", b"abc")]

    def test_large_data_chunked_to_max_frame_size(self, h2_pair):
        conn = h2_pair.client.conn
        sid = conn.get_next_available_stream_id()
        conn.send_headers(sid, [(b":method", b"POST"), (b":path", b"/big")])
        payload = bytes(50_000)
        conn.send_data(sid, payload, end_stream=True)
        h2_pair.pump()
        received = h2_pair.server.take_events(DataReceived)
        assert len(received) >= 4  # 50 kB over 16 kB frames
        assert b"".join(e.data for e in received) == payload

    def test_large_header_block_uses_continuation(self, h2_pair):
        conn = h2_pair.client.conn
        sid = conn.get_next_available_stream_id()
        headers = [(b":method", b"GET"), (b":path", b"/c")] + [
            (f"x-h{i}".encode(), bytes(200)) for i in range(30)
        ]
        conn.send_headers(sid, headers, end_stream=True, max_fragment=1000)
        h2_pair.pump()
        requests = h2_pair.server.take_events(RequestReceived)
        assert [n for n, _ in requests[0].headers][:2] == [b":method", b":path"]
        assert len(requests[0].headers) == len(headers)


class TestPingAndGoaway:
    def test_ping_auto_acked(self, h2_pair):
        h2_pair.client.conn.send_ping(b"ABCDEFGH")
        h2_pair.pump()
        assert h2_pair.server.take_events(PingReceived)[0].data == b"ABCDEFGH"
        assert h2_pair.client.take_events(PingAcknowledged)[0].data == b"ABCDEFGH"

    def test_goaway_terminates(self, h2_pair):
        h2_pair.server.conn.close_connection(ErrorCode.NO_ERROR, debug=b"done")
        h2_pair.pump()
        events = h2_pair.client.take_events(ConnectionTerminated)
        assert events[0].debug_data == b"done"

    def test_send_after_goaway_rejected(self, h2_pair):
        h2_pair.client.conn.close_connection()
        with pytest.raises(ProtocolError):
            sid = h2_pair.client.conn.get_next_available_stream_id()
            h2_pair.client.conn.send_headers(sid, [(b":method", b"GET")])


class TestFlowControlIntegration:
    def test_data_consumes_stream_window(self, h2_pair):
        conn = h2_pair.client.conn
        sid = conn.get_next_available_stream_id()
        conn.send_headers(sid, [(b":method", b"POST"), (b":path", b"/w")])
        before = conn.streams[sid].outbound_window.available
        conn.send_data(sid, b"x" * 1000)
        assert conn.streams[sid].outbound_window.available == before - 1000

    def test_window_update_replenishes(self, h2_pair):
        conn = h2_pair.client.conn
        sid = conn.get_next_available_stream_id()
        conn.send_headers(sid, [(b":method", b"POST"), (b":path", b"/w")])
        conn.send_data(sid, b"x" * 1000)
        h2_pair.pump()
        h2_pair.server.conn.increment_flow_control_window(1000, sid)
        h2_pair.pump()
        updates = h2_pair.client.take_events(WindowUpdated)
        assert any(u.stream_id == sid and u.delta == 1000 for u in updates)

    def test_reset_stream(self, h2_pair):
        conn = h2_pair.client.conn
        sid = conn.get_next_available_stream_id()
        conn.send_headers(sid, [(b":method", b"GET"), (b":path", b"/r")])
        h2_pair.pump()
        h2_pair.server.take_events()
        h2_pair.server.conn.reset_stream(sid, ErrorCode.REFUSED_STREAM)
        h2_pair.pump()
        resets = h2_pair.client.take_events(StreamReset)
        assert resets[0].error_code == ErrorCode.REFUSED_STREAM


class TestSettingsWindowMirror:
    @staticmethod
    def open_request(window: int) -> tuple[InMemoryTransportPair, int]:
        """A client advertising a ``window``-byte receive window, one GET open."""
        pair = InMemoryTransportPair(
            H2Connection(Role.CLIENT, gen_ability=True, initial_window_size=window),
            H2Connection(Role.SERVER, gen_ability=True),
        )
        pair.handshake()
        stream_id = pair.client.conn.get_next_available_stream_id()
        pair.client.conn.send_headers(stream_id, [(b":method", b"GET"), (b":path", b"/")], end_stream=True)
        pair.pump()
        return pair, stream_id

    def test_update_settings_rebases_local_stream_receive_windows(self):
        """§6.9.2: when we raise INITIAL_WINDOW_SIZE, the peer treats every
        open stream's send window as grown by the delta — our per-stream
        receive accounting must mirror that or legitimate DATA looks like
        an overrun."""
        window = 10_000
        pair, stream_id = self.open_request(window)
        inbound = pair.client.conn.streams[stream_id].inbound_window
        before = inbound.available

        pair.client.conn.update_settings({Setting.INITIAL_WINDOW_SIZE: window * 3})
        assert inbound.available == before + window * 2

        # And the peer can actually use the grown window without tripping
        # the client's flow-control accounting.
        pair.pump()
        pair.server.conn.send_headers(stream_id, [(b":status", b"200")])
        pair.server.conn.send_data(stream_id, b"d" * (window * 2))
        pair.pump()  # would raise FlowControlError if the mirror was missing
        received = sum(len(e.data) for e in pair.client.events if isinstance(e, DataReceived))
        assert received == window * 2

    def test_shrink_applies_negative_delta(self):
        pair, stream_id = self.open_request(30_000)
        inbound = pair.client.conn.streams[stream_id].inbound_window
        pair.client.conn.update_settings({Setting.INITIAL_WINDOW_SIZE: 10_000})
        assert inbound.available == 10_000


class TestByteAccounting:
    def test_bytes_sent_and_received_match(self, h2_pair):
        conn = h2_pair.client.conn
        sid = conn.get_next_available_stream_id()
        conn.send_headers(sid, [(b":method", b"GET"), (b":path", b"/a")], end_stream=True)
        h2_pair.pump()
        assert conn.bytes_sent == h2_pair.server.conn.bytes_received

    def test_per_frame_type_accounting(self):
        client = H2Connection(Role.CLIENT, gen_ability=True)
        client.initiate_connection()
        client.data_to_send()
        from repro.http2.frames import TYPE_SETTINGS, TYPE_WINDOW_UPDATE

        assert TYPE_SETTINGS in client.sent_frame_bytes
        assert TYPE_WINDOW_UPDATE in client.sent_frame_bytes
