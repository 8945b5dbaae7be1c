"""A from-scratch HTTP/2 (RFC 9113) implementation.

This subpackage is the transport substrate for the SWW prototype. The paper
modifies HTTP/2's SETTINGS exchange to advertise generative capability
(``SETTINGS_GEN_ABILITY``, identifier 0x07); to make that modification a
first-class, testable artifact we implement the surrounding protocol
ourselves rather than depending on the ``h2`` package:

* frame codec for all ten RFC 9113 frame types (:mod:`repro.http2.frames`),
* HPACK header compression with static & dynamic tables and the RFC 7541
  Huffman code (:mod:`repro.http2.hpack`, :mod:`repro.http2.huffman`),
* stream state machine (:mod:`repro.http2.streams`),
* connection & stream flow control (:mod:`repro.http2.flow_control`),
* a sans-io connection engine usable for both client and server roles
  (:mod:`repro.http2.connection`),
* asyncio TCP / in-memory transports (:mod:`repro.http2.transport`),
* the metrics a registry reads from the live engines and writers when it
  is scraped (:mod:`repro.http2.census`), and
* the endpoint runtime every asyncio server and client in the repo is
  built on (:mod:`repro.http2.endpoint`).
"""

from repro.http2.errors import ErrorCode, H2Error, ProtocolError, FrameError
from repro.http2.frames import (
    Frame,
    DataFrame,
    HeadersFrame,
    PriorityFrame,
    RstStreamFrame,
    SettingsFrame,
    PushPromiseFrame,
    PingFrame,
    GoAwayFrame,
    WindowUpdateFrame,
    ContinuationFrame,
    parse_frames,
)
from repro.http2.settings import Setting, Settings, SETTINGS_GEN_ABILITY
from repro.http2.connection import H2Connection, Event
from repro.http2.transport import InMemoryTransportPair, open_tcp_pair
from repro.http2.writer import ConnectionWriter

__all__ = [
    "ErrorCode",
    "H2Error",
    "ProtocolError",
    "FrameError",
    "Frame",
    "DataFrame",
    "HeadersFrame",
    "PriorityFrame",
    "RstStreamFrame",
    "SettingsFrame",
    "PushPromiseFrame",
    "PingFrame",
    "GoAwayFrame",
    "WindowUpdateFrame",
    "ContinuationFrame",
    "parse_frames",
    "Setting",
    "Settings",
    "SETTINGS_GEN_ABILITY",
    "H2Connection",
    "Event",
    "InMemoryTransportPair",
    "open_tcp_pair",
    "ConnectionWriter",
]
