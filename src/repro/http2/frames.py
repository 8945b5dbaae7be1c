"""HTTP/2 frame types and their wire format (RFC 9113 §4, §6).

Every frame starts with a 9-octet header::

    +-----------------------------------------------+
    |                 Length (24)                   |
    +---------------+---------------+---------------+
    |   Type (8)    |   Flags (8)   |
    +-+-------------+---------------+-------------------------------+
    |R|                 Stream Identifier (31)                      |
    +=+=============================================================+
    |                   Frame Payload (0...)                      ...
    +---------------------------------------------------------------+

All ten RFC 9113 frame types are implemented. ``serialize`` produces wire
bytes; :func:`parse_frame` / :func:`parse_frames` reverse it, raising
:class:`~repro.http2.errors.FrameError` on malformed input.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import ClassVar

from repro.http2.errors import ErrorCode, FrameError

FRAME_HEADER_LENGTH = 9
DEFAULT_MAX_FRAME_SIZE = 16_384

#: RFC 9113 frame type codes.
TYPE_DATA = 0x0
TYPE_HEADERS = 0x1
TYPE_PRIORITY = 0x2
TYPE_RST_STREAM = 0x3
TYPE_SETTINGS = 0x4
TYPE_PUSH_PROMISE = 0x5
TYPE_PING = 0x6
TYPE_GOAWAY = 0x7
TYPE_WINDOW_UPDATE = 0x8
TYPE_CONTINUATION = 0x9
#: RFC 9218 §7.1 (extensible priorities; not part of RFC 9113's ten).
TYPE_PRIORITY_UPDATE = 0x10

#: Flag bits.
FLAG_END_STREAM = 0x1
FLAG_ACK = 0x1
FLAG_END_HEADERS = 0x4
FLAG_PADDED = 0x8
FLAG_PRIORITY = 0x20


def _check_stream_id(stream_id: int) -> None:
    if not 0 <= stream_id <= 0x7FFFFFFF:
        raise FrameError(f"stream id {stream_id} out of 31-bit range", ErrorCode.PROTOCOL_ERROR)


@dataclass
class Frame:
    """Base frame; concrete subclasses define payload layout."""

    stream_id: int = 0
    TYPE: ClassVar[int] = -1

    def flags(self) -> int:
        return 0

    def payload(self) -> bytes:
        raise NotImplementedError

    def serialize(self) -> bytes:
        """Return the wire representation, header plus payload.

        ``payload()`` may return a :class:`memoryview` (the writer's
        zero-copy DATA path); the join here is the single copy that
        assembles the wire bytes.
        """
        _check_stream_id(self.stream_id)
        body = self.payload()
        if len(body) > 0xFFFFFF:
            raise FrameError(f"payload of {len(body)} bytes exceeds 24-bit length")
        header = struct.pack(
            ">BHBBL",
            (len(body) >> 16) & 0xFF,
            len(body) & 0xFFFF,
            self.TYPE,
            self.flags(),
            self.stream_id & 0x7FFFFFFF,
        )
        return b"".join((header, body))


def _split_padding(payload: bytes, flags: int) -> tuple[bytes, int]:
    """Strip PADDED layout; returns (content, pad_length)."""
    if not flags & FLAG_PADDED:
        return payload, 0
    if not payload:
        raise FrameError("PADDED frame with empty payload")
    pad_length = payload[0]
    body = payload[1:]
    if pad_length > len(body):
        raise FrameError("padding exceeds payload size", ErrorCode.PROTOCOL_ERROR)
    if any(body[len(body) - pad_length :]):
        # RFC 9113 §6.1: padding MUST be zero; receivers MAY treat nonzero
        # padding as PROTOCOL_ERROR. We do, to keep the codec strict.
        raise FrameError("nonzero padding octets", ErrorCode.PROTOCOL_ERROR)
    return body[: len(body) - pad_length], pad_length


def _pad(content: bytes, pad_length: int) -> bytes:
    if pad_length > 255:
        raise FrameError("pad length exceeds 255")
    # join, not +: content may be a memoryview on the zero-copy path.
    return b"".join((bytes([pad_length]), content, b"\x00" * pad_length))


@dataclass
class DataFrame(Frame):
    """DATA (§6.1) — application payload bytes, flow controlled.

    ``data`` may be a :class:`memoryview` slice of a larger response body
    (the writer's zero-copy path); it is consumed by ``serialize()``
    before the frame outlives the buffer it views.
    """

    data: bytes | memoryview = b""
    end_stream: bool = False
    pad_length: int = 0
    TYPE = TYPE_DATA

    def flags(self) -> int:
        value = FLAG_END_STREAM if self.end_stream else 0
        if self.pad_length:
            value |= FLAG_PADDED
        return value

    def payload(self) -> bytes:
        if self.pad_length:
            return _pad(self.data, self.pad_length)
        return self.data

    def flow_controlled_length(self) -> int:
        """The length counted against flow-control windows (§6.9.1)."""
        return len(self.payload())


@dataclass
class HeadersFrame(Frame):
    """HEADERS (§6.2) — carries an HPACK header block fragment."""

    header_block: bytes = b""
    end_stream: bool = False
    end_headers: bool = True
    pad_length: int = 0
    priority: tuple[int, int, bool] | None = None  # (dependency, weight, exclusive)
    TYPE = TYPE_HEADERS

    def flags(self) -> int:
        value = 0
        if self.end_stream:
            value |= FLAG_END_STREAM
        if self.end_headers:
            value |= FLAG_END_HEADERS
        if self.pad_length:
            value |= FLAG_PADDED
        if self.priority is not None:
            value |= FLAG_PRIORITY
        return value

    def payload(self) -> bytes:
        body = bytearray()
        if self.priority is not None:
            dependency, weight, exclusive = self.priority
            body += struct.pack(">LB", dependency | (0x80000000 if exclusive else 0), weight - 1)
        body += self.header_block
        if self.pad_length:
            return _pad(bytes(body), self.pad_length)
        return bytes(body)


@dataclass
class PriorityFrame(Frame):
    """PRIORITY (§6.3) — deprecated scheme, parsed for completeness."""

    dependency: int = 0
    weight: int = 16
    exclusive: bool = False
    TYPE = TYPE_PRIORITY

    def payload(self) -> bytes:
        return struct.pack(">LB", self.dependency | (0x80000000 if self.exclusive else 0), self.weight - 1)


@dataclass
class RstStreamFrame(Frame):
    """RST_STREAM (§6.4) — abnormal stream termination."""

    error_code: ErrorCode = ErrorCode.NO_ERROR
    TYPE = TYPE_RST_STREAM

    def payload(self) -> bytes:
        return struct.pack(">L", int(self.error_code))


@dataclass
class SettingsFrame(Frame):
    """SETTINGS (§6.5) — connection configuration parameters.

    This is the frame the paper extends: ``SETTINGS_GEN_ABILITY`` (0x07)
    travels as an ordinary (identifier, value) pair, so non-participating
    peers ignore it per §6.5.2.
    """

    settings: dict[int, int] = field(default_factory=dict)
    ack: bool = False
    TYPE = TYPE_SETTINGS

    def flags(self) -> int:
        return FLAG_ACK if self.ack else 0

    def payload(self) -> bytes:
        if self.ack and self.settings:
            raise FrameError("SETTINGS ACK must have empty payload")
        return b"".join(struct.pack(">HL", ident, value) for ident, value in sorted(self.settings.items()))


@dataclass
class PushPromiseFrame(Frame):
    """PUSH_PROMISE (§6.6) — reserves a stream for a server push."""

    promised_stream_id: int = 0
    header_block: bytes = b""
    end_headers: bool = True
    pad_length: int = 0
    TYPE = TYPE_PUSH_PROMISE

    def flags(self) -> int:
        value = FLAG_END_HEADERS if self.end_headers else 0
        if self.pad_length:
            value |= FLAG_PADDED
        return value

    def payload(self) -> bytes:
        body = struct.pack(">L", self.promised_stream_id & 0x7FFFFFFF) + self.header_block
        if self.pad_length:
            return _pad(body, self.pad_length)
        return body


@dataclass
class PingFrame(Frame):
    """PING (§6.7) — liveness / RTT measurement; 8 opaque octets."""

    data: bytes = b"\x00" * 8
    ack: bool = False
    TYPE = TYPE_PING

    def flags(self) -> int:
        return FLAG_ACK if self.ack else 0

    def payload(self) -> bytes:
        if len(self.data) != 8:
            raise FrameError("PING payload must be exactly 8 octets")
        return self.data


@dataclass
class GoAwayFrame(Frame):
    """GOAWAY (§6.8) — connection shutdown with last processed stream."""

    last_stream_id: int = 0
    error_code: ErrorCode = ErrorCode.NO_ERROR
    debug_data: bytes = b""
    TYPE = TYPE_GOAWAY

    def payload(self) -> bytes:
        return struct.pack(">LL", self.last_stream_id & 0x7FFFFFFF, int(self.error_code)) + self.debug_data


@dataclass
class WindowUpdateFrame(Frame):
    """WINDOW_UPDATE (§6.9) — flow-control credit."""

    increment: int = 0
    TYPE = TYPE_WINDOW_UPDATE

    def payload(self) -> bytes:
        if not 1 <= self.increment <= 0x7FFFFFFF:
            raise FrameError("window increment must be in [1, 2^31-1]", ErrorCode.PROTOCOL_ERROR)
        return struct.pack(">L", self.increment)


@dataclass
class PriorityUpdateFrame(Frame):
    """PRIORITY_UPDATE (RFC 9218 §7.1) — reprioritise a stream hop-by-hop.

    Sent on stream 0; the stream being reprioritised travels in the
    payload, followed by the ASCII priority field value (``u=N, i``).
    """

    prioritized_stream_id: int = 0
    field_value: bytes = b""
    TYPE = TYPE_PRIORITY_UPDATE

    def payload(self) -> bytes:
        _check_stream_id(self.prioritized_stream_id)
        return struct.pack(">L", self.prioritized_stream_id & 0x7FFFFFFF) + self.field_value


@dataclass
class ContinuationFrame(Frame):
    """CONTINUATION (§6.10) — continues a header block."""

    header_block: bytes = b""
    end_headers: bool = False
    TYPE = TYPE_CONTINUATION

    def flags(self) -> int:
        return FLAG_END_HEADERS if self.end_headers else 0

    def payload(self) -> bytes:
        return self.header_block


_FIXED_PAYLOAD_SIZES = {
    TYPE_PRIORITY: 5,
    TYPE_RST_STREAM: 4,
    TYPE_PING: 8,
    TYPE_WINDOW_UPDATE: 4,
}


def _parse_data(flags: int, stream_id: int, payload: bytes) -> DataFrame:
    content, pad = _split_padding(payload, flags)
    return DataFrame(stream_id=stream_id, data=content, end_stream=bool(flags & FLAG_END_STREAM), pad_length=pad)


def _parse_headers(flags: int, stream_id: int, payload: bytes) -> HeadersFrame:
    content, pad = _split_padding(payload, flags)
    priority = None
    if flags & FLAG_PRIORITY:
        if len(content) < 5:
            raise FrameError("HEADERS priority fields truncated")
        raw_dep, weight = struct.unpack(">LB", content[:5])
        priority = (raw_dep & 0x7FFFFFFF, weight + 1, bool(raw_dep & 0x80000000))
        content = content[5:]
    return HeadersFrame(
        stream_id=stream_id,
        header_block=content,
        end_stream=bool(flags & FLAG_END_STREAM),
        end_headers=bool(flags & FLAG_END_HEADERS),
        pad_length=pad,
        priority=priority,
    )


def _parse_settings(flags: int, stream_id: int, payload: bytes) -> SettingsFrame:
    if stream_id != 0:
        raise FrameError("SETTINGS must be on stream 0", ErrorCode.PROTOCOL_ERROR)
    if flags & FLAG_ACK:
        if payload:
            raise FrameError("SETTINGS ACK with payload")
        return SettingsFrame(ack=True)
    if len(payload) % 6:
        raise FrameError("SETTINGS payload not a multiple of 6")
    settings: dict[int, int] = {}
    for i in range(0, len(payload), 6):
        ident, value = struct.unpack(">HL", payload[i : i + 6])
        settings[ident] = value
    return SettingsFrame(settings=settings)


def _parse_push_promise(flags: int, stream_id: int, payload: bytes) -> PushPromiseFrame:
    content, pad = _split_padding(payload, flags)
    if len(content) < 4:
        raise FrameError("PUSH_PROMISE payload truncated")
    (promised,) = struct.unpack(">L", content[:4])
    return PushPromiseFrame(
        stream_id=stream_id,
        promised_stream_id=promised & 0x7FFFFFFF,
        header_block=content[4:],
        end_headers=bool(flags & FLAG_END_HEADERS),
        pad_length=pad,
    )


def _parse_goaway(flags: int, stream_id: int, payload: bytes) -> GoAwayFrame:
    if stream_id != 0:
        raise FrameError("GOAWAY must be on stream 0", ErrorCode.PROTOCOL_ERROR)
    if len(payload) < 8:
        raise FrameError("GOAWAY payload truncated")
    last, code = struct.unpack(">LL", payload[:8])
    try:
        error = ErrorCode(code)
    except ValueError:
        error = ErrorCode.INTERNAL_ERROR
    return GoAwayFrame(last_stream_id=last & 0x7FFFFFFF, error_code=error, debug_data=payload[8:])


def parse_frame(data: bytes, offset: int = 0, max_frame_size: int = DEFAULT_MAX_FRAME_SIZE) -> tuple[Frame | None, int]:
    """Parse a single frame starting at ``offset``.

    Returns ``(frame, new_offset)``. ``frame`` is ``None`` when fewer bytes
    than a complete frame are available (the caller should buffer more).
    Unknown frame types are skipped and returned as ``None`` with the offset
    advanced (RFC 9113 §4.1: implementations must ignore unknown types).
    """
    if len(data) - offset < FRAME_HEADER_LENGTH:
        return None, offset
    hi, lo, ftype, flags, raw_stream = struct.unpack_from(">BHBBL", data, offset)
    length = (hi << 16) | lo
    if length > max_frame_size:
        raise FrameError(f"frame of {length} bytes exceeds SETTINGS_MAX_FRAME_SIZE {max_frame_size}")
    if len(data) - offset < FRAME_HEADER_LENGTH + length:
        return None, offset
    stream_id = raw_stream & 0x7FFFFFFF
    payload = bytes(data[offset + FRAME_HEADER_LENGTH : offset + FRAME_HEADER_LENGTH + length])
    new_offset = offset + FRAME_HEADER_LENGTH + length

    expected = _FIXED_PAYLOAD_SIZES.get(ftype)
    if expected is not None and length != expected:
        raise FrameError(f"frame type {ftype:#x} requires {expected}-byte payload, got {length}")

    if ftype == TYPE_DATA:
        return _parse_data(flags, stream_id, payload), new_offset
    if ftype == TYPE_HEADERS:
        return _parse_headers(flags, stream_id, payload), new_offset
    if ftype == TYPE_PRIORITY:
        raw_dep, weight = struct.unpack(">LB", payload)
        return (
            PriorityFrame(
                stream_id=stream_id,
                dependency=raw_dep & 0x7FFFFFFF,
                weight=weight + 1,
                exclusive=bool(raw_dep & 0x80000000),
            ),
            new_offset,
        )
    if ftype == TYPE_RST_STREAM:
        (code,) = struct.unpack(">L", payload)
        try:
            error = ErrorCode(code)
        except ValueError:
            error = ErrorCode.INTERNAL_ERROR
        return RstStreamFrame(stream_id=stream_id, error_code=error), new_offset
    if ftype == TYPE_SETTINGS:
        return _parse_settings(flags, stream_id, payload), new_offset
    if ftype == TYPE_PUSH_PROMISE:
        return _parse_push_promise(flags, stream_id, payload), new_offset
    if ftype == TYPE_PING:
        if stream_id != 0:
            raise FrameError("PING must be on stream 0", ErrorCode.PROTOCOL_ERROR)
        return PingFrame(stream_id=0, data=payload, ack=bool(flags & FLAG_ACK)), new_offset
    if ftype == TYPE_GOAWAY:
        return _parse_goaway(flags, stream_id, payload), new_offset
    if ftype == TYPE_WINDOW_UPDATE:
        (raw,) = struct.unpack(">L", payload)
        return WindowUpdateFrame(stream_id=stream_id, increment=raw & 0x7FFFFFFF), new_offset
    if ftype == TYPE_CONTINUATION:
        return (
            ContinuationFrame(stream_id=stream_id, header_block=payload, end_headers=bool(flags & FLAG_END_HEADERS)),
            new_offset,
        )
    if ftype == TYPE_PRIORITY_UPDATE:
        if stream_id != 0:
            raise FrameError("PRIORITY_UPDATE must be on stream 0", ErrorCode.PROTOCOL_ERROR)
        if length < 4:
            raise FrameError("PRIORITY_UPDATE payload truncated")
        (prioritized,) = struct.unpack(">L", payload[:4])
        return (
            PriorityUpdateFrame(
                stream_id=0,
                prioritized_stream_id=prioritized & 0x7FFFFFFF,
                field_value=payload[4:],
            ),
            new_offset,
        )
    # Unknown frame type: discard (extensions are allowed to use new types).
    return None, new_offset


def parse_frames(data: bytes, max_frame_size: int = DEFAULT_MAX_FRAME_SIZE) -> tuple[list[Frame], bytes]:
    """Parse as many complete frames as possible.

    Returns ``(frames, remainder)`` where ``remainder`` holds trailing bytes
    of an incomplete frame for the caller to prepend to its next read.
    """
    frames: list[Frame] = []
    offset = 0
    while True:
        frame, new_offset = parse_frame(data, offset, max_frame_size)
        if new_offset == offset:
            break
        offset = new_offset
        if frame is not None:
            frames.append(frame)
    return frames, bytes(data[offset:])
