"""A frame-level wire tracer for HTTP/2 byte streams.

Feed it raw connection bytes (either direction) and it renders a readable
frame log — the tool you want when a negotiation test fails and you need
to see exactly which SETTINGS crossed the wire. Used by tests and handy
in a REPL:

    >>> from repro.http2.debug import trace_wire
    >>> print(trace_wire(client_bytes, label="client->server"))
    client->server  SETTINGS            stream=0  len=24   HEADER_TABLE_SIZE=4096 ... GEN_ABILITY=1
    client->server  WINDOW_UPDATE       stream=0  len=4    increment=16711681
    ...
"""

from __future__ import annotations

from repro.http2.connection import CONNECTION_PREFACE
from repro.http2.frames import (
    ContinuationFrame,
    DataFrame,
    Frame,
    GoAwayFrame,
    HeadersFrame,
    PingFrame,
    PriorityFrame,
    PriorityUpdateFrame,
    PushPromiseFrame,
    RstStreamFrame,
    SettingsFrame,
    WindowUpdateFrame,
    parse_frames,
)
from repro.http2.settings import Setting

_SETTING_NAMES = {int(s): s.name for s in Setting}


def _describe_settings(frame: SettingsFrame) -> str:
    if frame.ack:
        return "ACK"
    parts = []
    for identifier, value in sorted(frame.settings.items()):
        name = _SETTING_NAMES.get(identifier, f"0x{identifier:04x}")
        parts.append(f"{name}={value}")
    return " ".join(parts) if parts else "(empty)"


def describe_frame(frame: Frame) -> str:
    """One-line human description of a frame."""
    if isinstance(frame, SettingsFrame):
        kind, detail = "SETTINGS", _describe_settings(frame)
    elif isinstance(frame, DataFrame):
        flags = " END_STREAM" if frame.end_stream else ""
        preview = frame.data[:24]
        kind, detail = "DATA", f"{len(frame.data)} bytes{flags} {preview!r}"
    elif isinstance(frame, HeadersFrame):
        flags = []
        if frame.end_stream:
            flags.append("END_STREAM")
        if frame.end_headers:
            flags.append("END_HEADERS")
        kind, detail = "HEADERS", f"block={len(frame.header_block)}B {' '.join(flags)}"
    elif isinstance(frame, ContinuationFrame):
        flags = " END_HEADERS" if frame.end_headers else ""
        kind, detail = "CONTINUATION", f"block={len(frame.header_block)}B{flags}"
    elif isinstance(frame, WindowUpdateFrame):
        kind, detail = "WINDOW_UPDATE", f"increment={frame.increment}"
    elif isinstance(frame, PingFrame):
        kind, detail = "PING", ("ACK " if frame.ack else "") + frame.data.hex()
    elif isinstance(frame, RstStreamFrame):
        kind, detail = "RST_STREAM", frame.error_code.name
    elif isinstance(frame, GoAwayFrame):
        kind, detail = "GOAWAY", f"last={frame.last_stream_id} {frame.error_code.name} {frame.debug_data!r}"
    elif isinstance(frame, PushPromiseFrame):
        flags = " END_HEADERS" if frame.end_headers else ""
        kind, detail = (
            "PUSH_PROMISE",
            f"promised={frame.promised_stream_id} block={len(frame.header_block)}B{flags}",
        )
    elif isinstance(frame, PriorityFrame):
        from repro.http2.priority import urgency_from_weight

        kind, detail = "PRIORITY", (
            f"dep={frame.dependency} weight={frame.weight}"
            f" (~u={urgency_from_weight(frame.weight)})"
        )
    elif isinstance(frame, PriorityUpdateFrame):
        kind, detail = (
            "PRIORITY_UPDATE",
            f"prioritized={frame.prioritized_stream_id} {frame.field_value.decode('ascii', 'replace') or '(defaults)'}",
        )
    else:
        kind, detail = type(frame).__name__, ""
    return f"{kind:<14} stream={frame.stream_id:<4} {detail}"


def trace_wire(data: bytes, label: str = "", decode_headers: bool = False) -> str:
    """Render a byte stream as a frame log.

    ``decode_headers=True`` additionally decodes HPACK blocks with a fresh
    decoder — only valid for the *first* header block of a connection
    (HPACK is stateful); later blocks print raw sizes.
    """
    lines: list[str] = []
    prefix = f"{label}  " if label else ""
    if data.startswith(CONNECTION_PREFACE):
        lines.append(f"{prefix}PREFACE        {CONNECTION_PREFACE!r}")
        data = data[len(CONNECTION_PREFACE) :]
    try:
        frames, rest = parse_frames(data)
    except Exception as exc:  # noqa: BLE001 — tracing must never raise
        lines.append(f"{prefix}UNPARSEABLE    {len(data)} bytes ({type(exc).__name__}: {exc})")
        return "\n".join(lines)
    decoder = None
    if decode_headers:
        from repro.http2.hpack import HpackDecoder

        decoder = HpackDecoder()
    for frame in frames:
        lines.append(prefix + describe_frame(frame))
        if decoder is not None and isinstance(frame, HeadersFrame):
            try:
                headers = decoder.decode(frame.header_block)
                for name, value in headers:
                    lines.append(f"{prefix}    {name.decode()}: {value.decode('utf-8', 'replace')}")
            except Exception:  # noqa: BLE001 — tracing must never raise
                lines.append(f"{prefix}    <undecodable header block>")
            decoder = None  # stateful: only the first block is safe
    if rest:
        lines.append(f"{prefix}TRAILING       {len(rest)} undecoded bytes")
    return "\n".join(lines)
