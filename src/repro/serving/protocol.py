"""The worker → master control-pipe protocol.

Each forked worker inherits the write end of an :func:`os.pipe`; the
master holds the read end on its event loop. Everything the worker has
to say — liveness, merged-telemetry inputs, goodbye — travels as
length-prefixed JSON frames:

    +----------------+----------------------+
    | 4 bytes (>I)   | UTF-8 JSON object    |
    | payload length | {"type": ..., ...}   |
    +----------------+----------------------+

Frame types (all carry ``worker``, the sender's pid):

* ``hello`` — first frame after fork: ``{worker_id, pid}``;
* ``heartbeat`` — periodic liveness + cheap gauges (``requests``,
  ``inflight``, ``connections``, ``generation_sim_s``); the master's
  supervisor SIGKILLs a worker whose last heartbeat is older than the
  worker timeout;
* ``metrics`` — full ``sww-metrics/1`` registry dump (replaces the
  previous one; the master merges the latest dump from every worker);
* ``timeseries`` — an ``sww-timeseries/1`` *delta* snapshot (ticks since
  the last shipped tick; the master accumulates and merges per-tick);
* ``events`` — newly finished wide events as plain dicts, each stamped
  with ``worker`` and ``seq`` so the merged stream orders by
  ``(worker, seq)``;
* ``bye`` — graceful-exit marker (``{exit: "drain" | "recycle"}``).

JSON over a pipe is deliberate: frames are small (the registry dump of a
busy worker is tens of KB), the master merges them with the existing
``sww-timeseries/1`` / ``sww-metrics/1`` plumbing, and the format is
trivially debuggable with ``od``/``jq``.
"""

from __future__ import annotations

import asyncio
import json
import struct

#: A frame larger than this is a protocol bug, not a big payload.
MAX_FRAME_BYTES = 32 * 1024 * 1024

_HEADER = struct.Struct(">I")


class FrameError(Exception):
    """A malformed control-pipe frame."""


def encode_frame(doc: dict) -> bytes:
    """Serialise one frame: 4-byte big-endian length + compact JSON."""
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(payload)) + payload


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame from the master's side; ``None`` on clean EOF."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame header claims {length} bytes (max {MAX_FRAME_BYTES})")
    try:
        payload = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        return None
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(doc, dict) or "type" not in doc:
        raise FrameError("control frames must be JSON objects with a 'type'")
    return doc

