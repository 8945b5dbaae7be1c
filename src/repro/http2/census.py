"""The http2 layer's metrics, read from the engines when a registry is scraped.

An engine already counts its frames and bytes (:class:`WireTally`, plain
ints) and a writer already knows its queue depth and buffered bytes.
Copying every change into a registry instrument cost a dozen lookups per
request, so each registry instead holds one :class:`Http2Census`, which
it runs before it is read (:meth:`MetricsRegistry.collector`):

* counters (``http2_frames_{sent,received}_total``,
  ``http2_wire_bytes_total``, ``http2_transport_io_total``,
  ``http2_writer_{stalls,starvation_credits}_total``) and
  ``http2_hpack_evictions`` report what finalized engines and writers
  left behind plus the sum over live ones, so they never go down while
  connections come and go;
* the other gauges (``http2_hpack_table_bytes``, ``http2_writer_*``) sum
  over the live engines and writers.

Scrapes run on the sampler or admin thread while the event loop mutates
the engines, so the census reads only ints and ``len()`` of what the loop
owns. Its own record tables change only under its lock.
"""

from __future__ import annotations

import itertools
import threading
import weakref

from repro.http2 import frames
from repro.http2.priority import URGENCY_LEVELS
from repro.obs.metrics import Counter, Gauge

#: Frame type code -> exported ``operation`` label.
FRAME_TYPE_NAMES = {
    frames.TYPE_DATA: "DATA",
    frames.TYPE_HEADERS: "HEADERS",
    frames.TYPE_PRIORITY: "PRIORITY",
    frames.TYPE_RST_STREAM: "RST_STREAM",
    frames.TYPE_SETTINGS: "SETTINGS",
    frames.TYPE_PUSH_PROMISE: "PUSH_PROMISE",
    frames.TYPE_PING: "PING",
    frames.TYPE_GOAWAY: "GOAWAY",
    frames.TYPE_WINDOW_UPDATE: "WINDOW_UPDATE",
    frames.TYPE_CONTINUATION: "CONTINUATION",
    frames.TYPE_PRIORITY_UPDATE: "PRIORITY_UPDATE",
}

#: Per-type tallies are lists indexed by frame type code: the parser
#: returns only the known types, all below this bound.
_FRAME_SLOTS = max(FRAME_TYPE_NAMES) + 1

#: Dead records are folded away once the tables reach this size (then
#: at twice the size that survived), so tracking stays amortised O(1).
_PRUNE_FLOOR = 64


class WireTally:
    """One engine's wire accounting: frames per type each way, bytes per
    sent frame type, bytes each way, and the async transport's socket
    reads and writes."""

    __slots__ = (
        "frames_sent",
        "frames_received",
        "frame_bytes_sent",
        "bytes_sent",
        "bytes_received",
        "reads",
        "writes",
    )

    def __init__(self) -> None:
        self.frames_sent = [0] * _FRAME_SLOTS
        self.frames_received = [0] * _FRAME_SLOTS
        self.frame_bytes_sent = [0] * _FRAME_SLOTS
        self.bytes_sent = 0
        self.bytes_received = 0
        self.reads = 0
        self.writes = 0

    def add(self, other: "WireTally", sign: int = 1) -> None:
        for mine, theirs in (
            (self.frames_sent, other.frames_sent),
            (self.frames_received, other.frames_received),
            (self.frame_bytes_sent, other.frame_bytes_sent),
        ):
            for slot in range(_FRAME_SLOTS):
                mine[slot] += sign * theirs[slot]
        self.bytes_sent += sign * other.bytes_sent
        self.bytes_received += sign * other.bytes_received
        self.reads += sign * other.reads
        self.writes += sign * other.writes


class WriterTally:
    """One writer's counted scheduling events: rounds parked on a stream's
    or the connection's window, and frames granted per starved bucket."""

    __slots__ = ("stream_stalls", "connection_stalls", "starvation_credits")

    def __init__(self) -> None:
        self.stream_stalls = 0
        self.connection_stalls = 0
        self.starvation_credits = [0] * URGENCY_LEVELS

    def add(self, other: "WriterTally", sign: int = 1) -> None:
        self.stream_stalls += sign * other.stream_stalls
        self.connection_stalls += sign * other.connection_stalls
        for urgency in range(URGENCY_LEVELS):
            self.starvation_credits[urgency] += sign * other.starvation_credits[urgency]


class _Samples(list):
    """``(cls, name, help, labels, value)`` rows for the registry."""

    def counter(self, name: str, help: str, value: int, **labels: str) -> None:
        # A counter exists once it has counted something, as it did when
        # it was incremented in place.
        if value > 0:
            self.append((Counter, name, help, labels, value))

    def gauge(self, name: str, help: str, value: int, **labels: str) -> None:
        self.append((Gauge, name, help, labels, value))


class Http2Census:
    """The live engines and writers reporting to one registry, and what
    the finalized ones left behind. The registry holds :attr:`lock` while
    it calls :meth:`samples` or :meth:`reset`."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self._keys = itertools.count()
        #: key -> (engine ref, its tally, encoder table, decoder table).
        self._engines: dict[int, tuple] = {}
        #: key -> (writer ref, its tally).
        self._writers: dict[int, tuple] = {}
        #: Finalized engines' and writers' tallies and the engines'
        #: evictions (encoder, decoder), less the live sums at the last
        #: :meth:`reset`.
        self._retired = WireTally()
        self._retired_writers = WriterTally()
        self._retired_evictions = [0, 0]
        self._engines_seen = self._writers_seen = False
        self._prune_at = _PRUNE_FLOOR

    def track_engine(self, conn) -> None:
        record = (weakref.ref(conn), conn.tally, conn.encoder.table, conn.decoder.table)
        with self.lock:
            self._engines[next(self._keys)] = record
            self._engines_seen = True
            self._maybe_prune()

    def track_writer(self, writer) -> None:
        with self.lock:
            self._writers[next(self._keys)] = (weakref.ref(writer), writer.tally)
            self._writers_seen = True
            self._maybe_prune()

    def _maybe_prune(self) -> None:
        if len(self._engines) + len(self._writers) >= self._prune_at:
            self._prune()
            self._prune_at = max(_PRUNE_FLOOR, 2 * (len(self._engines) + len(self._writers)))

    def _prune(self) -> None:
        """Fold every finalized engine and writer into the retired totals."""
        for key, (ref, tally, encoder, decoder) in list(self._engines.items()):
            if ref() is None:
                self._retired.add(tally)
                self._retired_evictions[0] += encoder.evictions
                self._retired_evictions[1] += decoder.evictions
                del self._engines[key]
        for key, (ref, tally) in list(self._writers.items()):
            if ref() is None:
                self._retired_writers.add(tally)
                del self._writers[key]

    def reset(self) -> None:
        """Zero the counters: the retired totals become minus the live sums."""
        self._prune()
        self._retired = WireTally()
        self._retired_writers = WriterTally()
        self._retired_evictions = [0, 0]
        for _ref, tally, encoder, decoder in self._engines.values():
            self._retired.add(tally, sign=-1)
            self._retired_evictions[0] -= encoder.evictions
            self._retired_evictions[1] -= decoder.evictions
        for _ref, tally in self._writers.values():
            self._retired_writers.add(tally, sign=-1)

    def samples(self) -> _Samples:
        self._prune()
        out = _Samples()
        if self._engines_seen:
            self._engine_samples(out)
        if self._writers_seen:
            self._writer_samples(out)
        return out

    def _engine_samples(self, out: _Samples) -> None:
        total = WireTally()
        total.add(self._retired)
        evictions = list(self._retired_evictions)
        table_bytes = [0, 0]
        for _ref, tally, encoder, decoder in self._engines.values():
            total.add(tally)
            evictions[0] += encoder.evictions
            evictions[1] += decoder.evictions
            table_bytes[0] += encoder.size
            table_bytes[1] += decoder.size
        for code, name in FRAME_TYPE_NAMES.items():
            out.counter(
                "http2_frames_sent_total", "Frames emitted, by type",
                total.frames_sent[code], layer="http2", operation=name,
            )
            out.counter(
                "http2_frames_received_total", "Frames received, by type",
                total.frames_received[code], layer="http2", operation=name,
            )
        for operation, value in (("sent", total.bytes_sent), ("received", total.bytes_received)):
            out.counter(
                "http2_wire_bytes_total", "Bytes on the wire",
                value, layer="http2", operation=operation,
            )
        for operation, value in (("read", total.reads), ("write", total.writes)):
            out.counter(
                "http2_transport_io_total",
                "Socket-level writes/reads performed by the async transport",
                value, layer="http2", operation=operation,
            )
        for index, context in enumerate(("encoder", "decoder")):
            out.gauge(
                "http2_hpack_evictions", "HPACK dynamic-table entries evicted so far",
                evictions[index], layer="http2", operation=context,
            )
            out.gauge(
                "http2_hpack_table_bytes", "HPACK dynamic-table occupancy",
                table_bytes[index], layer="http2", operation=context,
            )

    def _writer_samples(self, out: _Samples) -> None:
        total = WriterTally()
        total.add(self._retired_writers)
        streams = buffered = 0
        depths = [0] * URGENCY_LEVELS
        for ref, tally in self._writers.values():
            total.add(tally)
            writer = ref()
            if writer is None:
                continue
            streams += writer.pending_streams
            buffered += writer.pending_bytes
            for urgency, depth in enumerate(writer.bucket_depths()):
                depths[urgency] += depth
        for operation, value in (("stream", total.stream_stalls), ("connection", total.connection_stalls)):
            out.counter(
                "http2_writer_stalls_total",
                "Scheduler rounds that parked on an exhausted flow-control window",
                value, layer="http2", operation=operation,
            )
        for urgency, value in enumerate(total.starvation_credits):
            out.counter(
                "http2_writer_starvation_credits_total",
                "Frames granted to starved low-priority buckets",
                value, layer="http2", operation=f"u{urgency}",
            )
        out.gauge(
            "http2_writer_queue_depth", "Streams with a response queued in the connection writer",
            streams, layer="http2", operation="streams",
        )
        out.gauge(
            "http2_writer_buffered_bytes", "Response bytes waiting on flow-control credit in the writer",
            buffered, layer="http2", operation="bytes",
        )
        for urgency, depth in enumerate(depths):
            out.gauge(
                "http2_writer_urgency_depth", "Streams queued per RFC 9218 urgency bucket",
                depth, layer="http2", operation=f"u{urgency}",
            )
