"""The http2 layer's metrics, read from the engines when a registry is scraped.

An engine already counts its frames and bytes (:class:`WireTally`, plain
ints) and a writer already knows its queue depth and buffered bytes.
Copying every change into a registry instrument cost a dozen lookups per
request, so each engine's and writer's tally is instead a source of its
registry (:meth:`MetricsRegistry.source`), read when the registry is:

* counters (``http2_frames_{sent,received}_total``,
  ``http2_wire_bytes_total``, ``http2_transport_io_total``,
  ``http2_writer_{stalls,starvation_credits}_total``) and
  ``http2_hpack_evictions`` are totals, kept by the registry when their
  engine or writer is collected;
* the other gauges (``http2_hpack_table_bytes``, ``http2_writer_*``) sum
  over the live engines and writers.

Scrapes run on the sampler or admin thread while the event loop mutates
the engines, so the tallies read only ints and ``len()`` of what the loop
owns.
"""

from __future__ import annotations

from repro.http2 import frames
from repro.http2.priority import URGENCY_LEVELS
from repro.obs.metrics import Samples

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


class WireTally:
    """One engine's wire accounting: frames per type each way, bytes per
    sent frame type, bytes each way, the async transport's socket reads
    and writes, and its HPACK (encoder, decoder) tables' evictions."""

    __slots__ = (
        "frames_sent",
        "frames_received",
        "frame_bytes_sent",
        "bytes_sent",
        "bytes_received",
        "reads",
        "writes",
        "tables",
    )

    def __init__(self, tables: tuple) -> None:
        self.frames_sent = [0] * _FRAME_SLOTS
        self.frames_received = [0] * _FRAME_SLOTS
        self.frame_bytes_sent = [0] * _FRAME_SLOTS
        self.bytes_sent = 0
        self.bytes_received = 0
        self.reads = 0
        self.writes = 0
        self.tables = tables

    def samples(self, out: Samples, engine) -> None:
        for code, name in FRAME_TYPE_NAMES.items():
            out.counter(
                "http2_frames_sent_total", "Frames emitted, by type",
                self.frames_sent[code], layer="http2", operation=name,
            )
            out.counter(
                "http2_frames_received_total", "Frames received, by type",
                self.frames_received[code], layer="http2", operation=name,
            )
        for operation, value in (("sent", self.bytes_sent), ("received", self.bytes_received)):
            out.counter(
                "http2_wire_bytes_total", "Bytes on the wire",
                value, layer="http2", operation=operation,
            )
        for operation, value in (("read", self.reads), ("write", self.writes)):
            out.counter(
                "http2_transport_io_total",
                "Socket-level writes/reads performed by the async transport",
                value, layer="http2", operation=operation,
            )
        for context, table in zip(("encoder", "decoder"), self.tables):
            out.gauge(
                "http2_hpack_evictions", "HPACK dynamic-table entries evicted so far",
                table.evictions, running=True, layer="http2", operation=context,
            )
            out.gauge(
                "http2_hpack_table_bytes", "HPACK dynamic-table occupancy",
                table.size, layer="http2", operation=context,
            )


class WriterTally:
    """One writer's counted scheduling events: rounds parked on a stream's
    or the connection's window, and frames granted per starved bucket."""

    __slots__ = ("stream_stalls", "connection_stalls", "starvation_credits")

    def __init__(self) -> None:
        self.stream_stalls = 0
        self.connection_stalls = 0
        self.starvation_credits = [0] * URGENCY_LEVELS

    def samples(self, out: Samples, writer) -> None:
        for operation, value in (("stream", self.stream_stalls), ("connection", self.connection_stalls)):
            out.counter(
                "http2_writer_stalls_total",
                "Scheduler rounds that parked on an exhausted flow-control window",
                value, layer="http2", operation=operation,
            )
        for urgency, value in enumerate(self.starvation_credits):
            out.counter(
                "http2_writer_starvation_credits_total",
                "Frames granted to starved low-priority buckets",
                value, layer="http2", operation=f"u{urgency}",
            )
        if writer is None:
            return
        out.gauge(
            "http2_writer_queue_depth", "Streams with a response queued in the connection writer",
            writer.pending_streams, layer="http2", operation="streams",
        )
        out.gauge(
            "http2_writer_buffered_bytes", "Response bytes waiting on flow-control credit in the writer",
            writer.pending_bytes, layer="http2", operation="bytes",
        )
        for urgency, depth in enumerate(writer.bucket_depths()):
            out.gauge(
                "http2_writer_urgency_depth", "Streams queued per RFC 9218 urgency bucket",
                depth, layer="http2", operation=f"u{urgency}",
            )
