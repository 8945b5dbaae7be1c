"""Flow-control-aware response writer (the concurrent stream scheduler).

The sans-io engine's :meth:`H2Connection.send_data` is strict: it raises
:class:`FlowControlError` the moment a frame would overrun a window. That
is the right behaviour for a protocol engine, but a server streaming many
responses at once needs the complementary *scheduling* layer — something
that holds each stream's remaining body, sends exactly as much as the
connection and stream windows allow, parks streams whose window is
exhausted, and resumes them when the peer's WINDOW_UPDATE arrives.

:class:`ConnectionWriter` is that layer. It is itself sans-io (it only
writes into the engine's outbound buffer), so the same scheduler runs
under asyncio TCP in :mod:`repro.sww.server` and under the deterministic
in-memory transport in tests:

* **per-stream send queues** — :meth:`enqueue` accepts a whole response
  body; the writer owns chunking it into DATA frames no larger than the
  peer's ``MAX_FRAME_SIZE``;
* **priority scheduling (RFC 9218)** — streams sit in strict urgency
  buckets (0 most urgent … 7 least). A lower-urgency bucket is served
  only when every more-urgent bucket is empty or window-blocked. Within
  a bucket, *incremental* streams round-robin one frame at a time (a
  small page completes in bounded time even while a multi-megabyte asset
  is mid-transfer) and *non-incremental* streams run to completion in
  enqueue order (§4.2: a response useless until complete should not be
  interleaved). Streams with no priority signal default to urgency 3,
  incremental — exactly the pre-priority writer's equal-share round
  robin;
* **anti-starvation credit** — every frame served at urgency *u* accrues
  one debt unit to each hungrier-numbered non-empty bucket; at
  ``starvation_interval`` units the starved bucket claims one frame
  ahead of the strict scan, so urgency-7 bulk still drains under a
  steady stream of urgent work;
* **flow-control pausing** — a stream whose stream window (or the shared
  connection window) is empty is skipped, not failed; :meth:`pump`
  simply stops making progress and the caller waits for the peer;
* **resume on WINDOW_UPDATE** — the owner calls :meth:`pump` again after
  feeding WINDOW_UPDATE frames to the engine (the asyncio server wires
  this to a writer-task wakeup).

The writer never splits the engine's invariants: every byte it emits goes
through :meth:`H2Connection.send_data` with a chunk size pre-clamped to
the available windows, so the engine's own accounting remains the single
source of truth.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from repro.http2.census import WriterTally
from repro.http2.connection import H2Connection
from repro.http2.priority import DEFAULT_URGENCY, URGENCY_LEVELS, clamp_urgency
from repro.http2.streams import StreamState
from repro.obs import NULL_REGISTRY, MetricsRegistry


@dataclass
class _SendQueue:
    """One stream's pending response body."""

    stream_id: int
    data: memoryview
    end_stream: bool
    offset: int = 0
    #: True once the final frame (with END_STREAM when requested) went out.
    finished: bool = False
    #: Extra chunks appended while the stream was already queued.
    backlog: deque = field(default_factory=deque)
    #: Wide event this stream's response will close (see ``enqueue``).
    event: object | None = None
    enqueued_at: float = 0.0
    #: Per-stream scheduling stats, annotated onto the wide event.
    frames: int = 0
    stalls: int = 0
    #: True when the stream died (reset) under the queued response.
    reset: bool = False
    #: RFC 9218 scheduling parameters (bucket index / interleave mode).
    urgency: int = DEFAULT_URGENCY
    incremental: bool = True

    @property
    def remaining(self) -> int:
        return len(self.data) - self.offset

    @property
    def queued(self) -> int:
        """Body bytes not yet sent: the current chunk's rest plus the backlog."""
        return self.remaining + sum(len(extra) for extra in self.backlog)

    def take(self, limit: int) -> memoryview:
        """Next chunk as a zero-copy view into the queued body.

        The view is consumed (serialized into the engine's outbound
        buffer) before the writer yields, so it never outlives ``data``.
        """
        chunk = self.data[self.offset : self.offset + limit]
        self.offset += len(chunk)
        return chunk


class ConnectionWriter:
    """Urgency-bucketed DATA scheduler over one connection's flow windows."""

    def __init__(
        self,
        conn: H2Connection,
        registry: MetricsRegistry | None = None,
        starvation_interval: int = 8,
    ) -> None:
        self.conn = conn
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.starvation_interval = max(1, starvation_interval)
        self._queues: dict[int, _SendQueue] = {}
        #: Strict-priority buckets of stream ids, index = urgency. Within
        #: a bucket the front stream is next up; incremental streams
        #: rotate to the back after each frame, non-incremental hold the
        #: front until finished (or window-stalled).
        self._buckets: list[deque[int]] = [deque() for _ in range(URGENCY_LEVELS)]
        #: Anti-starvation debt per bucket (see module docstring).
        self._starvation_debt: list[int] = [0] * URGENCY_LEVELS
        #: Cumulative scheduling statistics; the counted ones live in
        #: ``tally``, which the registry reads when it is scraped.
        self.frames_sent = 0
        self.bytes_sent = 0
        self.completed_streams = 0
        self.tally = WriterTally()
        #: Queued body bytes not yet sent, kept as a running sum so a
        #: scrape on another thread reads one int.
        self._pending_bytes = 0
        self.registry.source(self.tally, self)

    # ------------------------------------------------------------------ #
    # Queue management
    # ------------------------------------------------------------------ #

    def enqueue(
        self,
        stream_id: int,
        data: bytes,
        end_stream: bool = True,
        event=None,
        urgency: int | None = None,
        incremental: bool | None = None,
    ) -> None:
        """Queue a response body for flow-controlled transmission.

        Multiple calls for one stream append in order; ``end_stream`` on
        any call marks the stream finished after its last queued byte.
        Passing a wide ``event`` hands its completion to the writer: the
        event is annotated with the stream's frame/stall/queue-time stats
        and finished when the final frame goes out — or finished with
        ``error="stream-reset"`` if the stream dies under the queue — so
        a request's record covers its whole wire lifetime.

        Priority resolution: explicit ``urgency``/``incremental``
        arguments win, then the parameters the connection recorded on the
        stream (``priority`` header / PRIORITY_UPDATE), then the legacy
        defaults (urgency 3, incremental) that reproduce the flat round
        robin.
        """
        urgency, incremental = self._resolve_priority(stream_id, urgency, incremental)
        queue = self._queues.get(stream_id)
        if queue is None:
            # A late enqueue is a programming error, not a silent re-open:
            # the stream's final frame went out, or it died.
            stream = self.conn._stream(stream_id)
            if stream.state is not StreamState.IDLE and not stream.can_send_data:
                raise ValueError(f"stream {stream_id} already finished its response")
            queue = _SendQueue(
                stream_id,
                # Zero-copy: the queue views the caller's body directly;
                # every frame is sliced out of it without duplicating the
                # payload (callers hand over immutable response bytes).
                memoryview(data),
                end_stream,
                event=event,
                enqueued_at=time.perf_counter(),
                urgency=urgency,
                incremental=incremental,
            )
            self._queues[stream_id] = queue
            self._buckets[urgency].append(stream_id)
            self._pending_bytes += queue.remaining
        else:
            queue.backlog.append(data)
            self._pending_bytes += len(data)
            queue.end_stream = queue.end_stream or end_stream
            if event is not None:
                queue.event = event
                if not queue.enqueued_at:
                    queue.enqueued_at = time.perf_counter()
            if (queue.urgency, queue.incremental) != (urgency, incremental):
                self._move_queue(queue, urgency, incremental)

    def reprioritize(self, stream_id: int, urgency: int, incremental: bool) -> bool:
        """Apply a mid-response priority change (PRIORITY_UPDATE).

        Returns True when the stream had a queue to move; the caller
        should pump afterwards, since a promotion may unblock sending
        order immediately.
        """
        queue = self._queues.get(stream_id)
        if queue is None:
            return False
        self._move_queue(queue, clamp_urgency(urgency), bool(incremental))
        return True

    def _resolve_priority(
        self, stream_id: int, urgency: int | None, incremental: bool | None
    ) -> tuple[int, bool]:
        stream = self.conn.streams.get(stream_id)
        if urgency is None:
            urgency = stream.urgency if stream is not None else DEFAULT_URGENCY
        if incremental is None:
            incremental = stream.incremental if stream is not None else True
        return clamp_urgency(urgency), bool(incremental)

    def _move_queue(self, queue: _SendQueue, urgency: int, incremental: bool) -> None:
        if queue.urgency != urgency:
            bucket = self._buckets[queue.urgency]
            try:
                bucket.remove(queue.stream_id)
            except ValueError:
                pass
            self._buckets[urgency].append(queue.stream_id)
        queue.urgency = urgency
        queue.incremental = incremental

    @property
    def pending_streams(self) -> int:
        return len(self._queues)

    @property
    def pending_bytes(self) -> int:
        return self._pending_bytes

    def bucket_depths(self) -> list[int]:
        """Streams queued per urgency bucket, most urgent first."""
        return [len(bucket) for bucket in self._buckets]

    @property
    def idle(self) -> bool:
        return not self._queues

    @property
    def stream_stalls(self) -> int:
        return self.tally.stream_stalls

    @property
    def connection_stalls(self) -> int:
        return self.tally.connection_stalls

    @property
    def starvation_credits(self) -> int:
        return sum(self.tally.starvation_credits)

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def pump(self) -> int:
        """Emit as many DATA frames as the windows allow; return the bytes
        written into the engine's outbound buffer.

        A return of 0 with :attr:`pending_streams` > 0 means every queued
        stream is blocked on flow control — the caller should wait for
        WINDOW_UPDATE (or a SETTINGS window resize) and pump again.
        """
        written = 0
        #: Streams that hit an empty window this pump; skipped until the
        #: next pump call (their credit can only return via the peer).
        stalled: set[int] = set()
        while True:
            queue = self._next_queue(stalled)
            if queue is None:
                break
            sent = self._send_one_frame(queue)
            if queue.finished:
                self._remove_queue(queue)
                self.completed_streams += 1
                self._close_event(queue)
                if sent:
                    written += sent
                self._tick_starvation(queue.urgency)
                continue
            if sent is None:
                stalled.add(queue.stream_id)
                self._rotate(queue)
                continue
            written += sent
            if queue.incremental:
                self._rotate(queue)
            self._tick_starvation(queue.urgency)
        if self._any_payload_pending() and self.conn.outbound_window.available <= 0:
            # Pump ended with bytes still queued and the shared connection
            # window dry — everyone is parked on the peer.
            self.tally.connection_stalls += 1
        return written

    def _next_queue(self, stalled: set[int]) -> _SendQueue | None:
        """Pick the next stream to serve: a starvation claim first, then
        the strict ascending-urgency scan, skipping stalled streams."""
        claim = self._starvation_claim(stalled)
        if claim is not None:
            return claim
        for bucket in self._buckets:
            for _ in range(len(bucket)):
                stream_id = bucket[0]
                queue = self._queues.get(stream_id)
                if queue is None:
                    bucket.popleft()  # finished stream left behind by a move
                    continue
                if stream_id in stalled:
                    bucket.rotate(-1)
                    continue
                return queue
        return None

    def _starvation_claim(self, stalled: set[int]) -> _SendQueue | None:
        """Give the hungriest over-debt bucket one frame ahead of the
        strict scan (scanned least-urgent first: deeper buckets starve
        soonest under a strict policy)."""
        for urgency in range(URGENCY_LEVELS - 1, 0, -1):
            if self._starvation_debt[urgency] < self.starvation_interval:
                continue
            bucket = self._buckets[urgency]
            for _ in range(len(bucket)):
                stream_id = bucket[0]
                queue = self._queues.get(stream_id)
                if queue is None:
                    bucket.popleft()
                    continue
                if stream_id in stalled:
                    bucket.rotate(-1)
                    continue
                self._starvation_debt[urgency] = 0
                self.tally.starvation_credits[urgency] += 1
                return queue
        return None

    def _tick_starvation(self, served_urgency: int) -> None:
        """A frame went to ``served_urgency``; every hungrier non-empty
        bucket moves one unit closer to a claim."""
        for urgency in range(served_urgency + 1, URGENCY_LEVELS):
            if self._buckets[urgency]:
                self._starvation_debt[urgency] += 1

    def _rotate(self, queue: _SendQueue) -> None:
        bucket = self._buckets[queue.urgency]
        try:
            bucket.remove(queue.stream_id)
        except ValueError:
            return
        bucket.append(queue.stream_id)

    def _remove_queue(self, queue: _SendQueue) -> None:
        self._queues.pop(queue.stream_id, None)
        try:
            self._buckets[queue.urgency].remove(queue.stream_id)
        except ValueError:
            pass

    def _any_payload_pending(self) -> bool:
        """True if any queued stream still has body bytes (not just a bare
        END_STREAM flag, which needs no window credit)."""
        return any(
            q.remaining > 0 or q.backlog for q in self._queues.values()
        )

    def _send_one_frame(self, queue: _SendQueue) -> int | None:
        """Send at most one DATA frame for this stream.

        Returns the payload size sent (0 for a bare END_STREAM frame), or
        None when the stream is parked on an exhausted window.
        """
        if queue.remaining == 0 and queue.backlog:
            queue.data = memoryview(queue.backlog.popleft())
            queue.offset = 0
        stream = self.conn.streams.get(queue.stream_id)
        if stream is None or not stream.can_send_data:
            # The stream died (reset) under the queued response: drop it.
            self._pending_bytes -= queue.queued
            queue.finished = True
            queue.reset = True
            queue.offset = len(queue.data)
            queue.backlog.clear()
            return 0
        last_chunk = queue.remaining <= self._frame_limit() and not queue.backlog
        if queue.remaining == 0:
            # Body fully sent; emit the bare END_STREAM frame if owed.
            self.conn.send_data(queue.stream_id, b"", end_stream=queue.end_stream)
            queue.finished = True
            self.frames_sent += 1
            queue.frames += 1
            return 0
        allowance = min(
            self._frame_limit(),
            self.conn.outbound_window.available,
            stream.outbound_window.available,
            queue.remaining,
        )
        if allowance <= 0:
            if stream.outbound_window.available <= 0:
                self.tally.stream_stalls += 1
                queue.stalls += 1
            return None
        final = queue.end_stream and last_chunk and allowance == queue.remaining
        chunk = queue.take(allowance)
        self._pending_bytes -= len(chunk)
        self.conn.send_data(queue.stream_id, chunk, end_stream=final)
        queue.finished = final or (
            queue.remaining == 0 and not queue.backlog and not queue.end_stream
        )
        self.frames_sent += 1
        queue.frames += 1
        self.bytes_sent += len(chunk)
        return len(chunk)

    def _frame_limit(self) -> int:
        return self.conn.peer_settings.max_frame_size

    # ------------------------------------------------------------------ #
    # Wide-event completion
    # ------------------------------------------------------------------ #

    def _close_event(self, queue: _SendQueue, error: str | None = None) -> None:
        event = queue.event
        if event is None:
            return
        queue.event = None
        event.set(
            writer_frames=queue.frames,
            writer_stalls=queue.stalls,
            writer_queue_s=time.perf_counter() - queue.enqueued_at,
            writer_urgency=queue.urgency,
        )
        if error is not None:
            event.finish(error=error)
        elif queue.reset:
            event.finish(error="stream-reset")
        else:
            event.finish()

    def abort_pending(self, error: str = "connection-closed") -> int:
        """Finish every queued stream's wide event with an error.

        Called when the connection dies with responses still queued —
        without this, events handed to the writer would stay open forever
        (a leaked ring entry). Returns the number of streams aborted.
        """
        aborted = 0
        for queue in list(self._queues.values()):
            self._close_event(queue, error=error)
            aborted += 1
        self._queues.clear()
        self._pending_bytes = 0
        for bucket in self._buckets:
            bucket.clear()
        return aborted

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #

    def debug_state(self) -> dict:
        """Scheduler state for the admin plane's ``/debug/streams`` view:
        cumulative counters plus every queued stream's backlog and the
        flow-control windows it is waiting on."""
        streams = []
        for queue in self._queues.values():
            stream = self.conn.streams.get(queue.stream_id)
            streams.append(
                {
                    "stream_id": queue.stream_id,
                    "queued_bytes": queue.queued,
                    "end_stream": queue.end_stream,
                    "urgency": queue.urgency,
                    "incremental": queue.incremental,
                    "stream_window": (
                        stream.outbound_window.available if stream is not None else None
                    ),
                }
            )
        return {
            "pending_streams": self.pending_streams,
            "pending_bytes": self.pending_bytes,
            "frames_sent": self.frames_sent,
            "bytes_sent": self.bytes_sent,
            "stream_stalls": self.stream_stalls,
            "connection_stalls": self.connection_stalls,
            "completed_streams": self.completed_streams,
            "starvation_credits": self.starvation_credits,
            "connection_window": self.conn.outbound_window.available,
            "streams": streams,
        }
