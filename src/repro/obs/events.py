"""Wide events: one canonical log line per request, assembled across layers.

Aggregated metrics answer "how is the system doing"; they cannot answer
"what happened to *that* request". A wide event is the per-request
complement: a single structured record that every layer annotates as the
request traverses it — negotiation outcome in the server, model/device/
steps and simulated cost in the generation path, gencache hit/coalesce in
the media generator, batch id and share in the batching engine, queue and
stall time in the connection writer — and that is emitted exactly once
when the request finishes, success or failure.

Design points:

* **One ring, bounded.** :class:`EventLog` holds finished events in a
  ``deque(maxlen=capacity)``; overflow evicts oldest and counts
  ``obs_events_dropped_total`` rather than growing memory.
* **Strict schema.** Field names must come from :data:`EVENT_FIELDS`
  (snake_case, documented in OBSERVABILITY.md — the catalog lint enforces
  both). Unknown fields raise immediately, so drift is a test failure,
  not silent divergence between emitters.
* **Idempotent finish.** :meth:`WideEvent.finish` records the event on
  its first call only; layered error handling (server handler, writer,
  ``finally`` blocks) may all call it without double-emitting.
* **Cross-layer annotation without plumbing.** The layer that *owns* a
  request binds its event to the current context (``with event.bind():``),
  held in a :class:`~contextvars.ContextVar`, so the binding follows the
  request's thread or asyncio task; inner layers (gencache, batching
  metadata, the materialise path) call :func:`annotate_current`, which is
  a no-op when no event is bound. The first span the request opens while
  its event is bound gives the event its ``trace_id``
  (:mod:`repro.obs.tracing`).
* **Export.** ``to_jsonl`` (one JSON object per line) and
  ``to_columnar`` (same shape as the timeseries plane: a field-major
  document a future multi-worker arbiter can merge cheaply).

The :data:`NULL_EVENT_LOG` default makes every emitter a no-op, same as
the metrics/tracing null singletons.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Iterable

#: Format tag stamped on columnar exports.
EVENTS_FORMAT = "sww-events/1"

#: snake_case: the lint in :mod:`repro.obs.catalog` enforces this shape
#: and that every field is documented in OBSERVABILITY.md.
FIELD_RE = re.compile(r"^[a-z][a-z0-9]*(?:_[a-z0-9]+)*$")

#: The canonical wide-event schema: field name -> one-line meaning.
#: Every annotation site must use these names; ``WideEvent.set`` rejects
#: anything else. Keep the table in OBSERVABILITY.md in sync (linted).
EVENT_FIELDS: dict[str, str] = {
    # -- identity / envelope -------------------------------------------- #
    "event": "event type: server.request, client.fetch, cdn.serve, batch.execute",
    "seq": "monotonic per-log sequence number, stamped at begin()",
    "worker": "pid of the serving worker that recorded the event (multi-worker mode)",
    "trace_id": "W3C trace id joining the event to its distributed trace",
    "status": "final HTTP status (or 0 when the request never got one)",
    "error": "exception class or failure kind when the request failed",
    "duration_s": "begin-to-finish wall time in seconds",
    "transport": "memory | tcp",
    "stream_id": "HTTP/2 stream id the request rode",
    "path": "request path (or page path for client fetches)",
    "authority": "request :authority pseudo-header",
    # -- negotiation ---------------------------------------------------- #
    "serve_mode": "negotiated serve mode: sww | fallback",
    "fallback_reason": "why fallback was chosen: negotiation | no-prompts | policy | models",
    "client_gen_ability": "whether the peer advertised SETTINGS_GEN_ABILITY",
    # -- generation ----------------------------------------------------- #
    "model": "generation model that materialised the content",
    "device": "device profile the generation cost model used",
    "steps": "diffusion/sampling steps for the generation",
    "sim_time_s": "simulated generation seconds attributed to this request",
    "energy_wh": "simulated generation energy (watt-hours) for this request",
    # -- gencache ------------------------------------------------------- #
    "gencache_outcome": "hit | miss | coalesced for the request's generation key(s)",
    "gencache_hits": "number of generation-cache hits within the request",
    "gencache_coalesced": "number of in-flight coalesced generations joined",
    # -- batching ------------------------------------------------------- #
    "batch_id": "sequence id of the engine batch the generation rode",
    "batch_size": "number of requests in that batch",
    "batch_share": "amortised per-item step share for the batch",
    # -- writer / wire -------------------------------------------------- #
    "writer_frames": "DATA frames the connection writer sent for the stream",
    "writer_stalls": "times the stream parked on an exhausted flow-control window",
    "writer_queue_s": "enqueue-to-last-frame seconds spent in the writer",
    "writer_urgency": "RFC 9218 urgency bucket (0-7) the response was scheduled in",
    "body_bytes": "response body bytes before framing",
    "wire_bytes": "bytes that actually crossed the wire",
    # -- client-side ---------------------------------------------------- #
    "sww_mode": "client saw an SWW (prompt) response rather than literal content",
    "generated_images": "images the client generated locally",
    "generated_texts": "text blocks the client generated locally",
    # -- cdn ------------------------------------------------------------ #
    "cache_key": "edge/generation cache key for cdn.serve events",
    "cache_hit": "edge cache hit (cdn.serve)",
    "backbone_bytes": "origin-to-edge bytes for the serve",
    "egress_bytes": "edge-to-client bytes for the serve",
}

_EVENT_TYPES = ("server.request", "client.fetch", "cdn.serve", "batch.execute")

#: The innermost event bound in the current context (thread or task).
#: Module-level (not per-log) so inner layers need no handle on the log.
_CURRENT: ContextVar["WideEvent | None"] = ContextVar("repro.obs.events.current", default=None)


def current_event() -> "WideEvent | None":
    """The innermost wide event bound in the current context, if any."""
    return _CURRENT.get()


def annotate_current(**fields) -> None:
    """Annotate the current context's bound event; no-op when none."""
    event = current_event()
    if event is not None:
        event.set(**fields)


def add_current(**fields) -> None:
    """Numerically accumulate onto the bound event; no-op when none."""
    event = current_event()
    if event is not None:
        event.add(**fields)


class _Binding:
    """``with event.bind():`` — the event is the context's current one."""

    __slots__ = ("_event", "_token")

    def __init__(self, event: "WideEvent") -> None:
        self._event = event

    def __enter__(self) -> "WideEvent":
        self._token = _CURRENT.set(self._event)
        return self._event

    def __exit__(self, exc_type, exc, tb) -> None:
        _CURRENT.reset(self._token)


class WideEvent:
    """One request's canonical record; annotated across layers, emitted once."""

    __slots__ = ("fields", "_log", "_start", "_finished")

    def __init__(self, log: "EventLog | None", event: str, fields: dict) -> None:
        self._log = log
        self._start = time.perf_counter()
        self._finished = False
        self.fields = fields
        self.fields["event"] = event

    def set(self, **fields) -> "WideEvent":
        """Annotate; field names must exist in :data:`EVENT_FIELDS`."""
        for name in fields:
            if name not in EVENT_FIELDS:
                raise ValueError(
                    f"unknown wide-event field {name!r}; add it to "
                    "repro.obs.events.EVENT_FIELDS (and OBSERVABILITY.md)"
                )
        self.fields.update(fields)
        return self

    def add(self, **fields) -> "WideEvent":
        """Numeric accumulate (``add(gencache_hits=1)``) — schema-checked."""
        for name, value in fields.items():
            if name not in EVENT_FIELDS:
                raise ValueError(f"unknown wide-event field {name!r}")
            self.fields[name] = self.fields.get(name, 0) + value
        return self

    def bind(self) -> _Binding:
        """Bind as the current context's event for the ``with`` body."""
        return _Binding(self)

    @property
    def finished(self) -> bool:
        return self._finished

    def finish(
        self, status: int | None = None, error: str | None = None
    ) -> "WideEvent":
        """Close and record the event; idempotent (first call wins)."""
        if self._finished:
            return self
        self._finished = True
        if status is not None:
            self.fields["status"] = status
        self.fields.setdefault("status", 0)
        if error is not None:
            self.fields["error"] = error
        self.fields["duration_s"] = time.perf_counter() - self._start
        if self._log is not None:
            self._log._emit(self)
        return self

    def to_dict(self) -> dict:
        return dict(self.fields)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self._finished else "open"
        return f"<WideEvent {self.fields.get('event')} seq={self.fields.get('seq')} {state}>"


class EventLog:
    """Bounded ring of finished wide events."""

    enabled = True

    def __init__(
        self, capacity: int = 2048, registry=None, worker_id: int | None = None
    ) -> None:
        if capacity <= 0:
            raise ValueError("event ring capacity must be positive")
        self._ring: deque[WideEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._open = 0
        #: Finished events evicted by ring overflow (never reset by reads).
        self.dropped = 0
        #: Finished events by type; the registry reads these when scraped.
        self._recorded = dict.fromkeys(_EVENT_TYPES, 0)
        if registry is not None:
            registry.source(self)
        #: When set (multi-worker serving), every event carries a ``worker``
        #: field so merged jsonl streams sort deterministically by
        #: ``(worker, seq)`` and never collide across workers.
        self.worker_id = worker_id

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    @property
    def open_count(self) -> int:
        """Events begun but not yet finished (leak detector for tests)."""
        return self._open

    def begin(self, event: str, **fields) -> WideEvent:
        """Start a wide event; stamps ``seq`` and validates field names."""
        if event not in _EVENT_TYPES:
            raise ValueError(f"unknown event type {event!r}; one of {_EVENT_TYPES}")
        with self._lock:
            self._seq += 1
            seq = self._seq
            self._open += 1
        record = WideEvent(self, event, {"seq": seq})
        if self.worker_id is not None:
            record.fields["worker"] = self.worker_id
        record.set(**fields)
        return record

    def _emit(self, event: WideEvent) -> None:
        with self._lock:
            self._open -= 1
            if self._ring.maxlen is not None and len(self._ring) == self._ring.maxlen:
                self.dropped += 1
            self._ring.append(event)
            self._recorded[event.fields["event"]] += 1

    def samples(self, out, _owner) -> None:
        """The log's counts, when its registry is scraped."""
        for event, count in self._recorded.items():
            out.counter("obs_events_total", "Wide events recorded, by event type", count, layer="obs", operation=event)
        out.counter(
            "obs_events_dropped_total", "Finished wide events evicted from the bounded ring",
            self.dropped, layer="obs", operation="evicted",
        )

    def events(self, last: int | None = None) -> list[WideEvent]:
        """Finished events, oldest first (``last`` trims to the newest N)."""
        with self._lock:
            items = list(self._ring)
        if last is not None and last >= 0:
            items = items[len(items) - min(last, len(items)):]
        return items

    def reset(self) -> None:
        with self._lock:
            self._ring.clear()

    def to_jsonl(self, last: int | None = None) -> str:
        return events_to_jsonl(event.to_dict() for event in self.events(last=last))

    def to_columnar(self, last: int | None = None) -> dict:
        return events_to_columnar(event.to_dict() for event in self.events(last=last))


def events_to_jsonl(records: Iterable[dict]) -> str:
    """One JSON object per event record, keys sorted — join-friendly with logs."""
    lines = [json.dumps(record, sort_keys=True, default=str) for record in records]
    return "\n".join(lines) + ("\n" if lines else "")


def events_to_columnar(records: Iterable[dict]) -> dict:
    """Field-major export of event records: ``{format, count, columns:
    {field: [values]}}``.

    Missing fields become ``None`` so every column has equal length —
    the same merge-friendly shape as the sww-timeseries/1 snapshots.
    """
    records = list(records)
    names = sorted({name for record in records for name in record})
    columns = {
        name: [record.get(name) for record in records] for name in names
    }
    return {"format": EVENTS_FORMAT, "count": len(records), "columns": columns}


class _NullEvent(WideEvent):
    """Shared no-op event: annotations discarded, never recorded."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(None, "server.request", {})

    def set(self, **fields) -> "WideEvent":
        return self

    def add(self, **fields) -> "WideEvent":
        return self

    def bind(self) -> _Binding:
        return _NULL_BINDING

    def finish(self, status=None, error=None) -> "WideEvent":
        return self

    def to_dict(self) -> dict:
        return {}


class _NullBinding:
    __slots__ = ()

    def __enter__(self):
        return _NULL_EVENT

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_BINDING = _NullBinding()
_NULL_EVENT = _NullEvent()


class NullEventLog(EventLog):
    """Default event log: begin() hands out the shared no-op event."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def begin(self, event: str, **fields) -> WideEvent:  # type: ignore[override]
        return _NULL_EVENT

    def events(self, last: int | None = None) -> list[WideEvent]:
        return []


#: Process-wide no-op singleton (same pattern as NULL_REGISTRY/NULL_TRACER).
NULL_EVENT_LOG = NullEventLog()
