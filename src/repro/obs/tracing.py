"""Span-based tracing with parent/child nesting and a ring buffer.

A :class:`Tracer` hands out context-manager :class:`Span` objects::

    with tracer.span("server.materialise", page=path) as sp:
        ...
        sp.annotate(assets=len(report.assets))

Timing uses ``time.perf_counter``. Each tracer keeps its innermost open
span in a :class:`~contextvars.ContextVar`, so spans nest within one
context — a thread, or an asyncio task — and a span opened while another
of the same tracer is open there becomes its child. Concurrent requests
on one event loop each keep their own tree; a new thread starts with no
open span. A span opened while a wide event is bound
(:mod:`repro.obs.events`) gives that event its ``trace_id`` unless it has
one, so a request's first span is the one source of its trace id.
Completed *root* spans land in a bounded ring buffer (old traces fall off
rather than growing memory — the tracer can be left attached to a
long-running server, and evictions are counted rather than silent). The
:data:`NULL_TRACER` default makes every ``with`` a no-op.

Every recorded span carries W3C-shaped identifiers (a 16-byte trace-id
shared by the whole trace, an 8-byte span-id of its own) minted by an
injectable :class:`~repro.obs.propagation.IdSource`. A span opened with a
``remote=`` :class:`~repro.obs.propagation.TraceContext` — extracted from
a ``traceparent`` header — joins the sender's trace as a *remote child*:
it keeps the sender's trace-id, records the sender's span-id as
``remote_parent``, and honours the sender's head-sampling decision.
:func:`stitch_spans` reassembles the per-process fragments into one tree.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Iterable

from repro.obs.events import current_event
from repro.obs.propagation import IdSource, TraceContext

#: Tail-retention classes, in keep-priority order (error never evicted
#: before slow, slow never before baseline).
KEEP_ERROR = "error"
KEEP_SLOW = "slow"
KEEP_BASELINE = "baseline"


class TailSampler:
    """Tail-based retention: the keep/drop decision at root completion.

    Head sampling (``Tracer(sample_rate=...)``) flips its coin when a
    trace *starts*, so at any budget below 1.0 it discards errors and
    tail-latency outliers with exactly the same probability as boring
    traces — the traces you keep are, by construction, the ones you did
    not need. Tail sampling inverts that: every root completes, and only
    then is classified:

    * **error** — any span in the tree recorded an ``error`` attribute:
      always kept;
    * **slow** — a reservoir of the ``slow_k`` slowest non-error roots
      seen so far (a min-heap; a new root displaces the reservoir's
      fastest member, which is then evicted);
    * **baseline** — everything else passes a deterministic coin
      (:meth:`IdSource.sample`) at ``baseline_rate``, keeping an
      unbiased sample of normal traffic for comparison.

    Total retention is bounded by ``capacity``; overflow evicts in
    reverse priority (oldest baseline, then oldest slow, then oldest
    error) so the interesting classes survive longest. Kept / dropped /
    evicted counts go to ``obs_traces_kept_total`` and
    ``obs_traces_dropped_total``.
    """

    def __init__(
        self,
        capacity: int = 256,
        slow_k: int = 16,
        baseline_rate: float = 0.05,
        ids: IdSource | None = None,
        registry=None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("retention capacity must be positive")
        if slow_k < 0:
            raise ValueError("slow_k must be >= 0")
        if not 0.0 <= baseline_rate <= 1.0:
            raise ValueError("baseline_rate must be in [0, 1]")
        self.capacity = capacity
        self.slow_k = slow_k
        self.baseline_rate = baseline_rate
        self._ids = ids if ids is not None else IdSource()
        self._lock = threading.Lock()
        #: seq -> (class, span); dict order is arrival order.
        self._retained: dict[int, tuple[str, Span]] = {}
        #: min-heap of (duration_s, seq) for the slow reservoir.
        self._slow_heap: list[tuple[float, int]] = []
        self._stale: set[int] = set()
        self._seq = 0
        self.kept: dict[str, int] = {KEEP_ERROR: 0, KEEP_SLOW: 0, KEEP_BASELINE: 0}
        self.dropped = 0
        self.evicted = 0
        if registry is not None:
            registry.source(self)

    @staticmethod
    def has_error(span: "Span") -> bool:
        """True when any span in the tree carries an ``error`` attribute."""
        for _, node in span.walk():
            if "error" in node.attributes:
                return True
        return False

    def record(self, span: "Span") -> str | None:
        """Classify one completed root; returns the class kept, or None."""
        with self._lock:
            self._seq += 1
            seq = self._seq
            kind = self._classify(span, seq)
            if kind is None:
                self.dropped += 1
                return None
            self._retained[seq] = (kind, span)
            self.kept[kind] += 1
            while len(self._retained) > self.capacity:
                self._evict_one()
            return kind

    def _classify(self, span: "Span", seq: int) -> str | None:
        if self.has_error(span):
            return KEEP_ERROR
        duration = span.duration_s
        if self.slow_k > 0:
            self._prune_heap()
            if len(self._slow_heap) < self.slow_k:
                heapq.heappush(self._slow_heap, (duration, seq))
                return KEEP_SLOW
            if duration > self._slow_heap[0][0]:
                # Displace the reservoir's fastest member; it no longer
                # earns its slot (unless capacity kept it as baseline,
                # it is gone — that is the point of a top-k reservoir).
                _, demoted_seq = heapq.heapreplace(self._slow_heap, (duration, seq))
                self._stale.discard(demoted_seq)
                if demoted_seq in self._retained:
                    del self._retained[demoted_seq]
                    self.evicted += 1
                return KEEP_SLOW
        if self._ids.sample(self.baseline_rate):
            return KEEP_BASELINE
        return None

    def _prune_heap(self) -> None:
        while self._slow_heap and self._slow_heap[0][1] in self._stale:
            self._stale.discard(self._slow_heap[0][1])
            heapq.heappop(self._slow_heap)

    def _evict_one(self) -> None:
        victim = None
        for priority in (KEEP_BASELINE, KEEP_SLOW, KEEP_ERROR):
            for seq, (kind, _span) in self._retained.items():
                if kind == priority:
                    victim = (seq, kind)
                    break
            if victim is not None:
                break
        if victim is None:  # pragma: no cover - retained is non-empty here
            return
        seq, kind = victim
        del self._retained[seq]
        if kind == KEEP_SLOW:
            self._stale.add(seq)
        self.evicted += 1

    def samples(self, out, _owner) -> None:
        """The sampler's counts, when its registry is scraped."""
        for kind, count in self.kept.items():
            out.counter(
                "obs_traces_kept_total", "Completed roots kept by tail sampling, by retention class",
                count, layer="obs", operation=kind,
            )
        for operation, count in (("tail", self.dropped), ("tail-evicted", self.evicted)):
            out.counter(
                "obs_traces_dropped_total", "Completed root spans evicted from the tracer ring buffer",
                count, layer="obs", operation=operation,
            )

    def spans(self) -> list["Span"]:
        """Retained roots, oldest first."""
        with self._lock:
            return [span for _kind, span in self._retained.values()]

    def retained(self) -> list[tuple[str, "Span"]]:
        """``(class, span)`` pairs, oldest first (for tests/inspection)."""
        with self._lock:
            return list(self._retained.values())

    def reset(self) -> None:
        with self._lock:
            self._retained.clear()
            self._slow_heap.clear()
            self._stale.clear()


class Span:
    """One timed operation; context manager, may carry child spans."""

    __slots__ = (
        "name",
        "attributes",
        "start",
        "end",
        "children",
        "trace_id",
        "span_id",
        "sampled",
        "remote_parent",
        "_tracer",
        "_parent",
        "_remote",
        "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attributes: dict,
        remote: TraceContext | None = None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attributes = attributes
        self.start: float = 0.0
        self.end: float | None = None
        self.children: list[Span] = []
        self._parent: Span | None = None
        self._remote = remote
        #: Identity, assigned on __enter__ (inherited from the local parent,
        #: the remote context, or freshly minted for a new root).
        self.trace_id: str = ""
        self.span_id: str = ""
        self.sampled: bool = True
        #: The extracted cross-process parent, when this span was opened as
        #: a remote child (None for purely local spans).
        self.remote_parent: TraceContext | None = None

    @property
    def duration_s(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def context(self) -> TraceContext:
        """This span's identity in propagation form (inject into headers)."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id, sampled=self.sampled)

    def annotate(self, **attributes) -> "Span":
        """Attach extra attributes mid-span."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        local_parent = tracer._current.get()
        remote = self._remote
        if remote is not None and (local_parent is None or local_parent.trace_id != remote.trace_id):
            # True cross-process hop: detach from any unrelated local span
            # and root this process's fragment of the sender's trace.
            self._parent = None
            self.trace_id = remote.trace_id
            self.sampled = remote.sampled
            self.remote_parent = remote
        else:
            # Purely local, or a remote context that is really the local
            # parent seen through a same-process loopback (the in-memory
            # transport): plain nesting keeps the tree whole.
            self._parent = local_parent
            if local_parent is not None:
                self.trace_id = local_parent.trace_id
                self.sampled = local_parent.sampled
            else:
                self.trace_id = tracer._ids.trace_id()
                self.sampled = tracer._ids.sample(tracer.sample_rate)
        self.span_id = tracer._ids.span_id()
        if self._parent is not None and self.sampled:
            self._parent.children.append(self)
        event = current_event()
        if event is not None:
            event.fields.setdefault("trace_id", self.trace_id)
        self._token = tracer._current.set(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = time.perf_counter()
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        # The token's own var: Tracer.reset() may have swapped the tracer's.
        self._token.var.reset(self._token)
        if self._parent is None and self.sampled:
            self._tracer._record(self)

    def walk(self, depth: int = 0):
        """Yield ``(depth, span)`` pairs, pre-order."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def to_dict(self) -> dict:
        """JSON-friendly form (relative times only, keeps runs comparable)."""
        data = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "duration_s": self.duration_s,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }
        if self.remote_parent is not None:
            data["remote_parent"] = self.remote_parent.span_id
        return data


class Tracer:
    """Factory for spans; owns the completed-root ring buffer."""

    enabled = True

    def __init__(
        self,
        capacity: int = 1024,
        ids: IdSource | None = None,
        sample_rate: float = 1.0,
        registry=None,
        tail: TailSampler | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self._ring: deque[Span] = deque(maxlen=capacity)
        #: The innermost open span in the current context. One var per
        #: tracer: a span never becomes another tracer's local parent.
        self._current: ContextVar[Span | None] = ContextVar("repro.obs.tracing.current", default=None)
        self._lock = threading.Lock()
        self._ids = ids if ids is not None else IdSource()
        #: Head-based sampling probability for locally started roots;
        #: remote children always inherit the sender's decision instead.
        self.sample_rate = sample_rate
        #: Completed roots evicted by ring overflow, or dropped by the
        #: tail sampler (never reset by reads).
        self.dropped_roots = 0
        #: Tail-based retention policy: when set, completed roots route
        #: through it instead of the oldest-first ring (leave
        #: ``sample_rate`` at 1.0 so the tail sees every root).
        self.tail = tail
        if registry is not None:
            registry.source(self)

    def span(self, name: str, remote: TraceContext | None = None, **attributes) -> Span:
        """Open a span; pass ``remote=`` to join a propagated trace."""
        return Span(self, name, attributes, remote=remote)

    def _record(self, span: Span) -> None:
        if self.tail is not None:
            if self.tail.record(span) is None:
                self.dropped_roots += 1
            return
        with self._lock:
            if self._ring.maxlen is not None and len(self._ring) == self._ring.maxlen:
                self.dropped_roots += 1
            self._ring.append(span)

    def samples(self, out, _owner) -> None:
        """The ring's evictions, when the registry is scraped; a tail
        sampler reports its own."""
        if self.tail is None:
            out.counter(
                "obs_traces_dropped_total", "Completed root spans evicted from the tracer ring buffer",
                self.dropped_roots, layer="obs", operation="evicted",
            )

    def roots(self) -> list[Span]:
        """Completed root spans, oldest first (tail-retained when enabled)."""
        if self.tail is not None:
            return self.tail.spans()
        with self._lock:
            return list(self._ring)

    def reset(self) -> None:
        with self._lock:
            self._ring.clear()
        if self.tail is not None:
            self.tail.reset()
        self._current = ContextVar("repro.obs.tracing.current", default=None)

    @property
    def current(self) -> Span | None:
        return self._current.get()

    def current_context(self) -> TraceContext | None:
        """The active span's propagation context (None when idle)."""
        span = self.current
        if span is None or not span.trace_id:
            return None
        return span.context

    def current_trace_id(self) -> str | None:
        """The active *sampled* trace's id — exemplar-friendly: unsampled
        traces are never recorded, so they yield None rather than an id
        that resolves to nothing."""
        span = self.current
        if span is None or not span.sampled or not span.trace_id:
            return None
        return span.trace_id


def stitch_spans(roots: Iterable[Span]) -> list[Span]:
    """Reassemble per-process trace fragments into whole trees.

    Takes completed roots from any number of tracers (one per simulated
    process). Every root carrying a ``remote_parent`` is attached as a
    child of the span it names — matched on ``(trace_id, span_id)`` —
    and drops out of the returned root list; roots whose remote parent is
    not present (or that never had one) come back as stitched tree roots.

    Attachment mutates ``parent.children`` in place (idempotently), so the
    usual :meth:`Span.walk` / renderers see one tree per trace.
    """
    roots = list(roots)
    index: dict[tuple[str, str], Span] = {}
    for root in roots:
        for _, span in root.walk():
            index[(span.trace_id, span.span_id)] = span
    stitched: list[Span] = []
    for root in roots:
        ctx = root.remote_parent
        parent = index.get((ctx.trace_id, ctx.span_id)) if ctx is not None else None
        if parent is None or parent is root:
            stitched.append(root)
            continue
        if not any(child is root for child in parent.children):
            parent.children.append(root)
            parent.children.sort(key=lambda span: span.start)
    return stitched


class _NullSpan:
    """Shared no-op span; supports the full Span surface.

    This is a process-wide singleton, so nothing on it may be shared
    mutable state: ``attributes`` and ``children`` are properties minting
    a fresh object per access, and :meth:`annotate` discards its input —
    a caller mutating ``span.attributes`` cannot poison later spans.
    """

    name = ""
    duration_s = 0.0
    trace_id = ""
    span_id = ""
    sampled = False
    remote_parent = None

    @property
    def attributes(self) -> dict:
        return {}

    @property
    def children(self) -> list:
        return []

    @property
    def context(self) -> TraceContext | None:
        return None

    def annotate(self, **attributes) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def walk(self, depth: int = 0):
        return iter(())

    def to_dict(self) -> dict:
        return {}


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """Default tracer: every span is the shared no-op instance."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def span(self, name: str, remote: TraceContext | None = None, **attributes):  # type: ignore[override]
        return _NULL_SPAN

    def roots(self) -> list[Span]:
        return []


#: Process-wide no-op singleton.
NULL_TRACER = NullTracer()
