"""The traced run's instrumentation: one table of public entry points per
layer, wrapped from outside so the program itself carries no spans yet.

Each call into a seam records a span — seam, start, end, parent span, op —
in memory. A seam whose target no longer exists is reported as missing and
skipped, never a crash, so a refactor that removes an entry point still
benchmarks. The untraced run never imports this module.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from stats import self_time

#: How a seam's byte volume is read off one call: ``(args, result) -> bytes``.
ByteCount = Callable[[tuple, object], int]


@dataclass(frozen=True)
class Seam:
    name: str
    #: ``"module:function"`` or ``"module:Class.method"`` entry points.
    targets: tuple[str, ...]
    #: Set for the byte movers, which also report ``mb_per_s``.
    nbytes: ByteCount | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _first_arg_len(args: tuple, _result: object) -> int:
    return len(args[0])


def _result_len(_args: tuple, result: object) -> int:
    return len(result)


SEAMS: tuple[Seam, ...] = (
    Seam("http2.frames.parse", ("repro.http2.frames:parse_frames",), _first_arg_len),
    Seam("http2.frames.serialize", ("repro.http2.frames:Frame.serialize",), _result_len),
    Seam("http2.hpack.encode", ("repro.http2.hpack:HpackEncoder.encode",)),
    Seam("http2.hpack.decode", ("repro.http2.hpack:HpackDecoder.decode",)),
    Seam("http2.connection.receive_data", ("repro.http2.connection:H2Connection.receive_data",)),
    Seam(
        "http2.connection.send",
        (
            "repro.http2.connection:H2Connection.send_headers",
            "repro.http2.connection:H2Connection.send_data",
            "repro.http2.connection:H2Connection.data_to_send",
        ),
    ),
    Seam(
        "http2.writer.pump",
        ("repro.http2.writer:ConnectionWriter.pump",),
        lambda _args, result: int(result),
    ),
    Seam("http2.transport.flush", ("repro.http2.transport:AsyncH2Transport.flush",)),
    Seam("html.parse", ("repro.html.parser:parse_html",), _first_arg_len),
    Seam("html.serialize", ("repro.html.serializer:serialize",)),
    Seam(
        "media.png.encode",
        ("repro.media.png:encode_png",),
        lambda args, _result: int(args[0].nbytes),
    ),
    Seam(
        "genai.image.generate",
        ("repro.genai.image:generate_image", "repro.genai.image:generate_image_batch"),
    ),
    Seam("genai.text.expand", ("repro.genai.text:expand_text",)),
    Seam("gencache.key", ("repro.gencache.key:key_for_item",)),
    Seam(
        "gencache.lookup",
        (
            "repro.gencache.store:GenerationCache.lookup",
            "repro.serving.remote:RemoteGenerationCache.lookup",
        ),
    ),
    Seam(
        "gencache.insert",
        (
            "repro.gencache.store:GenerationCache.insert",
            "repro.serving.remote:RemoteGenerationCache.insert",
        ),
    ),
    Seam(
        "batching.submit",
        (
            "repro.batching.engine:BatchingEngine.submit_image",
            "repro.batching.engine:BatchingEngine.generate_image",
        ),
    ),
    Seam("sww.server.handle_request", ("repro.sww.server:GenerativeServer.handle_request",)),
    Seam("sww.page_processor.process", ("repro.sww.page_processor:PageProcessor.process",)),
    Seam("sww.media_generator.generate", ("repro.sww.media_generator:MediaGenerator.generate",)),
    Seam(
        "obs.events.record",
        (
            "repro.obs.events:EventLog.begin",
            "repro.obs.events:WideEvent.set",
            "repro.obs.events:WideEvent.add",
            "repro.obs.events:WideEvent.finish",
        ),
    ),
    Seam(
        "obs.metrics.update",
        (
            "repro.obs.metrics:MetricsRegistry.counter",
            "repro.obs.metrics:MetricsRegistry.gauge",
            "repro.obs.metrics:MetricsRegistry.histogram",
            "repro.obs.metrics:Counter.inc",
            "repro.obs.metrics:Gauge.set",
            "repro.obs.metrics:Gauge.inc",
            "repro.obs.metrics:Gauge.dec",
            "repro.obs.metrics:Histogram.observe",
        ),
    ),
    Seam(
        "obs.tracing.span",
        (
            "repro.obs.tracing:Tracer.span",
            "repro.obs.tracing:Span.__enter__",
            "repro.obs.tracing:Span.__exit__",
        ),
    ),
    Seam("cdn.fleet.serve", ("repro.cdn.fleet:EdgeFleet.serve",)),
    Seam(
        "cdn.router.route",
        ("repro.cdn.router:FleetRouter.home_edge", "repro.cdn.router:FleetRouter.user_rtt_s"),
    ),
    Seam("workloads.session.run", ("repro.workloads.session:OpenLoopSession.run",)),
)

#: Seam index of an op root in a span row.
ROOT = -1


@dataclass(frozen=True)
class SpanRow:
    """One recorded span. ``parent`` is 0 only for an op root."""

    span_id: int
    parent: int
    op: int
    seam: int
    start: float
    end: float
    nbytes: int


class SpanRecorder:
    """In-memory span store for one traced replay.

    Ops are replayed one at a time, so the op a span belongs to is simply
    the op that is open when it starts. The parent is the innermost seam
    span open in the same task or thread; a span with none (work the
    server does on its own task or executor thread) hangs off the op root.
    """

    def __init__(self) -> None:
        self.spans: list[SpanRow] = []
        #: Ops each root stands for (a fleet replay pass is one root).
        self.op_weight: dict[int, float] = {}
        self._ids = itertools.count(1)
        self._innermost: ContextVar[int] = ContextVar("bench_innermost_span", default=0)
        self._op = 0

    @contextmanager
    def op(self, weight: float = 1.0) -> Iterator[int]:
        """Open the root span of one op (or of ``weight`` ops done as one)."""
        root = next(self._ids)
        self._op = root
        self.op_weight[root] = weight
        start = perf_counter()
        try:
            yield root
        finally:
            end = perf_counter()
            self._op = 0
            self.spans.append(SpanRow(root, 0, root, ROOT, start, end, 0))

    def wrap(self, fn: Callable, seam: int, nbytes: ByteCount | None) -> Callable:
        """``fn`` with a span around every call made while an op is open."""
        spans = self.spans
        innermost = self._innermost
        ids = self._ids

        def record(args: tuple, result: object, span_id: int, parent: int, op: int, start: float) -> None:
            end = perf_counter()
            moved = nbytes(args, result) if nbytes is not None and result is not None else 0
            spans.append(SpanRow(span_id, parent or op, op, seam, start, end, moved))

        if inspect.iscoroutinefunction(fn):

            async def async_wrapper(*args, **kwargs):
                op = self._op
                if not op:
                    return await fn(*args, **kwargs)
                span_id = next(ids)
                parent = innermost.get()
                token = innermost.set(span_id)
                start = perf_counter()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    innermost.reset(token)
                    record(args, result, span_id, parent, op, start)

            return async_wrapper

        def wrapper(*args, **kwargs):
            op = self._op
            if not op:
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = innermost.get()
            token = innermost.set(span_id)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                innermost.reset(token)
                record(args, result, span_id, parent, op, start)

        return wrapper


def _resolve(target: str) -> tuple[object, str, Callable]:
    """``(owner, attribute, function)`` for a ``module:dotted.path`` target."""
    module_name, _, dotted = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = dotted.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


@contextmanager
def installed(recorder: SpanRecorder, seams: tuple[Seam, ...] = SEAMS) -> Iterator[list[str]]:
    """Wrap every resolvable seam target for the duration of the block.

    Yields the names of seams with a target that could not be resolved.
    A module-level function is rebound in every loaded ``repro`` module
    that imported it by name, so ``from repro.html import parse_html``
    call sites are traced too.
    """
    restore: list[tuple[object, str, object]] = []
    missing: list[str] = []
    try:
        for index, seam in enumerate(seams):
            for target in seam.targets:
                try:
                    owner, attr, original = _resolve(target)
                except (ImportError, AttributeError):
                    if seam.name not in missing:
                        missing.append(seam.name)
                    continue
                wrapped = recorder.wrap(original, index, seam.nbytes)
                holders = [owner]
                if inspect.ismodule(owner):
                    holders += [
                        module
                        for name, module in list(sys.modules.items())
                        if name.startswith("repro") and module is not owner
                        and getattr(module, attr, None) is original
                    ]
                for holder in holders:
                    restore.append((holder, attr, original))
                    setattr(holder, attr, wrapped)
        yield missing
    finally:
        for holder, attr, original in reversed(restore):
            setattr(holder, attr, original)


@dataclass
class SeamTotals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    nbytes: int = 0


@dataclass
class TraceSummary:
    """Per-seam totals over one traced replay."""

    ops: float
    #: Σ op-root durations, seconds.
    op_time_s: float
    #: Σ op-root self time: op time no seam span covers.
    unattributed_s: float
    seams: dict[str, SeamTotals]

    @property
    def self_sum_s(self) -> float:
        return self.unattributed_s + sum(t.self_s for t in self.seams.values())


def summarise(recorder: SpanRecorder, seams: tuple[Seam, ...] = SEAMS) -> TraceSummary:
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for row in recorder.spans:
        if row.parent:
            children[row.parent].append((row.start, row.end))
    totals = {seam.name: SeamTotals() for seam in seams}
    op_time = unattributed = 0.0
    for row in recorder.spans:
        own = self_time(row.start, row.end, children.get(row.span_id, ()))
        if row.seam == ROOT:
            op_time += row.end - row.start
            unattributed += own
            continue
        total = totals[seams[row.seam].name]
        total.calls += 1
        total.self_s += own
        total.total_s += row.end - row.start
        total.nbytes += row.nbytes
    return TraceSummary(sum(recorder.op_weight.values()), op_time, unattributed, totals)


def write_spans(recorder: SpanRecorder, path: Path, seams: tuple[Seam, ...] = SEAMS) -> None:
    """One JSON object per span: name, start, end, parent span, op id."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for row in recorder.spans:
            out.write(
                json.dumps(
                    {
                        "span": row.span_id,
                        "parent": row.parent or None,
                        "op": row.op,
                        "name": "op" if row.seam == ROOT else seams[row.seam].name,
                        "start_s": row.start,
                        "end_s": row.end,
                        "bytes": row.nbytes,
                    }
                )
                + "\n"
            )
