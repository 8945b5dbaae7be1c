"""The continuous micro-batching engine.

One :class:`BatchingEngine` models one accelerator: a dispatcher thread
pops the oldest queued request, opens a batching window, and admits every
compatible request that arrives within ``max_wait_s`` (up to
``max_batch``). Compatibility is the batch slot — same model, device,
step count, resolution and content type — because a simulated batch
step prices the whole group at one resolution and step count. Groups
execute serially on the dispatcher (one accelerator). The engine encodes
no PNG: the caller chooses each result's effort, and
:class:`repro.sww.media_generator.MediaGenerator` starts a sent result's
encode on the process-wide pool from a done-callback, so the next batch
does not wait for compression.

The engine only batches: every request runs in a lane. Duplicates
coalesce before admission, in :mod:`repro.sww.media_generator`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.devices.profiles import DeviceProfile
from repro.genai.embeddings import GRID
from repro.genai.image import ImageModel, ImageResult, batch_step_share, generate_image_batch
from repro.obs import NULL_EVENT_LOG, NULL_REGISTRY, NULL_TRACER, MetricsRegistry, Tracer

#: Marginal simulated cost of one extra batch lane relative to a solo run.
#: Calibrated so an accelerator-style diffusion batch of 8 lands at ~3.9×
#: solo throughput — the mid-range of published dynamic-batching speedups
#: for diffusion serving (docs/PERFORMANCE.md derives the curve).
DEFAULT_ALPHA = 0.15
DEFAULT_MAX_BATCH = 8
#: Batching window: how long the dispatcher holds an open group waiting
#: for compatible requests. Real wall-clock time (admission is a wall
#: phenomenon); simulated time is never affected by the window itself.
DEFAULT_MAX_WAIT_S = 0.004

_WAIT_BUCKETS = (0.0005, 0.001, 0.002, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25)
_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


@dataclass(frozen=True)
class BatchSlot:
    """The compatibility group key for admission."""

    model: str
    device: str
    steps: int
    width: int
    height: int
    content_type: str = "image"


@dataclass
class EngineStats:
    """Cumulative admission/execution counters (lock-guarded by the engine)."""

    requests: int = 0
    batches: int = 0
    batched_items: int = 0
    largest_batch: int = 0
    saved_sim_s: float = 0.0

    @property
    def mean_batch(self) -> float:
        return self.batched_items / self.batches if self.batches else 0.0


@dataclass
class _PendingRequest:
    model: ImageModel
    prompt: str
    seed: int | None
    slot: BatchSlot
    future: Future = field(default_factory=Future)
    enqueued_at: float = 0.0


class BatchingEngine:
    """Admits generation requests and executes them in micro-batches."""

    def __init__(
        self,
        device: DeviceProfile,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_s: float = DEFAULT_MAX_WAIT_S,
        alpha: float = DEFAULT_ALPHA,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        events=None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        batch_step_share(1, alpha)  # validate alpha range
        self.device = device
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.alpha = alpha
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Wide-event log: one batch.execute event per realised batch.
        self.events = events if events is not None else NULL_EVENT_LOG
        self.stats = EngineStats()
        #: Size of the most recent batch, for ``batching_efficiency``.
        self._last_batch = 0
        #: Monotonic batch sequence; stamped on every waiter's future as
        #: ``future.batch_id`` / ``future.batch_size`` so the request-side
        #: wide event can record which batch its generation rode.
        self._batch_seq = 0
        self._queue: deque[_PendingRequest] = deque()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._closed = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="batch-dispatch", daemon=True
        )
        self._dispatcher.start()
        self.registry.source(self)

    # ------------------------------------------------------------ admission

    def submit_image(
        self,
        model: ImageModel,
        prompt: str,
        width: int = 256,
        height: int = 256,
        steps: int | None = None,
        seed: int | None = None,
    ) -> Future:
        """Queue one image request; returns a future of :class:`ImageResult`.

        Validation happens at submit time so bad requests fail in the
        caller, not on the dispatcher.
        """
        if width < GRID or height < GRID:
            raise ValueError(f"minimum generatable size is {GRID}x{GRID}")
        resolved_steps = steps if steps is not None else model.default_steps
        if resolved_steps <= 0:
            raise ValueError("steps must be positive")
        slot = BatchSlot(model.name, self.device.name, resolved_steps, width, height)
        with self._cond:
            if self._closed:
                raise RuntimeError("BatchingEngine is closed")
            pending = _PendingRequest(
                model=model, prompt=prompt, seed=seed, slot=slot, enqueued_at=time.perf_counter()
            )
            self._queue.append(pending)
            self.stats.requests += 1
            self._cond.notify_all()
        return pending.future

    def generate_image(
        self,
        model: ImageModel,
        prompt: str,
        width: int = 256,
        height: int = 256,
        steps: int | None = None,
        seed: int | None = None,
    ) -> ImageResult:
        """Blocking convenience wrapper around :meth:`submit_image`."""
        return self.submit_image(model, prompt, width, height, steps, seed).result()

    # ----------------------------------------------------------- dispatcher

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    return  # closed and drained
                head = self._queue.popleft()
                group = [head]
                deadline = time.perf_counter() + self.max_wait_s
                while len(group) < self.max_batch:
                    self._take_compatible(head.slot, group)
                    if len(group) >= self.max_batch or self._closed:
                        break
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
            self._execute(group)

    def _take_compatible(self, slot: BatchSlot, group: list[_PendingRequest]) -> None:
        """Move queued requests matching ``slot`` into ``group`` (FIFO)."""
        kept: deque[_PendingRequest] = deque()
        while self._queue and len(group) < self.max_batch:
            candidate = self._queue.popleft()
            if candidate.slot == slot:
                group.append(candidate)
            else:
                kept.append(candidate)
        kept.extend(self._queue)
        self._queue = kept

    def _execute(self, group: list[_PendingRequest]) -> None:
        size = len(group)
        slot = group[0].slot
        now = time.perf_counter()
        self._observe_admission(group, now)
        with self._lock:
            self._batch_seq += 1
            batch_id = self._batch_seq
        share = round(batch_step_share(size, self.alpha), 4)
        record = self.events.begin(
            "batch.execute",
            batch_id=batch_id,
            batch_size=size,
            batch_share=share,
            model=slot.model,
            device=slot.device,
            steps=slot.steps,
        )
        # Waiters learn their batch before the result lands, so a request
        # event annotated after future.result() always sees the metadata.
        for pending in group:
            pending.future.batch_id = batch_id
            pending.future.batch_size = size
        with self.tracer.span(
            "batch.execute",
            model=slot.model,
            device=slot.device,
            size=f"{slot.width}x{slot.height}",
            steps=slot.steps,
            batch=size,
        ) as span:
            try:
                results = generate_image_batch(
                    group[0].model,
                    self.device,
                    [pending.prompt for pending in group],
                    slot.width,
                    slot.height,
                    steps=slot.steps,
                    seeds=[pending.seed for pending in group],
                    alpha=self.alpha,
                    registry=self.registry,
                    tracer=self.tracer,
                )
            except BaseException as exc:  # propagate to every waiter
                span.annotate(outcome="error")
                record.finish(error=type(exc).__name__)
                for pending in group:
                    pending.future.set_exception(exc)
                return
            span.annotate(outcome="ok", share=share)
        record.set(sim_time_s=results[0].sim_time_s * size)
        record.finish(status=200)
        for pending, result in zip(group, results):
            pending.future.set_result(result)
        solo_s = slot.steps * group[0].model.step_time(self.device, slot.width, slot.height)
        saved = (solo_s - results[0].sim_time_s) * size
        with self._lock:
            self.stats.batches += 1
            self.stats.batched_items += size
            self.stats.largest_batch = max(self.stats.largest_batch, size)
            self.stats.saved_sim_s += saved
            self._last_batch = size
        if self.registry.enabled:
            self.registry.histogram(
                "batching_batch_size",
                "Realised micro-batch sizes",
                buckets=_SIZE_BUCKETS,
                layer="batching",
                operation="execute",
            ).observe(size)

    # -------------------------------------------------------------- closing

    def close(self) -> None:
        """Stop admission and drain queued requests."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._dispatcher.join()

    def __enter__(self) -> BatchingEngine:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ---------------------------------------------------------- observation

    def _observe_admission(self, group: list[_PendingRequest], now: float) -> None:
        if not self.registry.enabled:
            return
        wait_hist = self.registry.histogram(
            "batching_queue_wait_seconds",
            "Wall time a request spent in the admission window",
            buckets=_WAIT_BUCKETS,
            layer="batching",
            operation="admit",
        )
        for pending in group:
            wait_hist.observe(now - pending.enqueued_at)

    def samples(self, out, _owner) -> None:
        """The engine's stats, when its registry is scraped."""
        stats = self.stats
        out.counter(
            "batching_requests_total", "Generation requests admitted to the batching engine",
            stats.requests, layer="batching", operation="admitted",
        )
        out.counter(
            "batching_batches_total", "Micro-batches executed", stats.batches, layer="batching", operation="execute"
        )
        out.counter(
            "batching_saved_sim_seconds_total", "Simulated seconds saved by amortisation vs solo runs",
            stats.saved_sim_s, counted=stats.batches > 0, layer="batching", operation="execute",
        )
        if self._last_batch:
            # Speedup of the last batch: B / (1 + α(B−1)); 1.0 means no
            # amortisation happened (solo batches).
            out.gauge(
                "batching_efficiency", "Throughput speedup of the most recent batch vs solo execution",
                self._last_batch / (1.0 + self.alpha * (self._last_batch - 1)), layer="batching", operation="execute",
            )
