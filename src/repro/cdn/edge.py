"""The SWW edge node (paper §2.2).

Two operating modes for the same catalog of media objects:

* **blob mode** (traditional CDN): the edge caches materialised media;
  misses fetch the full object from the origin.
* **prompt mode** (SWW CDN): the edge caches prompts; misses fetch only
  the prompt from the origin, and every user request pays an on-edge
  generation (time + energy) before the materialised media is sent to the
  user. "This approach maintains the storage benefits, but loses data
  transmission benefits" — user-side egress is media-sized either way.
Edges that memoise what they generate are :class:`repro.cdn.fleet.EdgeFleet`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.devices.energy import transmission_energy_wh
from repro.devices.profiles import DeviceProfile, WORKSTATION
from repro.genai.image import generate_image
from repro.genai.registry import DEFAULT_IMAGE_MODEL
from repro.cdn.cache import CacheEntry, EdgeCache
from repro.metrics.compression import prompt_metadata_size
from repro.obs import (
    NULL_EVENT_LOG,
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    TraceContext,
    Tracer,
    encode_traceparent,
    parse_traceparent,
)


@dataclass(frozen=True)
class CatalogItem:
    """One media object at the origin."""

    key: str
    prompt: str
    width: int
    height: int
    media_bytes: int

    def prompt_bytes(self) -> int:
        return prompt_metadata_size(
            {"prompt": self.prompt, "name": self.key, "width": self.width, "height": self.height}
        )


@dataclass
class OriginCatalog:
    """The content provider's object catalog.

    The origin is its own process in the CDN scenario; give it a
    ``tracer`` and edge cache misses show up as ``origin.fetch`` remote
    children of the edge's span (via the re-injected ``traceparent``).
    """

    items: dict[str, CatalogItem] = field(default_factory=dict)
    tracer: Tracer | None = None

    def add(self, item: CatalogItem) -> None:
        self.items[item.key] = item

    def get(self, key: str) -> CatalogItem:
        try:
            return self.items[key]
        except KeyError:
            raise KeyError(f"no catalog item {key!r}") from None

    def fetch(self, key: str, traceparent: bytes | str | None = None) -> CatalogItem:
        """One edge→origin pull, joining the propagated trace if any."""
        tracer = self.tracer if self.tracer is not None else NULL_TRACER
        ctx = parse_traceparent(traceparent)
        with tracer.span("origin.fetch", remote=ctx, key=key):
            return self.get(key)

    def total_media_bytes(self) -> int:
        return sum(item.media_bytes for item in self.items.values())

    def total_prompt_bytes(self) -> int:
        return sum(item.prompt_bytes() for item in self.items.values())


@dataclass
class EdgeServeResult:
    """Cost breakdown of serving one user request from the edge."""

    key: str
    cache_hit: bool
    #: Bytes pulled from the origin over the backbone (miss cost).
    backbone_bytes: int
    #: Bytes sent to the requesting user.
    egress_bytes: int
    #: On-edge generation cost (prompt mode only).
    generation_time_s: float = 0.0
    generation_energy_wh: float = 0.0

    @property
    def transmission_energy_wh(self) -> float:
        return transmission_energy_wh(self.backbone_bytes + self.egress_bytes)

    @property
    def total_energy_wh(self) -> float:
        return self.transmission_energy_wh + self.generation_energy_wh


class EdgeNode:
    """An edge server in blob or prompt mode."""

    def __init__(
        self,
        origin: OriginCatalog,
        cache_capacity_bytes: int,
        mode: str = "blob",
        device: DeviceProfile = WORKSTATION,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        events=None,
    ) -> None:
        if mode not in ("blob", "prompt"):
            raise ValueError(f"mode must be 'blob' or 'prompt', got {mode!r}")
        self.origin = origin
        self.cache = EdgeCache(cache_capacity_bytes)
        self.mode = mode
        self.device = device
        #: Observability sinks (no-ops unless injected).
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Wide-event log: one cdn.serve event per user request.
        self.events = events if events is not None else NULL_EVENT_LOG
        self.results: list[EdgeServeResult] = []

    def serve(self, key: str, traceparent: bytes | str | TraceContext | None = None) -> EdgeServeResult:
        """Serve one user request for ``key``.

        ``traceparent`` is the requesting client's propagated trace
        context (raw header bytes/str, an already-parsed
        :class:`~repro.obs.TraceContext`, or None): the edge's span joins
        that trace as a remote child, and cache misses re-inject the
        edge's own context on the edge→origin hop so the whole
        client→edge→origin chain stitches into one trace.
        """
        ctx = traceparent if isinstance(traceparent, (TraceContext, type(None))) else parse_traceparent(traceparent)
        record = self.events.begin("cdn.serve", cache_key=key, serve_mode=self.mode)
        try:
            with self.tracer.span("cdn.serve", remote=ctx, key=key, mode=self.mode) as edge_span:
                if edge_span.trace_id:
                    record.set(trace_id=edge_span.trace_id)
                cached = self.cache.get(key)
                hit = cached is not None
                item = self.origin.get(key) if hit else self._origin_pull(key, edge_span)
                edge_span.annotate(hit=hit)
                if self.mode == "blob":
                    backbone = 0 if hit else item.media_bytes
                    if not hit:
                        self.cache.put(CacheEntry(key, item.media_bytes, kind="blob"))
                    result = EdgeServeResult(
                        key=key, cache_hit=hit, backbone_bytes=backbone, egress_bytes=item.media_bytes
                    )
                else:
                    backbone = 0 if hit else item.prompt_bytes()
                    if not hit:
                        self.cache.put(CacheEntry(key, item.prompt_bytes(), kind="prompt"))
                    # Every request regenerates at the edge (the paper's model).
                    with record.bind():
                        generation = generate_image(
                            DEFAULT_IMAGE_MODEL, self.device, item.prompt, item.width, item.height,
                            registry=self.registry, tracer=self.tracer,
                        )
                    record.set(device=self.device.name, model=DEFAULT_IMAGE_MODEL.name)
                    result = EdgeServeResult(
                        key=key,
                        cache_hit=hit,
                        backbone_bytes=backbone,
                        egress_bytes=item.media_bytes,
                        generation_time_s=generation.sim_time_s,
                        generation_energy_wh=generation.energy_wh,
                    )
        except Exception as exc:
            record.finish(status=404 if isinstance(exc, KeyError) else 500, error=type(exc).__name__)
            raise
        record.set(
            cache_hit=hit,
            backbone_bytes=result.backbone_bytes,
            egress_bytes=result.egress_bytes,
            sim_time_s=result.generation_time_s,
            energy_wh=result.total_energy_wh,
        )
        record.finish(status=200)
        if self.registry.enabled:
            trace_id = edge_span.trace_id if edge_span.sampled else None
            self._count(result, trace_id or None)
        self.results.append(result)
        return result

    def _origin_pull(self, key: str, edge_span) -> CatalogItem:
        """The edge→origin hop on a cache miss, trace context re-injected.

        The hop carries an RFC 9218 priority matching its payload class:
        a prompt-mode pull is a tiny metadata fetch (agent class, urgency
        0 — it must never queue behind media on a shared backbone
        connection), a blob-mode pull is bulk media (below-the-fold class,
        urgency 5, incremental).
        """
        from repro.sww.priorities import AGENT, BELOW_FOLD

        priority = AGENT if self.mode == "prompt" else BELOW_FOLD
        edge_span.annotate(pull_urgency=priority.urgency)
        if self.registry.enabled:
            self.registry.counter(
                "cdn_origin_pulls_total",
                "Origin pulls by the RFC 9218 urgency they are fetched at",
                layer="cdn",
                operation=f"u{priority.urgency}",
            ).inc()
        header = encode_traceparent(edge_span.context) if edge_span.trace_id else None
        return self.origin.fetch(key, traceparent=header)

    def _count(self, result: EdgeServeResult, trace_id: str | None = None) -> None:
        """Cache/byte/energy accounting for one served request."""
        self.registry.counter(
            "cdn_requests_total",
            "Edge requests, by cache outcome",
            layer="cdn",
            operation="hit" if result.cache_hit else "miss",
        ).inc()
        self.registry.counter(
            "cdn_bytes_total",
            "Bytes moved by the edge, backbone (origin pull) vs egress (to user)",
            layer="cdn",
            operation="backbone",
        ).inc(result.backbone_bytes)
        self.registry.counter(
            "cdn_bytes_total",
            "Bytes moved by the edge, backbone (origin pull) vs egress (to user)",
            layer="cdn",
            operation="egress",
        ).inc(result.egress_bytes)
        if result.generation_energy_wh:
            self.registry.counter(
                "cdn_generation_energy_wh_total",
                "On-edge generation energy (prompt mode)",
                layer="cdn",
                operation=self.mode,
            ).inc(result.generation_energy_wh)
            self.registry.histogram(
                "cdn_generation_seconds",
                "On-edge generation time per request (prompt mode)",
                layer="cdn",
                operation=self.mode,
            ).observe(result.generation_time_s, trace_id=trace_id)

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #

    @property
    def backbone_bytes_total(self) -> int:
        return sum(r.backbone_bytes for r in self.results)

    @property
    def egress_bytes_total(self) -> int:
        return sum(r.egress_bytes for r in self.results)

    @property
    def generation_energy_total_wh(self) -> float:
        return sum(r.generation_energy_wh for r in self.results)

    @property
    def storage_used_bytes(self) -> int:
        return self.cache.used_bytes
