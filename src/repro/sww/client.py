"""The generative client (paper §5.2).

    "the generative client begins by establishing a connection to the
    server, followed by exchanging settings, advertising its generation
    ability and logging the server's ability. After this, the client can
    send a webpage request. As the client receives the HTML file, it
    parses it and generates content. Once parsing and generation are
    complete, the site is rendered in the GUI."

:class:`GenerativeClient` drives the full flow over either the in-memory
transport pair (tests/benchmarks — see :meth:`fetch_via_pair`) or asyncio
TCP (:meth:`fetch_tcp`). Rendering goes through the text-mode renderer;
the PyQt GUI is out of scope in this headless environment (DESIGN.md §6).
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.devices.profiles import DeviceProfile, LAPTOP
from repro.genai.pipeline import GenerationPipeline
from repro.html import parse_html, serialize
from repro.html.dom import Document
from repro.http2.bdp import AdaptiveReceiveWindow, BdpEstimator
from repro.http2.connection import (
    DataReceived,
    H2Connection,
    PushPromiseReceived,
    ResponseReceived,
    Role,
)
from repro.http2.endpoint import ClientConnection, H2Response
from repro.http2.transport import InMemoryTransportPair
from repro.obs import MetricsRegistry, Tracer, get_event_log, get_registry, get_tracer
from repro.sww.media_generator import MediaGenerator
from repro.sww.page_processor import PageProcessor, ProcessReport
from repro.sww.renderer import render_text

logger = logging.getLogger("repro.sww.client")

HeaderList = list[tuple[bytes, bytes]]

#: Seed RTT for the BDP estimator before real samples arrive.
_RTT_SEED_S = 0.05


@dataclass
class FetchResult:
    """Everything one page fetch produced."""

    path: str
    status: int
    #: Raw HTML exactly as received from the server.
    received_html: str
    #: Bytes of the page body on the wire.
    wire_bytes: int
    #: Whether the server shipped prompts (x-sww-content: prompts).
    sww_mode: bool
    #: The document after client-side generation (== received when naive).
    document: Document = field(default_factory=Document)
    report: ProcessReport | None = None
    rendered: str = ""
    #: Assets the server pushed alongside the page (path → bytes).
    pushed_assets: dict[str, bytes] = field(default_factory=dict)
    #: §7 trust: per-item verification outcomes (item name → result),
    #: populated when the client was built with a trust authority and the
    #: server attached provenance manifests.
    verifications: dict = field(default_factory=dict)

    @property
    def untrusted_items(self) -> list[str]:
        return [name for name, result in self.verifications.items() if not result.trusted]

    @property
    def final_html(self) -> str:
        return serialize(self.document)

    @property
    def generation_time_s(self) -> float:
        return self.report.sim_time_s if self.report else 0.0

    @property
    def generation_energy_wh(self) -> float:
        return self.report.energy_wh if self.report else 0.0


class GenerativeClient:
    """Connects, negotiates, fetches, generates and renders."""

    def __init__(
        self,
        device: DeviceProfile = LAPTOP,
        gen_ability: bool = True,
        pipeline: GenerationPipeline | None = None,
        installed_models: list[str] | None = None,
        trust_authority=None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        gencache=None,
        engine=None,
        events=None,
    ) -> None:
        self.device = device
        self.gen_ability = gen_ability
        #: Observability sinks (no-ops unless injected or configured).
        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()
        #: Wide-event log: one client.fetch event per fetched page.
        self.events = events if events is not None else get_event_log()
        #: §4.1: the image pipeline is preloaded once, not per invocation.
        self.pipeline = pipeline or GenerationPipeline(
            device, registry=self.registry, tracer=self.tracer
        )
        #: Optional content-addressed result cache; shareable with other
        #: clients/layers (repro.gencache). None keeps the paper's cold
        #: regenerate-everything behaviour byte-for-byte.
        self.gencache = gencache
        #: Optional shared micro-batching engine (repro.batching): a
        #: page's image items are all admitted to its window before the
        #: first is awaited, so one page load can fill a batch.
        self.engine = engine
        self.generator = MediaGenerator(self.pipeline, cache=gencache, engine=engine)
        self.processor = PageProcessor(self.generator)
        self.server_gen_ability: bool | None = None
        #: §7 model negotiation: what this client advertises via the
        #: sww-models header. Defaults to the pipeline's loaded models.
        if installed_models is None:
            installed_models = [self.pipeline.image_model.name, self.pipeline.text_model.name]
        self.installed_models = installed_models
        #: §7 trust: when set (and the server attaches manifests), every
        #: generated image is verified post-generation.
        self.trust_authority = trust_authority

    def new_connection(self) -> H2Connection:
        return H2Connection(Role.CLIENT, gen_ability=self.gen_ability, registry=self.registry)

    # ------------------------------------------------------------------ #
    # Shared post-receive path
    # ------------------------------------------------------------------ #

    def _finish(
        self, path: str, response: H2Response, transport: str, pair: InMemoryTransportPair | None = None
    ) -> FetchResult:
        """Received page → generated, rendered result (both transports)."""
        status, body = response.status, response.body
        header_map = dict(response.headers)
        sww_mode = header_map.get(b"x-sww-content") == b"prompts"
        if status == 200 and sww_mode and self.gen_ability:
            self.generator.provide_assets(response.pushed)
            if pair is not None:
                # §2.2 upscale items reference small stored originals: fetch
                # any that were not pushed, before generation runs.
                for src in self._upscale_sources(body):
                    if src not in self.generator.asset_sources:
                        fetched = self._get_via_pair(pair, src)
                        if fetched.status == 200:
                            self.generator.provide_assets({src: fetched.body})
        html = body.decode("utf-8", "replace")
        result = FetchResult(
            path=path,
            status=status,
            received_html=html,
            wire_bytes=len(body),
            sww_mode=sww_mode,
            pushed_assets=dict(response.pushed),
        )
        record = self.events.begin(
            "client.fetch",
            path=path,
            transport=transport,
            wire_bytes=len(body),
            sww_mode=sww_mode,
            client_gen_ability=self.gen_ability,
            device=self.device.name,
        )
        try:
            with record.bind():
                result.document = parse_html(html)
                if status == 200 and sww_mode and self.gen_ability:
                    # Parse → generate → rewrite (§5.2).
                    with self.tracer.span("client.generate", page=path) as span:
                        result.report = self.processor.process(result.document)
                        if span.trace_id:
                            record.set(trace_id=span.trace_id)
                    raw_manifests = header_map.get(b"x-sww-manifests")
                    if raw_manifests and self.trust_authority is not None:
                        self._verify_outputs(result, raw_manifests)
                result.rendered = render_text(result.document)
        except Exception as exc:
            record.finish(status=status, error=type(exc).__name__)
            raise
        if result.report is not None:
            from repro.sww.content import ContentType

            outputs = result.report.outputs
            record.set(
                sim_time_s=result.report.sim_time_s,
                energy_wh=result.report.energy_wh,
                generated_images=sum(
                    1 for o in outputs if o.item.content_type == ContentType.IMAGE
                ),
                generated_texts=sum(
                    1 for o in outputs if o.item.content_type != ContentType.IMAGE
                ),
                gencache_hits=sum(1 for o in outputs if o.cache_hit and not o.coalesced),
                gencache_coalesced=sum(1 for o in outputs if o.coalesced),
            )
        record.finish(status=status)
        return result

    def _verify_outputs(self, result: FetchResult, raw_manifests: bytes) -> None:
        """Check every generated image against the server's manifests."""
        import json

        from repro.media.png import decode_png
        from repro.sww.content import ContentType
        from repro.sww.trust import ContentVerifier, ProvenanceManifest, TrustError

        try:
            entries = json.loads(raw_manifests.decode("utf-8"))
            manifests = {
                entry["name"]: ProvenanceManifest.from_json(json.dumps(entry["manifest"]))
                for entry in entries
            }
        except (json.JSONDecodeError, KeyError, TypeError, TrustError):
            return  # malformed manifest header: nothing verifiable
        verifier = ContentVerifier(self.trust_authority)
        for output in result.report.outputs if result.report else []:
            if output.item.content_type != ContentType.IMAGE:
                continue
            manifest = manifests.get(output.item.name)
            if manifest is None:
                continue
            pixels = decode_png(output.payload)
            verification = verifier.verify_image(manifest, output.item, pixels)
            result.verifications[output.item.name] = verification
            if self.registry.enabled:
                self.registry.counter(
                    "sww_signature_verifications_total",
                    "Provenance manifest checks on generated media",
                    layer="sww",
                    operation="trusted" if verification.trusted else "untrusted",
                ).inc()
            if not verification.trusted:
                logger.warning("generated item %r failed verification", output.item.name)

    def request_headers(
        self, path: str, authority: str = "sww.example", priority=None
    ) -> HeaderList:
        headers: HeaderList = [
            (b":method", b"GET"),
            (b":path", path.encode("utf-8")),
            (b":scheme", b"https"),
            (b":authority", authority.encode("utf-8")),
            (b"user-agent", b"sww-generative-client/1.0"),
        ]
        # RFC 9218: every request carries its urgency, from the page-aware
        # policy in repro.sww.priorities unless the caller pinned one.
        if priority is None:
            from repro.sww.priorities import priority_for_path

            priority = priority_for_path(path)
        encoded = priority.serialize()
        if encoded:
            # An empty field value means all-defaults (RFC 9218 §4);
            # omitting the header says the same in zero bytes.
            headers.append((b"priority", encoded))
        if self.gen_ability and self.installed_models:
            from repro.sww.model_negotiation import MODELS_HEADER, encode_models_header

            headers.append((MODELS_HEADER, encode_models_header(self.installed_models)))
        # W3C-style trace-context propagation: whatever span is active when
        # the request is built (client.request, client.fetch, …) becomes the
        # remote parent of the server's spans. Sent even when unsampled, so
        # the head-based sampling decision reaches every hop.
        ctx = self.tracer.current_context()
        if ctx is not None:
            from repro.obs import TRACEPARENT_HEADER, encode_traceparent

            headers.append((TRACEPARENT_HEADER, encode_traceparent(ctx)))
        return headers

    # ------------------------------------------------------------------ #
    # In-memory transport (deterministic; tests and benchmarks)
    # ------------------------------------------------------------------ #

    def fetch_via_pair(self, pair: InMemoryTransportPair, path: str) -> FetchResult:
        """Fetch one page over an already-handshaken transport pair.

        The server side of ``pair`` must be driven by a
        :class:`~repro.sww.server.ServerSession` attached to the same
        engine; see :func:`connect_in_memory`.
        """
        self.server_gen_ability = pair.client.conn.peer_gen_ability
        logger.debug("fetch %s (server gen-ability=%s)", path, self.server_gen_ability)
        with self.tracer.span("client.fetch", page=path, transport="memory"):
            with self.tracer.span("client.request", page=path):
                response = self._get_via_pair(pair, path)
            return self._finish(path, response, "memory", pair)

    def _get_via_pair(self, pair: InMemoryTransportPair, path: str) -> H2Response:
        """One GET over the shared in-memory connection, pushes included."""
        conn = pair.client.conn
        stream_id = conn.get_next_available_stream_id()
        conn.send_headers(stream_id, self.request_headers(path), end_stream=True)
        pair.pump()
        response = H2Response()
        bodies: dict[int, bytearray] = {stream_id: bytearray()}
        promised_paths: dict[int, str] = {}
        for event in pair.client.take_events():
            if isinstance(event, ResponseReceived) and event.stream_id == stream_id:
                response.headers = event.headers
                response.status = int(dict(event.headers).get(b":status", b"0"))
            elif isinstance(event, PushPromiseReceived):
                promised_path = dict(event.headers).get(b":path", b"").decode("utf-8", "replace")
                promised_paths[event.promised_stream_id] = promised_path
                bodies[event.promised_stream_id] = bytearray()
            elif isinstance(event, DataReceived) and event.stream_id in bodies:
                bodies[event.stream_id] += event.data
        response.body = bytes(bodies.pop(stream_id))
        response.pushed = {promised_paths[sid]: bytes(data) for sid, data in bodies.items()}
        return response

    @staticmethod
    def _upscale_sources(body: bytes) -> list[str]:
        """Paths of small originals referenced by upscale items on a page."""
        from repro.sww.content import CSS_CLASS, ContentError, GeneratedContent

        document = parse_html(body.decode("utf-8", "replace"))
        sources = []
        for element in document.find_by_class(CSS_CLASS):
            try:
                item = GeneratedContent.from_element(element)
            except ContentError:
                continue
            if item.upscale_src is not None:
                sources.append(item.upscale_src)
        return sources

    def fetch_assets_via_pair(self, pair: InMemoryTransportPair, result: FetchResult) -> dict[str, bytes]:
        """Fetch every ``<img src>`` the (possibly rewritten) page references.

        This is the traditional-web tail of the flow: a naive client (or a
        capable client that received a traditional page) pulls each image
        as its own GET, exactly like a browser. Generated assets produced
        locally are *not* fetched — that is the point of SWW — so only
        sources outside ``/generated/`` go to the server.
        """
        assets: dict[str, bytes] = {}
        local = result.report.assets if result.report else {}
        for img in result.document.find_by_tag("img"):
            src = img.get("src")
            if not src or src in assets or src in local or src in result.pushed_assets:
                continue
            response = self._get_via_pair(pair, src)
            if response.status == 200:
                assets[src] = response.body
        return assets

    # ------------------------------------------------------------------ #
    # asyncio TCP transport
    # ------------------------------------------------------------------ #

    async def fetch_tcp(self, host: str, port: int, path: str) -> FetchResult:
        """Full §5.2 flow over a real socket: connect, settle settings,
        request, receive, generate, render."""
        with self.tracer.span("client.fetch", page=path, transport="tcp") as fetch_span:
            results = await self._fetch_tcp_streams(host, port, [path])
            fetch_span.annotate(server_gen_ability=self.server_gen_ability)
        return results[0]

    async def fetch_many_tcp(
        self,
        host: str,
        port: int,
        paths: Sequence[str],
        priorities: Sequence | None = None,
    ) -> list[FetchResult]:
        """Fetch several pages concurrently over ONE connection.

        All requests are multiplexed as separate HTTP/2 streams on a single
        socket; the server's concurrent scheduler interleaves the response
        DATA frames, so a small page completes while a large one is still
        mid-stream. Results are returned in the order of ``paths``.

        ``priorities`` optionally pins an RFC 9218 :class:`Priority` per
        path (positionally matched); otherwise the page-aware policy in
        :mod:`repro.sww.priorities` classifies each path.
        """
        with self.tracer.span("client.fetch_many", pages=len(paths), transport="tcp") as span:
            results = await self._fetch_tcp_streams(
                host, port, list(paths), priorities=list(priorities) if priorities else None
            )
            span.annotate(server_gen_ability=self.server_gen_ability)
        return results

    async def _fetch_tcp_streams(
        self,
        host: str,
        port: int,
        paths: list[str],
        priorities: list | None = None,
    ) -> list[FetchResult]:
        """Open one connection, request ``paths`` as concurrent streams,
        collect every response (and pushed asset), and finish each page."""
        with self.tracer.span("client.connect", host=host, port=port):
            conn = self.new_connection()
            tuner = AdaptiveReceiveWindow(
                conn,
                BdpEstimator(
                    time.monotonic,
                    rtt_s=_RTT_SEED_S,
                    min_window=conn.local_settings.initial_window_size,
                ),
            )
            client = await ClientConnection.open(host, port, conn, tuner=tuner)
        try:
            with self.tracer.span("client.negotiate") as negotiate_span:
                # §5.2 ordering: the real settings exchange — the server's
                # SETTINGS (carrying SETTINGS_GEN_ABILITY) and its ACK of
                # ours — completes before any request goes out.
                await client.settled()
                self.server_gen_ability = conn.peer_gen_ability
                negotiate_span.annotate(
                    advertised=self.gen_ability,
                    server_gen_ability=self.server_gen_ability,
                )
            pending = []
            for index, path in enumerate(paths):
                with self.tracer.span("client.request", page=path):
                    priority = priorities[index] if priorities else None
                    pending.append(
                        client.submit(self.request_headers(path, host, priority=priority))
                    )
            await client.flush()
            responses = await asyncio.gather(*pending)
        finally:
            await client.close()

        logger.info(
            "fetched %d page(s) from %s:%d (server gen-ability=%s)",
            len(paths),
            host,
            port,
            self.server_gen_ability,
        )
        return [self._finish(path, response, "tcp") for path, response in zip(paths, responses)]


def connect_in_memory(client: GenerativeClient, server) -> InMemoryTransportPair:
    """Wire a client and a :class:`~repro.sww.server.GenerativeServer`
    through the in-memory transport and run the settings handshake."""
    client_conn = client.new_connection()
    server_conn = H2Connection(
        Role.SERVER,
        gen_ability=server.gen_ability,
        registry=server.registry,
        max_concurrent_streams=getattr(server, "max_concurrent_streams", None),
    )
    session = server.attach(server_conn)
    pair = InMemoryTransportPair(client_conn, server_conn)

    original_pump = pair.pump

    def pump_with_dispatch(max_rounds: int = 100) -> None:
        for _ in range(max_rounds):
            original_pump()
            events = pair.server.take_events()
            if not events:
                return
            for event in events:
                session.handle_event(event)
        raise RuntimeError("in-memory dispatch did not quiesce")

    pair.pump = pump_with_dispatch  # type: ignore[method-assign]
    with client.tracer.span("client.connect", transport="memory"):
        with client.tracer.span("client.negotiate") as span:
            pair.handshake()
            span.annotate(
                client_gen_ability=client.gen_ability,
                server_gen_ability=client_conn.peer_gen_ability,
            )
    logger.info(
        "in-memory connection negotiated: client=%s server=%s",
        client.gen_ability,
        client_conn.peer_gen_ability,
    )
    return pair
