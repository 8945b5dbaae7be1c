"""The generative server (paper §5.1).

    "A simple generative server was designed using the Python3 asyncio
    library to handle asynchronous requests from clients. [...] When
    clients connect, the server negotiates the generative ability using
    the modified HTTP/2. If the client's generative ability is confirmed,
    the server can serve the content in its generative form as indicated
    by the client. If the ability is not confirmed it will serve
    traditional content with no client-side generation expected."

The server is layered: :class:`SiteStore` holds resources (SWW pages with
prompts, unique assets, optional traditional variants);
:class:`GenerativeServer` contains the sans-io request logic
(:meth:`GenerativeServer.handle_request`); and :class:`ServerSession`
serves one HTTP/2 connection with it over an
:class:`~repro.http2.transport.AsyncH2Transport` — on a TCP socket
(:meth:`GenerativeServer.serve_forever`) or on the in-memory pair of
:func:`repro.sww.client.connect_in_memory`, through the same code.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
import weakref
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.devices.profiles import DeviceProfile, WORKSTATION
from repro.genai.pipeline import GenerationPipeline
from repro.html import parse_html, serialize
from repro.http2.connection import (
    AbuseDetected,
    ConnectionTerminated,
    Event,
    H2Connection,
    RequestReceived,
    Role,
    StreamRefused,
)
from repro.http2.endpoint import ServerConnection
from repro.http2.errors import H2Error
from repro.http2.transport import AsyncH2Transport, listen
from repro.http2.writer import ConnectionWriter
from repro.obs import MetricsRegistry, Tracer, get_event_log, get_registry, get_tracer
from repro.obs.events import annotate_current
from repro.obs.propagation import TRACEPARENT_HEADER, parse_traceparent
from repro.sww.capability import NegotiationOutcome, ServeMode, ServePolicy, decide_serve_mode
from repro.sww.media_generator import MediaGenerator
from repro.sww.model_negotiation import MODELS_HEADER, negotiate_models, parse_models_header
from repro.sww.page_processor import PageProcessor

logger = logging.getLogger("repro.sww.server")

HeaderList = list[tuple[bytes, bytes]]

#: Event-loop stall histogram bounds (seconds). The acceptance bar for the
#: concurrent scheduler is "no loop blockage beyond 50 ms while generation
#: runs", so the buckets straddle that threshold.
_STALL_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0)

#: How often the stall probe samples loop responsiveness.
_STALL_PROBE_INTERVAL_S = 0.02


@dataclass
class PageResource:
    """A stored page: the SWW (prompt-carrying) HTML and optional variants."""

    path: str
    sww_html: str
    #: Pre-rendered traditional HTML (for servers without prompts, or the
    #: §6.2 "serve traditional even to capable clients" policy path).
    traditional_html: str | None = None

    @property
    def has_prompts(self) -> bool:
        return "generated-content" in self.sww_html


@dataclass
class AssetResource:
    """A stored binary asset (unique content, or server-generated media)."""

    path: str
    data: bytes
    content_type: str = "application/octet-stream"


@dataclass
class SiteStore:
    """The server's content store, with storage accounting."""

    pages: dict[str, PageResource] = field(default_factory=dict)
    assets: dict[str, AssetResource] = field(default_factory=dict)

    def add_page(self, page: PageResource) -> None:
        self.pages[page.path] = page

    def add_asset(self, asset: AssetResource) -> None:
        self.assets[asset.path] = asset

    def storage_bytes(self, include_traditional: bool = True) -> int:
        """Total stored bytes; the SWW storage-saving claims compare this
        with and without traditional variants."""
        total = 0
        for page in self.pages.values():
            total += len(page.sww_html.encode("utf-8"))
            if include_traditional and page.traditional_html is not None:
                total += len(page.traditional_html.encode("utf-8"))
        for asset in self.assets.values():
            total += len(asset.data)
        return total


@dataclass
class ServedResponse:
    """What the request logic produced (before framing)."""

    status: int
    headers: HeaderList
    body: bytes
    mode: ServeMode | None = None
    #: Simulated server-side generation cost, when mode == SERVER_GENERATED.
    sim_time_s: float = 0.0
    energy_wh: float = 0.0
    #: The media materialised for the page (path → PNG bytes), when mode ==
    #: SERVER_GENERATED: what a pushing session promises alongside it.
    generated_assets: dict[str, bytes] = field(default_factory=dict)


class GenerativeServer:
    """Transport-independent SWW request handling plus asyncio serving."""

    def __init__(
        self,
        store: SiteStore,
        device: DeviceProfile = WORKSTATION,
        policy: ServePolicy | None = None,
        gen_ability: bool = True,
        pipeline: GenerationPipeline | None = None,
        push_assets: bool = False,
        trust_authority=None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        gencache=None,
        engine=None,
        events=None,
        recorder=None,
        memoise_pages: bool = True,
        max_concurrent_streams: int | None = None,
    ) -> None:
        self.store = store
        self.device = device
        self.policy = policy or ServePolicy()
        self.gen_ability = gen_ability
        #: Observability sinks (no-ops unless injected or configured).
        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()
        #: Wide-event log: one canonical record per served request,
        #: annotated across layers (no-op unless injected or configured).
        self.events = events if events is not None else get_event_log()
        #: Optional incident flight recorder; pushed triggers
        #: (protocol errors, generation failures) notify it directly.
        self.recorder = recorder
        #: When serving a server-generated page, push the freshly
        #: generated media over HTTP/2 server push (RFC 9113 §8.4) instead
        #: of waiting for the naive client's follow-up GETs.
        self.push_assets = push_assets
        #: §7 trust: when set, generative responses carry signed
        #: provenance manifests in an x-sww-manifests header.
        self.trust_authority = trust_authority
        #: Server-side pipeline, used when it must generate for naive clients.
        self.pipeline = pipeline or GenerationPipeline(
            device, registry=self.registry, tracer=self.tracer
        )
        #: Optional shared content-addressed generation cache
        #: (repro.gencache): the fallback materialisation path consults it
        #: so server-side regeneration of media a capable client (or
        #: another layer) already produced costs lookup time, not steps.
        self.gencache = gencache
        #: Optional micro-batching engine (repro.batching): concurrent
        #: naive-client materialisations batch their image generations in
        #: the engine's window instead of running solo back to back.
        self.engine = engine
        self._generator = MediaGenerator(self.pipeline, cache=gencache, engine=engine)
        self._processor = PageProcessor(self._generator)
        #: Advertised SETTINGS_MAX_CONCURRENT_STREAMS; excess new streams
        #: are refused with REFUSED_STREAM. None leaves it unlimited.
        self.max_concurrent_streams = max_concurrent_streams
        #: Cache of server-side generated traditional pages (path → html,
        #: assets), so repeat naive clients don't re-pay generation.
        #: ``memoise_pages=False`` disables the page-level memo (every
        #: request re-materialises through the item-level gencache) — used
        #: when the interesting cache is a shared tier whose hit rate the
        #: page memo would mask.
        self.memoise_pages = memoise_pages
        self._server_generated: dict[str, tuple[str, dict[str, bytes], float, float]] = {}
        #: Per-path single-flight coordination for concurrent materialise
        #: calls: followers wait on the leader's future instead of paying a
        #: duplicate generation (mirrors the gencache coalescing semantics).
        self._materialise_lock = threading.Lock()
        self._materialise_flights: dict[str, Future] = {}
        self._stats_lock = threading.Lock()
        self.requests_served = 0
        #: Live sessions, for the admin plane's /debug/streams and
        #: /healthz views. Weak so closed connections vanish on GC.
        self._sessions: "weakref.WeakSet[ServerSession]" = weakref.WeakSet()

    # ------------------------------------------------------------------ #
    # Request logic (sans-io)
    # ------------------------------------------------------------------ #

    def handle_request(
        self,
        path: str,
        client_gen_ability: bool,
        client_models: list[str] | None = None,
        trace_context=None,
    ) -> ServedResponse:
        """Produce the response for one GET, honouring negotiation state.

        ``client_models`` is the parsed ``sww-models`` header (§7 model
        negotiation): when present, generative pages are rewritten to the
        client's installed models, and pages the client cannot generate
        fall back to server-side generation.

        ``trace_context`` is the extracted ``traceparent``
        (:class:`~repro.obs.TraceContext` or None): when present the
        server's spans join the client's distributed trace as remote
        children, sampling decision included.
        """
        with self._stats_lock:
            self.requests_served += 1
        started = time.perf_counter()
        with self.tracer.span("server.request", remote=trace_context, page=path) as span:
            response = self._respond(path, client_gen_ability, client_models)
            if response.mode is not None:
                annotate_current(serve_mode=response.mode.value)
            if span.trace_id:
                annotate_current(trace_id=span.trace_id)
        if self.registry.enabled:
            self._count_response(path, response)
            # Real wall-clock (not simulated) service time: the latency the
            # SLO layer and `sww top` quantiles are computed over.
            self.registry.histogram(
                "sww_request_seconds",
                "Wall-clock request handling time",
                layer="sww",
                operation="serve",
            ).observe(
                time.perf_counter() - started, trace_id=self.tracer.current_trace_id()
            )
        return response

    def _respond(
        self,
        path: str,
        client_gen_ability: bool,
        client_models: list[str] | None,
    ) -> ServedResponse:
        asset = self.store.assets.get(path)
        if asset is not None:
            return ServedResponse(
                status=200,
                headers=self._headers(asset.content_type, len(asset.data)),
                body=asset.data,
            )
        page = self.store.pages.get(path)
        if page is None:
            body = b"not found"
            return ServedResponse(404, self._headers("text/plain", len(body), status=404), body)

        outcome = NegotiationOutcome(client_supports=client_gen_ability, server_supports=self.gen_ability)
        mode = decide_serve_mode(outcome, self.policy, has_prompts=page.has_prompts)
        annotate_current(client_gen_ability=client_gen_ability, device=self.device.name)
        if mode != ServeMode.GENERATIVE:
            if not outcome.negotiated:
                reason = "negotiation"
            elif not page.has_prompts:
                reason = "no-prompts"
            else:
                reason = "policy"
            self._count_fallback(reason)
            annotate_current(fallback_reason=reason)
        if mode == ServeMode.GENERATIVE:
            html = page.sww_html
            if client_models is not None:
                html, negotiation = negotiate_models(html, client_models)
                if not negotiation.compatible:
                    # The client can generate, but not this page's
                    # modalities: materialise server-side instead.
                    mode = ServeMode.SERVER_GENERATED
                    self._count_fallback("models")
                    annotate_current(fallback_reason="models")
                    logger.info(
                        "page %s incompatible with client models; generating server-side", path
                    )
            if mode == ServeMode.GENERATIVE:
                body = html.encode("utf-8")
                headers = self._headers("text/html; charset=utf-8", len(body), sww=True)
                if self.trust_authority is not None:
                    manifests = self._sign_page(html)
                    if manifests:
                        headers.append((b"x-sww-manifests", manifests))
                return ServedResponse(200, headers, body, mode)
        if mode == ServeMode.SERVER_GENERATED:
            html, assets, gen_time, gen_energy = self._materialise(page)
            annotate_current(sim_time_s=gen_time, energy_wh=gen_energy)
            body = html.encode("utf-8")
            return ServedResponse(
                200,
                self._headers("text/html; charset=utf-8", len(body)),
                body,
                mode,
                sim_time_s=gen_time,
                energy_wh=gen_energy,
                generated_assets=assets,
            )
        html = page.traditional_html if page.traditional_html is not None else page.sww_html
        body = html.encode("utf-8")
        return ServedResponse(200, self._headers("text/html; charset=utf-8", len(body)), body, mode)

    def _answers_from_memory(
        self, path: str, client_gen_ability: bool, client_models: list[str] | None
    ) -> bool:
        """Whether :meth:`handle_request` will only hand back bytes it holds.

        True for a stored asset, an unknown path, stored HTML served as-is
        and a page-memo hit; False — conservatively — for anything that
        may generate, parse HTML, negotiate models, sign, wait on another
        request's materialisation or reach the gencache / cache tier. The
        asyncio session serves the former on the event loop and sends the
        latter to the executor. Memo entries are never evicted and assets
        are only ever added, so a True answer still holds when the handler
        runs (no ``await`` separates the two).
        """
        if path in self.store.assets:
            return True
        page = self.store.pages.get(path)
        if page is None:
            return True
        outcome = NegotiationOutcome(client_supports=client_gen_ability, server_supports=self.gen_ability)
        mode = decide_serve_mode(outcome, self.policy, has_prompts=page.has_prompts)
        if mode == ServeMode.GENERATIVE:
            return client_models is None and self.trust_authority is None
        if mode == ServeMode.SERVER_GENERATED:
            return self.memoise_pages and path in self._server_generated
        return True

    def _count_fallback(self, reason: str) -> None:
        if self.registry.enabled:
            self.registry.counter(
                "sww_fallbacks_total",
                "Requests that could not be served generatively, by reason",
                layer="sww",
                operation=reason,
            ).inc()

    def _count_response(self, path: str, response: ServedResponse) -> None:
        """Request/byte accounting for one served response."""
        if response.status == 404:
            operation = "not-found"
        elif response.mode is None:
            operation = "asset"
        else:
            operation = response.mode.value
        self.registry.counter(
            "sww_requests_total", "Requests served, by outcome", layer="sww", operation=operation
        ).inc()
        kind = "prompts" if response.mode == ServeMode.GENERATIVE else "media"
        self.registry.counter(
            "sww_body_bytes_total",
            "Response body bytes, prompts vs materialised media",
            layer="sww",
            operation=kind,
        ).inc(len(response.body))

    def _materialise(self, page: PageResource) -> tuple[str, dict[str, bytes], float, float]:
        """Server-side generation: prompts → media, cached per page.

        §6.2: "This saves storage space, and avoids saving two copies of
        content (prompts and original files)" — the server stores prompts
        only and renders on demand for naive clients; generated assets are
        registered in the store so follow-up asset GETs resolve.

        Concurrent requests for the same page are **single-flighted**: the
        first becomes the leader and generates; followers wait on its
        future and are accounted like cache hits (0 extra simulated cost),
        exactly as a serial request stream would have hit the page cache.
        """
        cached = self._server_generated.get(page.path) if self.memoise_pages else None
        if cached is not None:
            return self._materialised_hit(cached, "hit")
        with self._materialise_lock:
            cached = self._server_generated.get(page.path)
            if cached is not None:
                flight = None
            else:
                flight = self._materialise_flights.get(page.path)
                if flight is None:
                    # This request leads; everyone else follows its future.
                    leader_future: Future = Future()
                    self._materialise_flights[page.path] = leader_future
        if cached is not None:
            return self._materialised_hit(cached, "hit")
        if flight is not None:
            # Follower: wait for the leader's result (or its exception).
            return self._materialised_hit(flight.result(), "coalesced")
        try:
            entry = self._materialise_cold(page)
        except BaseException as exc:
            leader_future.set_exception(exc)
            raise
        finally:
            with self._materialise_lock:
                self._materialise_flights.pop(page.path, None)
        leader_future.set_result(entry)
        return entry

    def _materialised_hit(
        self, entry: tuple[str, dict[str, bytes], float, float], outcome: str
    ) -> tuple[str, dict[str, bytes], float, float]:
        """Account a page-cache hit (or in-flight coalesce): no extra cost."""
        annotate_current(gencache_outcome=outcome)
        if self.registry.enabled:
            self.registry.counter(
                "sww_materialise_cache_total",
                "Server-side materialisation cache lookups",
                layer="sww",
                operation=outcome,
            ).inc()
        html, assets, _time, _energy = entry
        return html, assets, 0.0, 0.0

    def _materialise_cold(self, page: PageResource) -> tuple[str, dict[str, bytes], float, float]:
        with self.tracer.span("server.materialise", page=page.path):
            document = parse_html(page.sww_html)
            # Upscale items reference stored small originals; the server's own
            # generator reads them straight from the store.
            self._generator.provide_assets(
                {path: asset.data for path, asset in self.store.assets.items()}
            )
            report = self._processor.process(document)
            html = serialize(document)
        for asset_path, data in report.assets.items():
            self.store.add_asset(AssetResource(asset_path, data, "image/png"))
        if self.registry.enabled:
            self.registry.counter(
                "sww_materialise_cache_total",
                "Server-side materialisation cache lookups",
                layer="sww",
                operation="miss",
            ).inc()
            self.registry.histogram(
                "sww_generation_seconds",
                "Simulated server-side materialisation time per page",
                layer="sww",
                operation="materialise",
            ).observe(report.sim_time_s, trace_id=self.tracer.current_trace_id())
        logger.debug(
            "materialised %s: %d assets, %.1f simulated s",
            page.path,
            len(report.assets),
            report.sim_time_s,
        )
        entry = (html, dict(report.assets), report.sim_time_s, report.energy_wh)
        if self.memoise_pages:
            self._server_generated[page.path] = entry
        return entry

    def _sign_page(self, html: str) -> bytes:
        """Sign every well-formed generated-content item on a page.

        Returns a JSON array (name → manifest) for the x-sww-manifests
        header, signed over the page's *final* metadata — i.e. after any
        model-negotiation rewrite, so the client verifies exactly what it
        will generate from.
        """
        import json as _json

        from repro.sww.content import CSS_CLASS, ContentError, GeneratedContent

        document = parse_html(html)
        entries = []
        for element in document.find_by_class(CSS_CLASS):
            try:
                item = GeneratedContent.from_element(element)
            except ContentError:
                continue
            manifest = self.trust_authority.sign(item)
            entries.append({"name": item.name, "manifest": _json.loads(manifest.to_json())})
        if entries and self.registry.enabled:
            self.registry.counter(
                "sww_manifests_signed_total",
                "Provenance manifests signed for generative responses",
                layer="sww",
                operation="sign",
            ).inc(len(entries))
        if not entries:
            return b""
        return _json.dumps(entries, separators=(",", ":")).encode("utf-8")

    @staticmethod
    def _headers(content_type: str, length: int, sww: bool = False, status: int = 200) -> HeaderList:
        headers: HeaderList = [
            (b":status", str(status).encode()),
            (b"content-type", content_type.encode()),
            (b"content-length", str(length).encode()),
            (b"server", b"sww-generative-server/1.0"),
        ]
        if sww:
            headers.append((b"x-sww-content", b"prompts"))
        return headers

    # ------------------------------------------------------------------ #
    # HTTP/2 plumbing
    # ------------------------------------------------------------------ #

    def new_connection(self) -> H2Connection:
        """A fresh server engine for one connection."""
        return H2Connection(
            Role.SERVER,
            gen_ability=self.gen_ability,
            registry=self.registry,
            max_concurrent_streams=self.max_concurrent_streams,
        )

    def sessions(self) -> list["ServerSession"]:
        """Live (not yet collected) sessions, for the admin plane."""
        return list(self._sessions)

    async def handle_connection(self, transport: AsyncH2Transport) -> None:
        """Serve one accepted TCP connection, whose engine came from
        :meth:`new_connection`, until the peer goes away. Public so other
        accept loops (the pre-fork worker in :mod:`repro.serving.worker`)
        drive the exact connection path :meth:`serve_forever` uses."""
        await ServerSession(self, transport).serve()

    async def serve_forever(self, host: str = "127.0.0.1", port: int = 0) -> asyncio.AbstractServer:
        """Listen on TCP; each connection gets its own engine + session.

        Every request stream becomes its own asyncio task, generation runs
        off the event loop, and responses interleave through the
        flow-control-aware :class:`~repro.http2.writer.ConnectionWriter`.
        """
        return await listen(self.new_connection, self.handle_connection, host, port)


@dataclass(slots=True)
class _Request:
    """One request stream as the session serves it."""

    stream_id: int
    path: str
    authority: bytes
    client_models: list[str] | None
    trace_context: object
    gen_ability: bool
    #: The request's wide event.
    record: object
    inflight: object = None


class ServerSession:
    """Per-connection SWW semantics: request parsing, wide events, push,
    and the choice of where a request runs, applied to one engine.

    :meth:`serve` runs the connection on the shared
    :class:`~repro.http2.endpoint.ServerConnection` driver (handshake,
    credit return, the writer, drain and close are the driver's), over a
    socket or the in-memory pair alike. A ``RequestReceived`` whose
    answer is already in memory
    (:meth:`GenerativeServer._answers_from_memory`) is answered inside the
    dispatch callback, with no task, and leaves in the read turn's one
    flush. Anything that generates, parses, signs or waits becomes its own
    task (:meth:`_serve_off_loop`) with its work on a thread executor, so
    the event loop never blocks. Either way the
    finished body is queued on the driver's writer, which interleaves DATA
    frames within flow-control credit.
    """

    def __init__(self, server: GenerativeServer, transport: AsyncH2Transport) -> None:
        self.server = server
        self.conn = transport.conn
        self.responses_sent = 0
        self.driver = ServerConnection(transport, registry=server.registry)
        #: What carries the connection, for the wide events: "tcp" or "memory".
        self.transport = "tcp"
        #: Peak event-loop stall the probe observed on this connection.
        self.max_stall_s = 0.0
        server._sessions.add(self)

    @property
    def inflight(self) -> int:
        """Request streams still being served on this connection."""
        return self.driver.inflight

    @property
    def draining(self) -> bool:
        return self.driver.draining

    @staticmethod
    def _parse_request(event: RequestReceived):
        """Extract (path, authority, client_models, trace_context)."""
        headers = dict(event.headers)
        path = headers.get(b":path", b"/").decode("utf-8", "replace")
        authority = headers.get(b":authority", b"sww.example")
        raw_models = headers.get(MODELS_HEADER)
        client_models = parse_models_header(raw_models) if raw_models is not None else None
        # Malformed/truncated traceparent values parse to None and the
        # request simply starts its own trace (W3C restart semantics).
        trace_context = parse_traceparent(headers.get(TRACEPARENT_HEADER))
        return path, authority, client_models, trace_context

    def _should_push(self, response: ServedResponse) -> bool:
        return (
            self.server.push_assets
            and response.mode == ServeMode.SERVER_GENERATED
            and self.conn.peer_settings.enable_push
        )

    def _push_generated_assets(
        self, stream_id: int, response: ServedResponse, authority: bytes, writer: ConnectionWriter
    ) -> None:
        """Promise the response's generated assets; their bodies go through
        ``writer`` (flow-controlled, interleaved)."""
        for asset_path, data in response.generated_assets.items():
            request_headers = [
                (b":method", b"GET"),
                (b":path", asset_path.encode("utf-8")),
                (b":scheme", b"https"),
                (b":authority", authority),
            ]
            response_headers = [
                (b":status", b"200"),
                (b"content-type", b"image/png"),
                (b"content-length", str(len(data)).encode()),
            ]
            promised_id = self.conn.promise_stream(stream_id, request_headers, response_headers)
            writer.enqueue(promised_id, data, end_stream=True)

    async def serve(self, transport: str = "tcp") -> None:
        """Drive the connection to completion over a "tcp" or "memory"
        transport.

        An in-memory pair's loop runs only inside its caller's synchronous
        calls, so the stall probe, which times a loop that runs all along,
        stays off there."""
        self.transport = transport
        probe_task = asyncio.create_task(self._stall_probe()) if transport == "tcp" else None
        try:
            await self.driver.run(self._dispatch)
        finally:
            if probe_task is not None:
                probe_task.cancel()
                await asyncio.wait([probe_task])

    async def shutdown(self, timeout_s: float = 30.0) -> None:
        """Server-initiated graceful close (worker drain path): in-flight
        streams finish and queued bytes flush before the socket closes."""
        await self.driver.shutdown(timeout_s)

    def _note_termination(self, event: ConnectionTerminated) -> None:
        """A non-clean GOAWAY is a pushed flight-recorder trigger."""
        if self.server.recorder is not None and int(event.error_code) != 0:
            self.server.recorder.note(
                "protocol-error",
                f"connection terminated with GOAWAY error code {int(event.error_code)}",
            )

    def _dispatch(self, event: Event) -> None:
        if isinstance(event, RequestReceived):
            if self.driver.draining:
                logger.info("ignoring stream %d received after GOAWAY", event.stream_id)
                return
            request = self._open(event)
            # Answers already in memory (stored assets, 404s, stored HTML,
            # page-memo hits) are answered right here, inside the read
            # turn: the driver's end-of-turn pump puts HEADERS and DATA in
            # the turn's one flush. Anything that generates, parses, signs
            # or waits runs off the loop so other streams — and other
            # connections — keep flowing; concurrent materialisations meet
            # in the BatchingEngine window / gencache single-flight.
            if not self.server._answers_from_memory(
                request.path, request.gen_ability, request.client_models
            ):
                self.driver.spawn(self._serve_off_loop(request))
                return
            try:
                response = self._handle(request)
            except Exception as exc:
                response = self._failed(request, exc)
            self._respond(request, response)
        elif isinstance(event, ConnectionTerminated):
            self._note_termination(event)
        elif isinstance(event, StreamRefused):
            logger.info(
                "refused stream %d over MAX_CONCURRENT_STREAMS", event.stream_id
            )
        elif isinstance(event, AbuseDetected):
            # The engine already sent GOAWAY(ENHANCE_YOUR_CALM) and the
            # driver stopped taking streams; surface the incident.
            logger.warning("abusive peer: %s after %d occurrences", event.kind, event.count)
            if self.server.recorder is not None:
                self.server.recorder.note(
                    "protocol-error", f"abuse detected: {event.kind} x{event.count}"
                )

    def _open(self, event: RequestReceived) -> _Request:
        """Parse a request and start its accounting: the inflight gauge
        and its wide event."""
        path, authority, client_models, trace_context = self._parse_request(event)
        request = _Request(
            event.stream_id, path, authority, client_models, trace_context,
            self.conn.gen_ability_negotiated,
            self.server.events.begin(
                "server.request", path=path, stream_id=event.stream_id, transport=self.transport
            ),
        )
        registry = self.server.registry
        if registry.enabled:
            request.inflight = registry.gauge(
                "sww_server_inflight_streams",
                "Request streams currently being served by the stream scheduler",
                layer="sww",
                operation="serve",
            )
            request.inflight.inc()
        return request

    async def _serve_off_loop(self, request: _Request) -> None:
        """A request that may block: its own task, its work on the executor."""
        loop = asyncio.get_running_loop()
        try:
            response = await loop.run_in_executor(None, self._handle, request)
        except asyncio.CancelledError:
            # Drain timed out under this stream: the wide event still closes.
            if request.inflight is not None:
                request.inflight.dec()
            request.record.finish(error="cancelled")
            raise
        except Exception as exc:
            response = self._failed(request, exc)
        if self._respond(request, response):
            self.driver.wake()

    def _failed(self, request: _Request, exc: Exception) -> ServedResponse:
        logger.exception("stream %d (%s) failed; responding 500", request.stream_id, request.path)
        request.record.set(error=type(exc).__name__)
        if self.server.recorder is not None:
            self.server.recorder.note(
                "generation-failure", f"{type(exc).__name__} on {request.path}"
            )
        body = b"internal server error"
        return ServedResponse(500, self.server._headers("text/plain", len(body), status=500), body)

    def _respond(self, request: _Request, response: ServedResponse) -> bool:
        """Send HEADERS and queue the body on the writer; False when the
        connection or the stream closed under the response."""
        if request.inflight is not None:
            request.inflight.dec()
        record = request.record
        driver = self.driver
        if driver.closed:
            record.finish(status=response.status, error="connection-closed")
            return False
        self.responses_sent += 1
        # Status and body size are known now; the writer annotates the
        # wire-side fields and closes the event when the last frame leaves
        # (or the stream dies), covering the full lifetime.
        record.set(status=response.status, body_bytes=len(response.body))
        stream_id = request.stream_id
        try:
            self.conn.send_headers(stream_id, response.headers)
            if self._should_push(response):
                self._push_generated_assets(stream_id, response, request.authority, writer=driver.writer)
            driver.writer.enqueue(stream_id, response.body, end_stream=True, event=record)
        except H2Error as exc:
            logger.warning("stream %d closed under its response; dropping", stream_id)
            record.finish(status=response.status, error=type(exc).__name__)
            return False
        return True

    def _handle(self, request: _Request) -> ServedResponse:
        with self.server.tracer.span(
            "server.stream", remote=request.trace_context, page=request.path, stream=request.stream_id
        ):
            with request.record.bind():
                return self.server.handle_request(
                    request.path, request.gen_ability, request.client_models, request.trace_context
                )

    def debug_state(self) -> dict:
        """Live connection state for the admin plane's ``/debug/streams``."""
        return {
            "gen_ability_negotiated": self.conn.gen_ability_negotiated,
            "connection_window": self.conn.outbound_window.available,
            "draining": self.draining,
            "inflight_tasks": self.inflight,
            "responses_sent": self.responses_sent,
            "max_stall_s": round(self.max_stall_s, 6),
            "writer": self.driver.writer.debug_state(),
        }

    async def _stall_probe(self) -> None:
        """Sample event-loop responsiveness while the connection lives.

        A sleep that oversleeps by Δ means something held the loop for ~Δ
        (an on-loop answer that blocks shows here at its full length); the
        stream scheduler must stay under the 50 ms acceptance bar.
        """
        loop = asyncio.get_running_loop()
        registry = self.server.registry
        histogram = gauge = None
        if registry.enabled:
            histogram = registry.histogram(
                "sww_server_loop_stall_seconds",
                "Observed event-loop scheduling delay while serving",
                buckets=_STALL_BUCKETS,
                layer="sww",
                operation="loop",
            )
            gauge = registry.gauge(
                "sww_server_loop_stall_max_seconds",
                "Worst event-loop stall observed while serving",
                layer="sww",
                operation="loop",
            )
        while True:
            before = loop.time()
            await asyncio.sleep(_STALL_PROBE_INTERVAL_S)
            if self.draining:
                # The connection is on its way out: whatever holds the
                # loop from here on is not this connection being served.
                return
            stall = max(0.0, loop.time() - before - _STALL_PROBE_INTERVAL_S)
            if stall > self.max_stall_s:
                self.max_stall_s = stall
            if histogram is not None:
                histogram.observe(stall)
            if gauge is not None and self.max_stall_s > gauge.value:
                gauge.set(self.max_stall_s)
