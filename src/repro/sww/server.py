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
from repro.obs import NULL_EVENT_LOG, NULL_REGISTRY, NULL_TRACER, MetricsRegistry, Tracer
from repro.obs.events import annotate_current
from repro.obs.propagation import TRACEPARENT_HEADER, parse_traceparent
from repro.sww.capability import NegotiationOutcome, ServeMode, ServePolicy, decide_serve_mode
from repro.sww.media_generator import MediaGenerator
from repro.sww.model_negotiation import MODELS_HEADER, PageModels, negotiate_models, parse_models_header
from repro.sww.page_processor import PageProcessor

logger = logging.getLogger("repro.sww.server")

HeaderList = list[tuple[bytes, bytes]]

#: Event-loop stall histogram bounds (seconds). The acceptance bar for the
#: concurrent scheduler is "no loop blockage beyond 50 ms while generation
#: runs", so the buckets straddle that threshold.
_STALL_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0)

#: How often the stall probe samples loop responsiveness.
_STALL_PROBE_INTERVAL_S = 0.02

#: How many negotiated answers (each a copy of the page) a page keeps. Its
#: decisions grow as 2**k in its k requested model names and clients pick
#: which fill; past the cap a new decision negotiates per request.
_NEGOTIATED_PER_PAGE = 64


@dataclass
class PageResource:
    """A stored page: the SWW (prompt-carrying) HTML and optional variants."""

    path: str
    sww_html: str
    #: Pre-rendered traditional HTML (for servers without prompts, or the
    #: §6.2 "serve traditional even to capable clients" policy path).
    traditional_html: str | None = None

    #: The page's model negotiation, kept per decision
    #: (:meth:`~repro.sww.model_negotiation.PageModels.decision`) by an
    #: unsigned server: what negotiation reads of the page, and each
    #: decision's negotiated prompts answer. Capped near
    #: ``_NEGOTIATED_PER_PAGE`` entries whatever clients send; replacing the
    #: page drops them.
    models: PageModels | None = field(default=None, init=False, repr=False, compare=False)
    negotiated: dict[tuple, "ServedResponse"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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
    #: What the page table answered, when mode == SERVER_GENERATED: "hit"
    #: (already materialised), "coalesced" (waited on another request's
    #: materialisation) or "miss" (this request materialised the page).
    memo: str | None = None


#: A page's server-side materialisation: (html, assets, simulated s, Wh).
_PageEntry = tuple[str, dict[str, bytes], float, float]


@dataclass(slots=True)
class _Route:
    """The one decision about a request (:meth:`GenerativeServer._route`)."""

    path: str
    client_gen_ability: bool
    client_models: list[str] | None
    page: PageResource | None = None
    mode: ServeMode | None = None
    #: Why a page is not served generatively: "negotiation", "no-prompts"
    #: or "policy".
    fallback: str | None = None
    #: The finished response, when the server already holds it: a stored
    #: asset, a 404, stored HTML served as is, prompts already negotiated
    #: for the client's models, or a page-memo hit.
    answer: ServedResponse | None = None


class GenerativeServer:
    """Transport-independent SWW request handling plus asyncio serving."""

    def __init__(
        self,
        store: SiteStore,
        device: DeviceProfile = WORKSTATION,
        policy: ServePolicy | None = None,
        gen_ability: bool = True,
        push_assets: bool = False,
        trust_authority=None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        gencache=None,
        engine=None,
        events=None,
        memoise_pages: bool = True,
        max_concurrent_streams: int | None = None,
    ) -> None:
        self.store = store
        self.device = device
        self.policy = policy or ServePolicy()
        self.gen_ability = gen_ability
        #: Observability sinks (no-ops unless injected).
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Wide-event log: one canonical record per served request,
        #: annotated across layers (no-op unless injected).
        self.events = events if events is not None else NULL_EVENT_LOG
        #: Optional incident flight recorder, assigned once it is built;
        #: pushed triggers (protocol errors, generation failures) notify it
        #: directly.
        self.recorder = None
        #: When serving a server-generated page, push the freshly
        #: generated media over HTTP/2 server push (RFC 9113 §8.4) instead
        #: of waiting for the naive client's follow-up GETs.
        self.push_assets = push_assets
        #: §7 trust: when set, generative responses carry signed
        #: provenance manifests in an x-sww-manifests header.
        self.trust_authority = trust_authority
        #: Server-side pipeline, used when it must generate for naive clients.
        self.pipeline = GenerationPipeline(device, registry=self.registry, tracer=self.tracer)
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
        #: ``memoise_pages=False`` turns the page memo off (every request
        #: re-materialises through the item-level gencache) — used when the
        #: interesting cache is a shared tier whose hit rate the page memo
        #: would mask. Concurrent requests for a page coalesce either way.
        self.memoise_pages = memoise_pages
        #: The page table: path → the future of its server-side
        #: materialisation (a :data:`_PageEntry`). The first requester of a
        #: page leads and generates; a pending future is joined, a finished
        #: one is a memo hit. A failed leader removes its entry, and so does
        #: every leader once its result is ready when the memo is off.
        self._pages: dict[str, Future] = {}
        self._pages_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.requests_served = 0
        #: What the server answered, tallied under ``_stats_lock`` and read
        #: when the registry is scraped: requests by outcome, body bytes by
        #: kind, page-memo outcomes and generative fallbacks by reason.
        self._outcomes = dict.fromkeys(("not-found", "asset", *(mode.value for mode in ServeMode)), 0)
        self._body_bytes = {"prompts": 0, "media": 0}
        self._memo_outcomes = {"hit": 0, "coalesced": 0, "miss": 0}
        self._fallbacks = {"negotiation": 0, "no-prompts": 0, "policy": 0, "models": 0}
        #: Live sessions, for the admin plane's /debug/streams and
        #: /healthz views. Weak so closed connections vanish on GC.
        self._sessions: "weakref.WeakSet[ServerSession]" = weakref.WeakSet()
        #: Whether a session has served a request stream, and the worst
        #: event-loop stall any session's probe saw (None until one ran).
        self._streams_served = False
        self._worst_stall_s: float | None = None
        self.registry.source(self)

    # ------------------------------------------------------------------ #
    # Request logic (sans-io)
    # ------------------------------------------------------------------ #

    def handle_request(
        self,
        path: str,
        client_gen_ability: bool,
        client_models: list[str] | None = None,
        trace_context=None,
        *,
        route: _Route | None = None,
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

        ``route`` is the request's :meth:`_route`, when the caller has
        already made it (the asyncio session routes a request to choose
        where it runs); without it the request is routed here.
        """
        started = time.perf_counter()
        if route is None:
            route = self._route(path, client_gen_ability, client_models)
        with self._stats_lock:
            self.requests_served += 1
            if route.fallback is not None:
                self._fallbacks[route.fallback] += 1
        with self.tracer.span("server.request", remote=trace_context, page=path):
            self._note_route(route)
            response = route.answer if route.answer is not None else self._produce(route)
            self._note_outcome(response, started)
        return response

    def _route(
        self, path: str, client_gen_ability: bool, client_models: list[str] | None
    ) -> _Route:
        """Decide how a request is served, once, before any work.

        Looks the path up, applies the serving rule (§3, §5.1) and notes
        why a page falls back. When the server already holds the answer the
        route carries it finished; anything else is left to
        :meth:`_produce`. Never parses, signs, generates or waits, and
        writes no metric or event, so the asyncio session runs it on the
        event loop.
        """
        route = _Route(path, client_gen_ability, client_models)
        asset = self.store.assets.get(path)
        if asset is not None:
            headers = self._headers(asset.content_type, len(asset.data))
            route.answer = ServedResponse(200, headers, asset.data)
            return route
        page = route.page = self.store.pages.get(path)
        if page is None:
            body = b"not found"
            route.answer = ServedResponse(404, self._headers("text/plain", len(body), status=404), body)
            return route
        outcome = NegotiationOutcome(client_supports=client_gen_ability, server_supports=self.gen_ability)
        mode = route.mode = decide_serve_mode(outcome, self.policy, has_prompts=page.has_prompts)
        if mode is ServeMode.GENERATIVE:
            # The stored prompts, or the page's prompts already negotiated
            # for this client's decision. A signed page is signed per request.
            if self.trust_authority is None:
                if client_models is None:
                    route.answer = self._prompts(page.sww_html)
                elif page.models is not None:
                    route.answer = page.negotiated.get(page.models.decision(client_models))
            return route
        if not outcome.negotiated:
            route.fallback = "negotiation"
        elif not page.has_prompts:
            route.fallback = "no-prompts"
        else:
            route.fallback = "policy"
        if mode is ServeMode.SERVER_GENERATED:
            # One dict read is atomic. With the memo on a finished entry
            # stays; a future read just before its failed leader removed
            # it holds an exception and is left to the executor.
            flight = self._pages.get(path)
            if self.memoise_pages and flight is not None and flight.done() and not flight.exception():
                route.answer = self._generated("hit", self._follow(flight))
            return route
        html = page.traditional_html if page.traditional_html is not None else page.sww_html
        body = html.encode("utf-8")
        route.answer = ServedResponse(200, self._headers("text/html; charset=utf-8", len(body)), body, mode)
        return route

    def _produce(self, route: _Route) -> ServedResponse:
        """The work a route leaves: model negotiation (the first request
        per decision) and signing for a generative page, server-side
        materialisation otherwise."""
        page = route.page
        if route.mode is ServeMode.GENERATIVE:
            if route.client_models is None:
                return self._prompts(page.sww_html)
            html, negotiation = negotiate_models(page.sww_html, route.client_models)
            if negotiation.compatible:
                answer = self._prompts(html)
                if self.trust_authority is None and len(page.negotiated) < _NEGOTIATED_PER_PAGE:
                    # Pure and idempotent: concurrent misses store equal
                    # answers, and the next request with this decision is
                    # answered by _route. The count is read unlocked, so
                    # misses racing at the cap may each add one past it.
                    page.negotiated[negotiation.page_models.decision(route.client_models)] = answer
                    page.models = negotiation.page_models
                return answer
            # The client can generate, but not this page's modalities:
            # materialise server-side instead. Only the parse can tell, so
            # the fallback is noted here.
            annotate_current(fallback_reason="models")
            with self._stats_lock:
                self._fallbacks["models"] += 1
            logger.info("page %s incompatible with client models; generating server-side", page.path)
        return self._generated(*self._claim(page))

    def _prompts(self, html: str) -> ServedResponse:
        body = html.encode("utf-8")
        headers = self._headers("text/html; charset=utf-8", len(body), sww=True)
        if self.trust_authority is not None:
            manifests = self._sign_page(html)
            if manifests:
                headers.append((b"x-sww-manifests", manifests))
        return ServedResponse(200, headers, body, ServeMode.GENERATIVE)

    def _generated(self, memo: str, entry: _PageEntry) -> ServedResponse:
        html, assets, sim_time_s, energy_wh = entry
        body = html.encode("utf-8")
        return ServedResponse(
            200,
            self._headers("text/html; charset=utf-8", len(body)),
            body,
            ServeMode.SERVER_GENERATED,
            sim_time_s=sim_time_s,
            energy_wh=energy_wh,
            generated_assets=assets,
            memo=memo,
        )

    def _note_route(self, route: _Route) -> None:
        """The route's facts, written once before any work."""
        if route.page is None:
            return
        annotate_current(client_gen_ability=route.client_gen_ability, device=self.device.name)
        if route.fallback is not None:
            annotate_current(fallback_reason=route.fallback)

    def _note_outcome(self, response: ServedResponse, started: float) -> None:
        """The outcome's facts, written once after the work, inside the
        request's span: its latency exemplar is that span's trace."""
        fields = {}
        if response.memo in ("hit", "coalesced"):
            # A miss keeps the generation layer's own per-item outcome.
            fields["gencache_outcome"] = response.memo
        if response.mode is ServeMode.SERVER_GENERATED:
            fields.update(sim_time_s=response.sim_time_s, energy_wh=response.energy_wh)
        if response.mode is not None:
            fields["serve_mode"] = response.mode.value
        if fields:
            annotate_current(**fields)
        if response.status == 404:
            outcome = "not-found"
        elif response.mode is None:
            outcome = "asset"
        else:
            outcome = response.mode.value
        kind = "prompts" if response.mode is ServeMode.GENERATIVE else "media"
        with self._stats_lock:
            self._outcomes[outcome] += 1
            self._body_bytes[kind] += len(response.body)
            if response.memo is not None:
                self._memo_outcomes[response.memo] += 1
        registry = self.registry
        if not registry.enabled:
            return
        # Real wall-clock (not simulated) service time: the latency the
        # SLO layer and `sww top` quantiles are computed over.
        registry.histogram(
            "sww_request_seconds",
            "Wall-clock request handling time",
            layer="sww",
            operation="serve",
        ).observe(time.perf_counter() - started, trace_id=self.tracer.current_trace_id())

    def samples(self, out, _owner) -> None:
        """The server's tallies, when its registry is scraped."""
        for outcome, count in self._outcomes.items():
            out.counter("sww_requests_total", "Requests served, by outcome", count, layer="sww", operation=outcome)
        # A response counts its body even when it is empty.
        prompts = self._outcomes[ServeMode.GENERATIVE.value]
        for kind, served in (("prompts", prompts), ("media", sum(self._outcomes.values()) - prompts)):
            out.counter(
                "sww_body_bytes_total", "Response body bytes, prompts vs materialised media",
                self._body_bytes[kind], counted=served > 0, layer="sww", operation=kind,
            )
        for memo, count in self._memo_outcomes.items():
            out.counter(
                "sww_materialise_cache_total", "Server-side materialisation cache lookups",
                count, layer="sww", operation=memo,
            )
        for reason, count in self._fallbacks.items():
            out.counter(
                "sww_fallbacks_total", "Requests that could not be served generatively, by reason",
                count, layer="sww", operation=reason,
            )
        if self._streams_served:
            out.gauge(
                "sww_server_inflight_streams", "Request streams currently being served by the stream scheduler",
                sum(session.inflight for session in self.sessions()), layer="sww", operation="serve",
            )
        if self._worst_stall_s is not None:
            out.gauge(
                "sww_server_loop_stall_max_seconds", "Worst event-loop stall observed while serving",
                self._worst_stall_s, layer="sww", operation="loop",
            )

    def _claim(self, page: PageResource) -> tuple[str, _PageEntry]:
        """Server-side generation (prompts → media) through the page table,
        with the memo outcome.

        §6.2: "This saves storage space, and avoids saving two copies of
        content (prompts and original files)" — the server stores prompts
        only and renders on demand for naive clients; generated assets are
        registered in the store so follow-up asset GETs resolve.

        Concurrent requests for the same page are **single-flighted**: the
        first becomes the leader and generates ("miss"); followers wait on
        its future and are accounted like cache hits (0 extra simulated
        cost), exactly as a serial request stream would have hit the memo.
        """
        fresh: Future = Future()
        with self._pages_lock:
            flight = self._pages.setdefault(page.path, fresh)
            # Decided under the lock: with the memo off a leader removes
            # its entry before finishing it, so a follower is never a hit.
            memo = "hit" if flight.done() else "coalesced"
        if flight is not fresh:
            return memo, self._follow(flight)
        try:
            entry = self._materialise_cold(page)
        except BaseException as exc:
            with self._pages_lock:
                del self._pages[page.path]
            flight.set_exception(exc)
            raise
        if not self.memoise_pages:
            with self._pages_lock:
                del self._pages[page.path]
        flight.set_result(entry)
        return "miss", entry

    @staticmethod
    def _follow(flight: Future) -> _PageEntry:
        """Another request's materialisation, at no extra cost; a failed
        leader's exception is raised here."""
        html, assets, _time, _energy = flight.result()
        return html, assets, 0.0, 0.0

    def _materialise_cold(self, page: PageResource) -> _PageEntry:
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
        return html, dict(report.assets), report.sim_time_s, report.energy_wh

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
        """Live (not yet collected) sessions, for the admin plane and
        scrapes. Copying the weak set's references is one C-level call, so
        another thread may ask while the event loop adds a session."""
        sessions = (ref() for ref in list(self._sessions.data))
        return [session for session in sessions if session is not None]

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
    authority: bytes
    trace_context: object
    #: The request's one routing decision (:meth:`GenerativeServer._route`).
    route: _Route
    #: The request's wide event.
    record: object


class ServerSession:
    """Per-connection SWW semantics: request parsing, wide events, push,
    and the choice of where a request runs, applied to one engine.

    :meth:`serve` runs the connection on the shared
    :class:`~repro.http2.endpoint.ServerConnection` driver (handshake,
    credit return, the writer, drain and close are the driver's), over a
    socket or the in-memory pair alike. Each ``RequestReceived`` is routed
    once (:meth:`GenerativeServer._route`). A route that carries its answer
    is served inside the dispatch callback, with no task, and leaves in
    the read turn's one flush. Any other route — one that generates,
    parses, signs or waits — becomes its own task
    (:meth:`_serve_off_loop`) with its work on a thread executor, so the
    event loop never blocks. Either way the finished body is queued on the
    driver's writer, which interleaves DATA frames within flow-control
    credit.
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
        #: The stall probe's pending timer and its histogram
        #: (:meth:`_start_stall_probe`).
        self._probe: asyncio.TimerHandle | None = None
        self._stall_histogram = None
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
        if transport == "tcp":
            self._start_stall_probe()
        try:
            await self.driver.run(self._dispatch)
        finally:
            if self._probe is not None:
                self._probe.cancel()

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
            # A route that carries its answer (stored asset, 404, stored
            # HTML, negotiated prompts, page-memo hit) is served right
            # here, inside the read turn: the driver's end-of-turn pump
            # puts HEADERS and DATA in the turn's one flush. Anything that
            # generates, parses, signs or waits runs off the loop so other
            # streams — and other connections — keep flowing; concurrent
            # materialisations meet in the page table, the BatchingEngine
            # window and the media generator's flight.
            if request.route.answer is None:
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
        """Parse and route a request and begin its wide event."""
        path, authority, client_models, trace_context = self._parse_request(event)
        self.server._streams_served = True
        return _Request(
            event.stream_id, authority, trace_context,
            self.server._route(path, self.conn.gen_ability_negotiated, client_models),
            self.server.events.begin(
                "server.request", path=path, stream_id=event.stream_id, transport=self.transport
            ),
        )

    async def _serve_off_loop(self, request: _Request) -> None:
        """A request that may block: its own task, its work on the executor."""
        loop = asyncio.get_running_loop()
        try:
            response = await loop.run_in_executor(None, self._handle, request)
        except asyncio.CancelledError:
            # Drain timed out under this stream: the wide event still closes.
            request.record.finish(error="cancelled")
            raise
        except Exception as exc:
            response = self._failed(request, exc)
        if self._respond(request, response):
            self.driver.wake()

    def _failed(self, request: _Request, exc: Exception) -> ServedResponse:
        path = request.route.path
        # Inside the request's binding, on either route, so the log line
        # carries the event's trace_id and seq.
        with request.record.bind():
            logger.exception("stream %d (%s) failed; responding 500", request.stream_id, path)
        request.record.set(error=type(exc).__name__)
        if self.server.recorder is not None:
            self.server.recorder.note(
                "generation-failure", f"{type(exc).__name__} on {path}"
            )
        body = b"internal server error"
        return ServedResponse(500, self.server._headers("text/plain", len(body), status=500), body)

    def _respond(self, request: _Request, response: ServedResponse) -> bool:
        """Send HEADERS and queue the body on the writer; False when the
        connection or the stream closed under the response."""
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
        route = request.route
        with request.record.bind():
            return self.server.handle_request(
                route.path,
                route.client_gen_ability,
                route.client_models,
                request.trace_context,
                route=route,
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

    def _start_stall_probe(self) -> None:
        """Sample event-loop responsiveness while the connection lives.

        A chain of 20 ms timers: one that fires late by Δ means something
        held the loop for ~Δ (an on-loop answer that blocks shows here at
        its full length); the stream scheduler must stay under the 50 ms
        acceptance bar.
        """
        server = self.server
        if server.registry.enabled:
            self._stall_histogram = server.registry.histogram(
                "sww_server_loop_stall_seconds",
                "Observed event-loop scheduling delay while serving",
                buckets=_STALL_BUCKETS,
                layer="sww",
                operation="loop",
            )
        if server._worst_stall_s is None:
            server._worst_stall_s = 0.0
        self._arm_stall_probe(asyncio.get_running_loop())

    def _arm_stall_probe(self, loop: asyncio.AbstractEventLoop) -> None:
        self._probe = loop.call_later(_STALL_PROBE_INTERVAL_S, self._stall_probe_fired, loop, loop.time())

    def _stall_probe_fired(self, loop: asyncio.AbstractEventLoop, armed_at: float) -> None:
        if self.draining:
            # The connection is on its way out: whatever holds the loop
            # from here on is not this connection being served.
            return
        stall = max(0.0, loop.time() - armed_at - _STALL_PROBE_INTERVAL_S)
        if stall > self.max_stall_s:
            self.max_stall_s = stall
            self.server._worst_stall_s = max(self.server._worst_stall_s, stall)
        if self._stall_histogram is not None:
            self._stall_histogram.observe(stall)
        self._arm_stall_probe(loop)
