"""The generative client (paper §5.2).

    "the generative client begins by establishing a connection to the
    server, followed by exchanging settings, advertising its generation
    ability and logging the server's ability. After this, the client can
    send a webpage request. As the client receives the HTML file, it
    parses it and generates content. Once parsing and generation are
    complete, the site is rendered in the GUI."

:class:`GenerativeClient` runs that flow on one
:class:`~repro.http2.endpoint.ClientConnection`, over TCP (:meth:`fetch_tcp`)
or over the in-memory pair to an in-process server
(:func:`connect_in_memory` and :meth:`fetch_via_pair`, synchronous facades
for tests, benchmarks and the CLI). Rendering goes through the text-mode
renderer; the PyQt GUI is out of scope in this headless environment
(DESIGN.md §6).
"""

from __future__ import annotations

import asyncio
import logging
import threading
import weakref
from collections.abc import Coroutine, Sequence
from dataclasses import dataclass, field

from repro.devices.profiles import DeviceProfile, LAPTOP
from repro.genai.pipeline import GenerationPipeline
from repro.html import parse_html, serialize
from repro.html.dom import Document
from repro.http2.connection import H2Connection, Role
from repro.http2.endpoint import ClientConnection, H2Response
from repro.http2.transport import open_memory_pair, thread_loop
from repro.obs import NULL_EVENT_LOG, NULL_REGISTRY, NULL_TRACER, MetricsRegistry, Tracer
from repro.sww.media_generator import MediaGenerator
from repro.sww.page_processor import PageProcessor, ProcessReport
from repro.sww.renderer import render_text
from repro.sww.server import ServerSession

logger = logging.getLogger("repro.sww.client")

HeaderList = list[tuple[bytes, bytes]]


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
        #: Observability sinks (no-ops unless injected).
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Wide-event log: one client.fetch event per fetched page.
        self.events = events if events is not None else NULL_EVENT_LOG
        #: §4.1: the image pipeline is preloaded once, not per invocation.
        self.pipeline = GenerationPipeline(device, registry=self.registry, tracer=self.tracer)
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
    # The request path, one for both transports
    # ------------------------------------------------------------------ #

    async def _get(
        self, client: ClientConnection, paths: list[str], priorities: list | None = None
    ) -> list[H2Response]:
        """GET ``paths`` as concurrent streams on ``client``, pushes included."""
        pending = []
        for index, path in enumerate(paths):
            with self.tracer.span("client.request", page=path):
                priority = priorities[index] if priorities else None
                pending.append(client.submit(self.request_headers(path, client.authority, priority=priority)))
        await client.flush()
        return await asyncio.gather(*pending)

    async def _receive(
        self, client: ClientConnection, paths: list[str], priorities: list | None = None
    ) -> list[tuple[FetchResult, H2Response]]:
        """GET ``paths`` on ``client`` and parse each page. A page this
        client will generate also gets the §2.2 originals it references,
        fetched on the same connection while it is open."""
        received = []
        for path, response in zip(paths, await self._get(client, paths, priorities)):
            result = FetchResult(
                path=path,
                status=response.status,
                received_html=response.body.decode("utf-8", "replace"),
                wire_bytes=len(response.body),
                sww_mode=dict(response.headers).get(b"x-sww-content") == b"prompts",
                pushed_assets=dict(response.pushed),
            )
            result.document = parse_html(result.received_html)
            if self._generates(result):
                self.generator.provide_assets(response.pushed)
                await self._fetch_originals(client, result.document)
            received.append((result, response))
        return received

    def _generates(self, result: FetchResult) -> bool:
        return result.status == 200 and result.sww_mode and self.gen_ability

    def _finish(self, result: FetchResult, response: H2Response, transport: str) -> FetchResult:
        """Received page → generated, rendered result."""
        path, status = result.path, result.status
        record = self.events.begin(
            "client.fetch",
            path=path,
            transport=transport,
            wire_bytes=result.wire_bytes,
            sww_mode=result.sww_mode,
            client_gen_ability=self.gen_ability,
            device=self.device.name,
        )
        try:
            with record.bind():
                if self._generates(result):
                    # Generate → rewrite (§5.2). The images stay in this
                    # process, so only what a cache keeps is deflated.
                    with self.tracer.span("client.generate", page=path):
                        result.report = self.processor.process(result.document, local=True)
                    raw_manifests = dict(response.headers).get(b"x-sww-manifests")
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

    async def _fetch_originals(self, client: ClientConnection, document: Document) -> None:
        """§2.2 upscale items reference small stored originals: fetch the
        ones neither pushed nor already held, on the page's connection,
        before generation runs."""
        items, _malformed = self.processor.find_items(document)
        held = self.generator.asset_sources
        missing = list(dict.fromkeys(i.upscale_src for _e, i in items if i.upscale_src and i.upscale_src not in held))
        if missing:
            responses = await self._get(client, missing)
            self.generator.provide_assets({src: r.body for src, r in zip(missing, responses) if r.status == 200})

    # ------------------------------------------------------------------ #
    # In-process server (tests, benchmarks, the CLI)
    # ------------------------------------------------------------------ #

    def fetch_via_pair(self, pair: InMemoryPair, path: str) -> FetchResult:
        """Fetch one page over a pair from :func:`connect_in_memory`: the
        :meth:`fetch_tcp` flow on an already settled connection."""
        self.server_gen_ability = pair.client.conn.peer_gen_ability
        logger.debug("fetch %s (server gen-ability=%s)", path, self.server_gen_ability)
        with self.tracer.span("client.fetch", page=path, transport="memory"):
            ((result, response),) = pair.run(self._receive(pair.client, [path]))
            return self._finish(result, response, "memory")

    def fetch_assets_via_pair(self, pair: InMemoryPair, result: FetchResult) -> dict[str, bytes]:
        """Fetch every ``<img src>`` the (possibly rewritten) page references.

        This is the traditional-web tail of the flow: a naive client (or a
        capable client that received a traditional page) pulls each image
        as its own GET, multiplexed on the connection like a browser's.
        Generated assets produced locally are *not* fetched — that is the
        point of SWW — so only sources outside ``/generated/`` go to the
        server.
        """
        local = result.report.assets if result.report else {}
        sources = (img.get("src") for img in result.document.find_by_tag("img"))
        wanted = list(dict.fromkeys(
            src for src in sources if src and src not in local and src not in result.pushed_assets
        ))
        responses = pair.run(self._get(pair.client, wanted))
        return {src: response.body for src, response in zip(wanted, responses) if response.status == 200}

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
        collect every response (and pushed asset), close, finish each page."""
        with self.tracer.span("client.connect", host=host, port=port):
            conn = self.new_connection()
            client = await ClientConnection.open(host, port, conn)
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
            received = await self._receive(client, paths, priorities)
        finally:
            await client.close()

        logger.info(
            "fetched %d page(s) from %s:%d (server gen-ability=%s)",
            len(paths),
            host,
            port,
            self.server_gen_ability,
        )
        return [self._finish(result, response, "tcp") for result, response in received]


class InMemoryPair:
    """A :class:`~repro.http2.endpoint.ClientConnection` (``client``) and a
    :class:`~repro.sww.server.ServerSession` (``server``) joined by
    :func:`~repro.http2.transport.open_memory_pair`; each exposes its
    engine as ``.conn``.

    :meth:`run` drives a coroutine to completion on the loop of the thread
    that made the pair (:func:`~repro.http2.transport.thread_loop`), in a
    copy of the caller's context, so its spans nest under the caller's
    open span. :meth:`close`,
    or dropping the pair, closes the client end; the server session then
    drains as after a socket's EOF.
    """

    def __init__(self, client: ClientConnection, server, serving: asyncio.Task) -> None:
        self.client = client
        self.server = server
        self._loop = serving.get_loop()
        self.close = weakref.finalize(self, _close_pair, self._loop, threading.get_ident(), client, serving)

    def run(self, coro: Coroutine):
        return self._loop.run_until_complete(coro)


def _close_pair(loop: asyncio.AbstractEventLoop, owner: int, client: ClientConnection, serving: asyncio.Task) -> None:
    async def close() -> None:
        await client.close()
        await asyncio.wait([serving])  # a failure is logged when the task goes

    if loop.is_closed():
        return
    if threading.get_ident() == owner and asyncio._get_running_loop() is None:
        loop.run_until_complete(close())
    else:
        # Collected on another thread, or while a loop runs on this one:
        # close when the pair's loop next runs (the handle holds both ends).
        loop.call_soon_threadsafe(lambda: loop.create_task(close()))


def connect_in_memory(client: GenerativeClient, server) -> InMemoryPair:
    """Connect ``client`` to an in-process
    :class:`~repro.sww.server.GenerativeServer` and settle the settings
    exchange. No socket, but both ends run what a socket runs: the
    server's :meth:`~repro.sww.server.ServerSession.serve` and a
    :class:`~repro.http2.endpoint.ClientConnection`."""

    async def connect() -> InMemoryPair:
        client_end, server_end = open_memory_pair(client.new_connection(), server.new_connection())
        session = ServerSession(server, server_end)
        serving = asyncio.create_task(session.serve(transport="memory"))
        connection = ClientConnection(client_end, "sww.example")
        await connection.settled()
        return InMemoryPair(connection, session, serving)

    with client.tracer.span("client.connect", transport="memory"):
        with client.tracer.span("client.negotiate") as span:
            pair = thread_loop().run_until_complete(connect())
            span.annotate(
                client_gen_ability=client.gen_ability,
                server_gen_ability=pair.client.conn.peer_gen_ability,
            )
    logger.info(
        "in-memory connection negotiated: client=%s server=%s",
        client.gen_ability,
        pair.client.conn.peer_gen_ability,
    )
    return pair
