"""What one request costs may only fall.

The surface ratchet's sibling (ROADMAP item 3(b)): each ceiling is an
exact, host-independent count of work the program does for one scripted
op, taken at the commit that last changed it. Counts do not drown in host
noise the way wall time does, so a regression fails here, in tier-1,
rather than waiting for a bench run. Lower a ceiling whenever the count
drops; raising one belongs in a diff a reviewer sees.

First rows: one warm page-memo hit (the bench's ``hits_small`` op) served
over loopback by a real ``ServerSession`` with metrics, wide events and
tracing on, one request at a time. Two rows ask what a keep-alive
connection keeps once the hits are answered (ROADMAP item 1): the streams
left in either engine's table, and the bytes allocated inside
``repro/http2/`` that are still live, per hit. One asks what the
connection itself costs: the asyncio tasks its two ends run.

Then a generative page (ROADMAP item 3(b)): one cold capable fetch of the
bench's ``pageload_generative`` page, whose work is parsing and
generating, not serving; and one micro-batch through the batching engine.
And a traditional page (ROADMAP items 2 and 3(b)): one naive load of the
bench's ``pageload_traditional`` page and its 49 thumbnails, whose work is
moving 1.4 MB of stored bytes through HTTP/2.

Last, the shared cache tier (ROADMAP items 3(b) and 13): one first touch
and one hit of a ``zipf_views_w2`` image through a worker's
``RemoteGenerationCache``.
"""

import asyncio
import gc
import sys
import threading
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import repro.obs.metrics as metrics
from repro.batching import BatchingEngine
from repro.devices import LAPTOP, WORKSTATION
from repro.genai.image import generate_image
from repro.genai.registry import get_image_model
from repro.http2.connection import H2Connection, Role
from repro.http2.endpoint import ClientConnection, ServerConnection
from repro.http2.frames import Frame
from repro.http2.hpack import HpackEncoder
from repro.http2.transport import AsyncH2Transport
from repro.obs import EventLog, MetricsRegistry, Tracer
from repro.serving.cachetier import CacheTierServer
from repro.serving.remote import RemoteGenerationCache
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.workloads import (
    build_harbour_gallery,
    build_news_article,
    build_uniform_pages,
    build_wikimedia_landscape_page,
)
from repro.workloads.corpus import populate_traditional_assets

MEMO_HIT_CEILINGS = {
    "executor_submissions": 0,
    "threads_started": 0,
    "label_key_sorts": 0,
    # 46 while the writer's and HPACK gauges were set on every change and
    # every frame counted through the registry; ROADMAP item 7.
    "registry_lookups": 7,
    # Tasks spawned per hit: 1 while every request stream was a task.
    "stream_tasks": 0,
    # Socket writes asked for, both ends: the client's request, the
    # server's turn that answers it, the client's turn that returns the
    # credit, the server's turn that reads it. 5 while the answer left in
    # a writer-task flush after an empty one from its read turn.
    "transport_flushes": 4,
    # Streams left in the client's and the server's table after the hits,
    # a level rather than a rate; 23 on each end before closed streams
    # were pruned.
    "streams_left_open": 0,
    # Live bytes allocated under repro/http2/ by the hits: read buffers and
    # the writer's fields in the (bounded) wide-event ring, none of it per
    # stream; 1 315 before closed streams were pruned, 132 before http2
    # state was read when scraped and the answer left in its read turn
    # (108-109 since).
    "http2_bytes_retained": 112,
    # Tasks created for the connection over its whole life, both ends,
    # per-stream ones (ServerConnection.spawn) aside: asyncio's accept
    # task, the server session's task and its stall probe. 5 while each
    # end read a stream pair: those three plus the server's writer task
    # and the client's reader task.
    "connection_tasks": 3,
    # Calls of the serving rule (capability.decide_serve_mode) per hit: 2
    # while the session asked whether a request could be answered from
    # memory and the handler then decided again.
    "serve_mode_decisions": 1,
}
#: Counted like the generative page's rows (below).
SERVE_MODE_COUNTED = {"serve_mode_decisions": ("repro.sww.capability", ("decide_serve_mode",))}
HITS = 20
HTTP2_SOURCES = tracemalloc.Filter(True, "*/repro/http2/*")


def _counting(monkeypatch, owner, name: str, counts: dict, key: str) -> None:
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_warm_memo_hit_costs_no_more_than_it_did(monkeypatch):
    page = build_news_article()
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html))
    registry = MetricsRegistry()
    server = GenerativeServer(
        store,
        registry=registry,
        events=EventLog(registry=registry),
        tracer=Tracer(registry=registry),
    )
    warm = server.handle_request(page.path, client_gen_ability=False)
    counts = dict.fromkeys(MEMO_HIT_CEILINGS, 0)
    counts["spawned_tasks"] = 0

    def http2_bytes() -> int:
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces([HTTP2_SOURCES])
        return sum(stat.size for stat in snapshot.statistics("filename"))

    async def hit(connection):
        return await connection.request("GET", page.path)

    def count_connection_tasks(patch) -> None:
        """Count the tasks the loop creates, bar the ones ``wait_for``
        runs ``hit`` in: those are this harness's, not the connection's."""
        create_task = asyncio.BaseEventLoop.create_task

        def counted(loop, coro, **kwargs):
            if getattr(coro, "cr_code", None) is not hit.__code__:
                counts["connection_tasks"] += 1
            return create_task(loop, coro, **kwargs)

        patch.setattr(asyncio.BaseEventLoop, "create_task", counted)

    async def hits(connection):
        await connection.settled()
        # The first hits on a connection register its instruments.
        for _ in range(3):
            await asyncio.wait_for(hit(connection), 30)
        with monkeypatch.context() as patch:
            _counting(patch, ThreadPoolExecutor, "submit", counts, "executor_submissions")
            _counting(patch, threading.Thread, "start", counts, "threads_started")
            _counting(patch, metrics, "_label_key", counts, "label_key_sorts")
            _counting(patch, MetricsRegistry, "_get", counts, "registry_lookups")
            _counting(patch, ServerConnection, "spawn", counts, "stream_tasks")
            _counting(patch, AsyncH2Transport, "flush", counts, "transport_flushes")
            decisions = _count_calls(patch, SERVE_MODE_COUNTED)
            tracemalloc.start()
            try:
                before = http2_bytes()
                for _ in range(HITS):
                    response = await asyncio.wait_for(hit(connection), 30)
                    assert (response.status, response.body) == (200, warm.body)
                del response  # the caller's last body is not the engine's to keep
                counts["http2_bytes_retained"] = http2_bytes() - before
            finally:
                tracemalloc.stop()
            counts["serve_mode_decisions"] = len(decisions)
        (session,) = server.sessions()
        counts["streams_left_open"] = len(session.conn.streams) + len(connection.conn.streams)

    async def scenario():
        listener = await server.serve_forever("127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        try:
            with monkeypatch.context() as patch:
                count_connection_tasks(patch)
                _counting(patch, ServerConnection, "spawn", counts, "spawned_tasks")
                connection = await ClientConnection.open(
                    "127.0.0.1", port, H2Connection(Role.CLIENT, gen_ability=False)
                )
                try:
                    await hits(connection)
                finally:
                    await connection.close()
        finally:
            listener.close()
            await listener.wait_closed()

    # Without asyncio's debug mode, which ``-X dev`` turns on: it records
    # each coroutine's origin (sys.set_coroutine_origin_tracking_depth),
    # and a coroutine parked inside repro/http2 would carry that record
    # into the retained bytes.
    asyncio.run(scenario(), debug=False)
    counts["connection_tasks"] -= counts.pop("spawned_tasks")
    per_hit = {name: count / HITS for name, count in counts.items()}
    for level in ("streams_left_open", "connection_tasks"):
        per_hit[level] = counts[level]
    assert counts["registry_lookups"] > 0, "the counting wrappers saw nothing"
    for name, ceiling in MEMO_HIT_CEILINGS.items():
        assert per_hit[name] <= ceiling, f"{name}: {per_hit[name]} per memo hit, ceiling {ceiling}"


#: One cold capable fetch of ``/gallery/harbour`` (six images) over the
#: in-memory pair: the server's model negotiation and the client each
#: parse the page once, each image is generated and encoded once, and the
#: server applies its serving rule once (2 while it decided on the event
#: loop and again in the executor).
GENERATIVE_PAGE_CEILINGS = {
    "html_parses": 2,
    "image_generations": 6,
    "png_encodes": 6,
    "serve_mode_decisions": 1,
}
#: What each row counts: every call of these functions, wherever a
#: ``repro`` module imported them by name.
GENERATIVE_PAGE_COUNTED = {
    "html_parses": ("repro.html.parser", ("parse_html",)),
    "image_generations": ("repro.genai.image", ("generate_image", "generate_image_batch")),
    "png_encodes": ("repro.media.png", ("encode_png",)),
    **SERVE_MODE_COUNTED,
}


def _count_calls(monkeypatch, counted: dict) -> list[str]:
    """Count every call of ``counted``'s functions, wherever a ``repro``
    module imported them by name; returns the list the calls append to."""
    calls: list[str] = []  # appended from the encode pool's threads too
    for key, (module_name, names) in counted.items():
        for name in names:
            original = getattr(sys.modules[module_name], name)

            def counter(*args, _key=key, _original=original, **kwargs):
                calls.append(_key)
                return _original(*args, **kwargs)

            for module in list(sys.modules.values()):
                if module is not None and module.__name__.startswith("repro"):
                    if getattr(module, name, None) is original:
                        monkeypatch.setattr(module, name, counter)
    return calls


def test_cold_generative_page_costs_no_more_than_it_did(monkeypatch):
    page = build_harbour_gallery()
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html))
    server = GenerativeServer(store)
    client = GenerativeClient(device=LAPTOP)
    pair = connect_in_memory(client, server)
    calls = _count_calls(monkeypatch, GENERATIVE_PAGE_COUNTED)
    result = client.fetch_via_pair(pair, page.path)
    assert result.status == 200 and result.report.generated_images == 6
    counts = Counter(calls)
    for name, ceiling in GENERATIVE_PAGE_CEILINGS.items():
        assert counts[name] <= ceiling, f"{name}: {counts[name]} per cold page, ceiling {ceiling}"
    assert counts["png_encodes"] == 6, "the counting wrappers missed the encodes"


#: One naive load of ``/wiki/search/landscape`` over the in-memory pair,
#: settings exchange included: the page, then its 49 thumbnails (1.4 MB)
#: as concurrent streams on the same connection, both ends counted.
TRADITIONAL_PAGE_CEILINGS = {
    # Socket writes asked for, both ends. Most are credit: the client
    # returns window per DATA frame, and the server's turn that reads it
    # sends what the window now allows (ROADMAP item 2 targets ≤ 30).
    "transport_flushes": 64,
    "frames_serialised": 304,
    # One header block per request and one per response.
    "hpack_encodes": 100,
    # The page's only: stored thumbnails are answered without the rule.
    "serve_mode_decisions": 1,
}


def test_traditional_page_costs_no_more_than_it_did(monkeypatch):
    page = build_wikimedia_landscape_page()
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    populate_traditional_assets(store, page)
    thumbs = sorted(path for path in store.assets if path.startswith("/thumbs/"))
    assert len(thumbs) == 49
    counts = dict.fromkeys(TRADITIONAL_PAGE_CEILINGS, 0)
    client = GenerativeClient(device=LAPTOP, gen_ability=False)

    async def load(connection):
        responses = [await connection.request("GET", page.path)]
        responses += await asyncio.gather(*(connection.request("GET", path) for path in thumbs))
        return responses

    with monkeypatch.context() as patch:
        _counting(patch, AsyncH2Transport, "flush", counts, "transport_flushes")
        _counting(patch, Frame, "serialize", counts, "frames_serialised")
        _counting(patch, HpackEncoder, "encode", counts, "hpack_encodes")
        decisions = _count_calls(patch, SERVE_MODE_COUNTED)
        pair = connect_in_memory(client, GenerativeServer(store))
        responses = pair.run(load(pair.client))
        counts["serve_mode_decisions"] = len(decisions)
    pair.close()
    assert [response.status for response in responses] == [200] * 50
    assert sum(len(response.body) for response in responses[1:]) > 1_300_000
    for name, ceiling in TRADITIONAL_PAGE_CEILINGS.items():
        assert counts[name] <= ceiling, f"{name}: {counts[name]} per traditional page, ceiling {ceiling}"


#: One ``BatchingEngine`` batch of four distinct prompts: one batched
#: kernel call that renders each item itself (it must not go through the
#: public solo name, or ``genai.image.generate`` counts every item twice)
#: and one PNG encode per image.
ENGINE_BATCH_CEILINGS = {
    "batch_generations": 1,
    "solo_generations": 0,
    "png_encodes": 4,
}
ENGINE_BATCH_COUNTED = {
    "batch_generations": ("repro.genai.image", ("generate_image_batch",)),
    "solo_generations": ("repro.genai.image", ("generate_image",)),
    "png_encodes": ("repro.media.png", ("encode_png",)),
}


def test_engine_batch_costs_no_more_than_it_did(monkeypatch):
    model = get_image_model("sd-3-medium")
    prompts = ["alpha ridge", "beta cove", "gamma steppe", "delta falls"]
    calls = _count_calls(monkeypatch, ENGINE_BATCH_COUNTED)
    # The window closes as soon as the fourth request is admitted.
    with BatchingEngine(LAPTOP, max_batch=len(prompts), max_wait_s=30) as engine:
        futures = [engine.submit_image(model, prompt, 64, 64) for prompt in prompts]
        results = [future.result(timeout=30) for future in futures]
        for result in results:
            result.png_bytes()
    assert {future.batch_size for future in futures} == {len(prompts)}
    counts = Counter(calls)
    for name, ceiling in ENGINE_BATCH_CEILINGS.items():
        assert counts[name] <= ceiling, f"{name}: {counts[name]} per batch of 4, ceiling {ceiling}"
    assert counts["batch_generations"] == 1, "the counting wrappers missed the batch"


#: One first touch (lookup → ``lead``, then ``insert``) and one hit of a
#: 192² uniform-page PNG (30 477 B) through ``RemoteGenerationCache``,
#: against an in-process tier on the test's loop, the facade's calls made
#: from an executor thread as a worker's materialisation makes them.
TIER_CEILINGS = {
    # 1 while each facade ran its own client thread and event loop.
    "threads_started": 0,
    "first_touch_exchanges": 2,
    "hit_exchanges": 1,
    # Bodies: the PNG itself. 40 725 B each while a generation travelled
    # as base64 inside a JSON envelope.
    "publish_body_bytes": 30477,
    "hit_body_bytes": 30477,
}


class _Key:
    digest = "uniform-00"


def test_tier_first_touch_and_hit_cost_no_more_than_they_did(monkeypatch):
    prompt = build_uniform_pages(3)[0].prompts[0]
    image = generate_image(get_image_model("sd-3-medium"), WORKSTATION, prompt, 192, 192)
    payload = image.png_bytes()
    counts = dict.fromkeys(TIER_CEILINGS, 0)
    exchanges: list[tuple[str, int, int]] = []  # (method, request body, response body)
    tier = CacheTierServer()
    handle = tier.handle

    async def counted(request):
        response = await handle(request)
        exchanges.append((request.method, len(request.body), len(response.body)))
        return response

    tier.handle = counted

    def worker(facade):
        assert facade.lookup(_Key) is None
        assert facade.insert(_Key, payload, "", image.sim_time_s, image.energy_wh)
        counts["first_touch_exchanges"] = len(exchanges)
        hit = facade.lookup(_Key)
        counts["hit_exchanges"] = len(exchanges) - counts["first_touch_exchanges"]
        assert hit is not None and hit.payload == payload
        facade.close()

    async def scenario():
        server = await tier.server().serve(host="127.0.0.1", port=0)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, lambda: None)  # the pool's thread is the harness's
        try:
            with monkeypatch.context() as patch:
                _counting(patch, threading.Thread, "start", counts, "threads_started")
                facade = RemoteGenerationCache("127.0.0.1", server.sockets[0].getsockname()[1])
                await loop.run_in_executor(None, worker, facade)
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())
    (put,) = [exchange for exchange in exchanges if exchange[0] == "PUT"]
    counts["publish_body_bytes"] = put[1]
    counts["hit_body_bytes"] = exchanges[-1][2]
    assert tier.cache.stats.misses == 1 and tier.cache.stats.hits == 1
    for name, ceiling in TIER_CEILINGS.items():
        assert counts[name] <= ceiling, f"{name}: {counts[name]} per tier op, ceiling {ceiling}"
    assert counts["hit_body_bytes"] == len(payload), "the counting wrapper missed the hit"
