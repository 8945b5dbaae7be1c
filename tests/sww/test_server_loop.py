"""Who runs where on the asyncio serving path, over real loopback and
without a clock: answers already in memory are served on the event loop,
anything that generates goes to the executor, and the two routes leave the
same bytes, wide events and spans behind."""

import asyncio
import contextlib
import dataclasses
import threading

from repro.http2.connection import H2Connection, Role
from repro.http2.endpoint import ClientConnection
from repro.obs import EventLog, MetricsRegistry, TraceContext, Tracer
from repro.obs.propagation import TRACEPARENT_HEADER, encode_traceparent
from repro.sww.server import AssetResource, GenerativeServer, PageResource, SiteStore
from repro.workloads.corpus import build_uniform_pages

ASSET = "/photos/stored.jpg"
ASSET_BYTES = b"\xff\xd8" + b"stored" * 400


def _store() -> tuple[SiteStore, str, str]:
    page_a, page_b = build_uniform_pages(2, side=32)
    store = SiteStore()
    store.add_page(PageResource(page_a.path, page_a.sww_html))
    store.add_page(PageResource(page_b.path, page_b.sww_html))
    store.add_asset(AssetResource(ASSET, ASSET_BYTES, "image/jpeg"))
    return store, page_a.path, page_b.path


@contextlib.asynccontextmanager
async def _listening(server: GenerativeServer):
    listener = await server.serve_forever("127.0.0.1", 0)
    try:
        yield listener.sockets[0].getsockname()[1]
    finally:
        listener.close()
        await listener.wait_closed()


@contextlib.asynccontextmanager
async def _naive_connection(port: int):
    connection = await ClientConnection.open(
        "127.0.0.1", port, H2Connection(Role.CLIENT, gen_ability=False)
    )
    try:
        await connection.settled()
        yield connection
    finally:
        await connection.close()


@contextlib.contextmanager
def _executor_calls(loop: asyncio.AbstractEventLoop):
    """Every ``loop.run_in_executor`` call made inside the block."""
    calls = []
    original = loop.run_in_executor

    def counting(executor, func, *args):
        calls.append(getattr(func, "__name__", repr(func)))
        return original(executor, func, *args)

    loop.run_in_executor = counting
    try:
        yield calls
    finally:
        del loop.run_in_executor


def test_warm_answers_make_no_executor_call_and_start_no_thread():
    store, _page_a, page_b = _store()
    server = GenerativeServer(store)
    warm = server.handle_request(page_b, client_gen_ability=False)
    (generated_path, generated_png), = warm.generated_assets.items()

    async def scenario():
        async with _listening(server) as port, _naive_connection(port) as connection:
            threads = threading.active_count()
            with _executor_calls(asyncio.get_running_loop()) as calls:
                for _ in range(25):
                    hits = await asyncio.wait_for(
                        asyncio.gather(*(connection.request("GET", page_b) for _ in range(8))), 30
                    )
                    assert {(hit.status, hit.body) for hit in hits} == {(200, warm.body)}
                for path, body in ((ASSET, ASSET_BYTES), (generated_path, generated_png)) * 5:
                    response = await asyncio.wait_for(connection.request("GET", path), 30)
                    assert (response.status, response.body) == (200, body)
                missing = await asyncio.wait_for(connection.request("GET", "/nope"), 30)
                assert missing.status == 404
                assert calls == []
            assert threading.active_count() == threads

    asyncio.run(scenario())


def test_admin_routes_and_unmemoised_pages_still_take_the_executor():
    from repro.serving.h2util import MiniH2Server
    from repro.sww.admin import AdminPlane, admin_fetch

    store, page_a, _page_b = _store()
    registry = MetricsRegistry()
    server = GenerativeServer(store, registry=registry, memoise_pages=False)
    server.handle_request(page_a, client_gen_ability=False)
    plane = AdminPlane(registry, server=server)

    async def scenario():
        admin_listener = await MiniH2Server(plane.handle).serve()
        admin_port = admin_listener.sockets[0].getsockname()[1]
        async with admin_listener, _listening(server) as port, _naive_connection(port) as connection:
            with _executor_calls(asyncio.get_running_loop()) as calls:
                status, _body = await asyncio.wait_for(admin_fetch("127.0.0.1", admin_port, "/healthz"), 30)
                assert status == 200
                # Materialised before, but with no page memo it generates again.
                again = await asyncio.wait_for(connection.request("GET", page_a), 30)
                assert again.status == 200
            assert calls == ["respond", "_handle"]

    asyncio.run(scenario())


def test_hits_overtake_a_generation_parked_in_the_executor():
    store, page_a, page_b = _store()
    serial = GenerativeServer(_store()[0]).handle_request(page_a, client_gen_ability=False)
    server = GenerativeServer(store)
    warm = server.handle_request(page_b, client_gen_ability=False)
    entered, release = threading.Event(), threading.Event()
    generate = server._materialise_cold

    def parked_cold(page):
        entered.set()
        assert release.wait(timeout=30)
        return generate(page)

    server._materialise_cold = parked_cold

    async def scenario():
        async with _listening(server) as port, _naive_connection(port) as first:
            cold = asyncio.ensure_future(first.request("GET", page_a))
            try:
                await asyncio.get_running_loop().run_in_executor(None, entered.wait, 30)
                async with _naive_connection(port) as second:
                    for connection in (first, second):
                        hit = await asyncio.wait_for(connection.request("GET", page_b), 30)
                        assert (hit.status, hit.body) == (200, warm.body)
                        stored = await asyncio.wait_for(connection.request("GET", ASSET), 30)
                        assert (stored.status, stored.body) == (200, ASSET_BYTES)
                # All of that finished while page A's generation held its thread.
                assert not cold.done()
            finally:
                release.set()
            response = await asyncio.wait_for(cold, 30)
            assert (response.status, response.body) == (200, serial.body)

    asyncio.run(scenario())


def test_exception_on_the_loop_still_answers_500_and_closes_up():
    store, _page_a, page_b = _store()
    events, registry = EventLog(), MetricsRegistry()
    server = GenerativeServer(store, events=events, registry=registry)
    server.handle_request(page_b, client_gen_ability=False)

    def broken_handle(*args, **kwargs):
        raise RuntimeError("failed on the loop")

    server.handle_request = broken_handle

    async def scenario():
        async with _listening(server) as port, _naive_connection(port) as connection:
            with _executor_calls(asyncio.get_running_loop()) as calls:
                response = await asyncio.wait_for(connection.request("GET", page_b), 30)
            assert calls == []
            assert (response.status, response.body) == (500, b"internal server error")

    asyncio.run(scenario())
    (fields,) = [event.to_dict() for event in events.events()]
    assert (fields["status"], fields["error"]) == (500, "RuntimeError")
    assert events.open_count == 0
    assert registry.value("sww_server_inflight_streams", layer="sww", operation="serve") == 0


def test_loop_and_executor_routes_record_the_same_event_and_spans():
    """The route is not observable: the same memo hit, once served on the
    loop and once forced through the executor, leaves equal wide-event
    fields and an equally shaped ``server.request`` fragment, the server's
    one span per stream, rooted at the client's ``traceparent``."""
    store, _page_a, page_b = _store()
    events, tracer = EventLog(), Tracer()
    server = GenerativeServer(store, events=events, tracer=tracer, registry=MetricsRegistry())
    server.handle_request(page_b, client_gen_ability=False)
    tracer.reset()
    context = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
    traceparent = [(TRACEPARENT_HEADER, encode_traceparent(context))]
    routes = []

    async def scenario():
        async with _listening(server) as port, _naive_connection(port) as connection:
            loop = asyncio.get_running_loop()
            with _executor_calls(loop) as calls:
                await asyncio.wait_for(connection.request("GET", page_b, traceparent), 30)
                routes.append(list(calls))
            route = server._route
            server._route = lambda *args: dataclasses.replace(route(*args), answer=None)
            with _executor_calls(loop) as calls:
                await asyncio.wait_for(connection.request("GET", page_b, traceparent), 30)
                routes.append(list(calls))

    asyncio.run(scenario())
    assert routes == [[], ["_handle"]]

    def stable(fields: dict) -> dict:
        timing = {"seq", "stream_id", "duration_s", "writer_queue_s"}
        return {name: value for name, value in fields.items() if name not in timing}

    on_loop, in_executor = (stable(event.to_dict()) for event in events.events()[-2:])
    assert on_loop == in_executor
    assert on_loop["trace_id"] == context.trace_id
    assert on_loop["gencache_outcome"] == "hit"

    def shape(span) -> tuple:
        remote = span.remote_parent.span_id if span.remote_parent is not None else None
        return (span.name, span.trace_id, remote, span.attributes, [shape(c) for c in span.children])

    first, second = (shape(root) for root in tracer.roots())
    assert first == second
    assert first[:3] == ("server.request", context.trace_id, context.span_id)
    assert first[4] == []
