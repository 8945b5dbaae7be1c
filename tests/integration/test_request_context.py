"""A request's spans and wide event follow its asyncio task over real
loopback TCP: concurrent fetches from one client process keep one trace
each, and the server's request-latency exemplar is the trace of the
request it timed."""

import asyncio
import contextlib

import pytest

from repro.http2.connection import H2Connection, Role
from repro.http2.endpoint import ClientConnection
from repro.obs import EventLog, MetricsRegistry, TraceContext, Tracer
from repro.obs.propagation import TRACEPARENT_HEADER, encode_traceparent
from repro.sww.client import GenerativeClient
from repro.sww.server import AssetResource, GenerativeServer, PageResource, SiteStore
from repro.workloads.corpus import build_uniform_pages

ASSET = "/photos/stored.jpg"


def _store() -> tuple[SiteStore, str]:
    (page,) = build_uniform_pages(1, side=32)
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html))
    store.add_asset(AssetResource(ASSET, b"\xff\xd8" + b"stored" * 100, "image/jpeg"))
    return store, page.path


@contextlib.asynccontextmanager
async def _listening(server: GenerativeServer):
    listener = await server.serve_forever("127.0.0.1", 0)
    try:
        yield listener.sockets[0].getsockname()[1]
    finally:
        listener.close()
        await listener.wait_closed()


def test_interleaved_fetches_keep_one_tree_each():
    """Two ``fetch_tcp`` calls gathered on one loop with one live tracer:
    each is its own ``client.fetch`` tree, nothing is left open, and later
    fetches are recorded as new roots."""
    store, path = _store()
    tracer = Tracer()
    client = GenerativeClient(gen_ability=False, tracer=tracer)

    async def scenario():
        async with _listening(GenerativeServer(store)) as port:
            await asyncio.wait_for(
                asyncio.gather(client.fetch_tcp("127.0.0.1", port, path), client.fetch_tcp("127.0.0.1", port, path)),
                30,
            )
            left_open = tracer.current
            for _ in range(5):
                await asyncio.wait_for(client.fetch_tcp("127.0.0.1", port, path), 30)
            return left_open

    assert asyncio.run(scenario()) is None
    roots = tracer.roots()
    assert [root.name for root in roots] == ["client.fetch"] * 7
    assert len({root.trace_id for root in roots}) == 7
    for root in roots:
        assert [child.name for child in root.children] == ["client.connect", "client.negotiate", "client.request"]
        assert all(span.trace_id == root.trace_id for _, span in root.walk())


@pytest.mark.parametrize("target", [ASSET, "page"], ids=["on-loop", "executor"])
@pytest.mark.parametrize("sampled", [True, False], ids=["sampled", "unsampled"])
def test_request_latency_exemplar_is_the_requests_trace(target, sampled):
    """``sww_request_seconds`` carries the trace of the ``server.request``
    span it timed, on either route; an unsampled request records neither."""
    store, path = _store()
    registry, tracer, events = MetricsRegistry(), Tracer(), EventLog()
    server = GenerativeServer(store, registry=registry, tracer=tracer, events=events)
    context = TraceContext(trace_id="ab" * 16, span_id="cd" * 8, sampled=sampled)
    headers = [(TRACEPARENT_HEADER, encode_traceparent(context))]
    target = path if target == "page" else target

    async def scenario():
        async with _listening(server) as port:
            connection = await ClientConnection.open("127.0.0.1", port, H2Connection(Role.CLIENT, gen_ability=False))
            try:
                await connection.settled()
                return await asyncio.wait_for(connection.request("GET", target, headers), 30)
            finally:
                await connection.close()

    assert asyncio.run(scenario()).status == 200
    exemplars = [
        trace_id
        for name, _kind, _help, instruments in registry.collect()
        if name == "sww_request_seconds"
        for inst in instruments
        for _bound, trace_id, _value in inst.exemplars()
    ]
    (event,) = events.events()
    assert event.fields["trace_id"] == context.trace_id
    if not sampled:
        assert exemplars == [] and tracer.roots() == []
        return
    (root,) = tracer.roots()
    assert root.name == "server.request" and root.remote_parent == context
    assert exemplars == [root.trace_id]
