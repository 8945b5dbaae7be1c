"""One request path, two transports: every corpus page fetched over the
in-memory pair and over loopback TCP comes back byte for byte the same —
status, page body and every asset, pushed or generated — for capable and
naive clients, with server push on and off.

Every client and server here shares one generation cache, so the module
pays for each distinct item once; what differs between the two fetches of
a case is only what crossed the transport.
"""

import asyncio
import hashlib
from functools import cache

import pytest

from repro.devices import LAPTOP
from repro.gencache import GenerationCache
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.workloads.corpus import (
    build_harbour_gallery,
    build_news_article,
    build_travel_blog,
    build_wikimedia_landscape_page,
    populate_traditional_assets,
)

CORPUS = {
    "wikimedia": build_wikimedia_landscape_page,
    "travel-blog": build_travel_blog,
    "news": build_news_article,
    "gallery": build_harbour_gallery,
}

GENCACHE = GenerationCache()


@cache
def _page(name: str):
    return CORPUS[name]()


def _server(name: str, push: bool) -> GenerativeServer:
    page = _page(name)
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    populate_traditional_assets(store, page)
    return GenerativeServer(store, push_assets=push, gencache=GENCACHE)


def _digest(result) -> tuple:
    assets = dict(result.pushed_assets)
    if result.report is not None:
        assets.update(result.report.assets)
    return (
        result.status,
        hashlib.sha256(result.received_html.encode("utf-8")).hexdigest(),
        {path: hashlib.sha256(data).hexdigest() for path, data in sorted(assets.items())},
    )


@pytest.mark.parametrize("push", [False, True], ids=["no-push", "push"])
@pytest.mark.parametrize("capable", [True, False], ids=["capable", "naive"])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_memory_pair_and_tcp_fetch_the_same_bytes(name, capable, push):
    path = _page(name).path
    client = GenerativeClient(device=LAPTOP, gen_ability=capable, gencache=GENCACHE)
    memory = client.fetch_via_pair(connect_in_memory(client, _server(name, push)), path)

    async def over_tcp():
        listener = await _server(name, push).serve_forever("127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        try:
            return await asyncio.wait_for(client.fetch_tcp("127.0.0.1", port, path), 60)
        finally:
            listener.close()
            await listener.wait_closed()

    tcp = asyncio.run(over_tcp())
    assert (memory.status, memory.sww_mode) == (200, capable)
    if not push:
        assert memory.pushed_assets == {}
    assert _digest(tcp) == _digest(memory)
