"""Cross-layer integration: clients and the server fallback share one
content-addressed cache; a prompt-mode CDN edge regenerates per request."""

from repro.cdn.edge import CatalogItem, EdgeNode, OriginCatalog
from repro.devices import LAPTOP, WORKSTATION
from repro.gencache import GenerationCache
from repro.media.jpeg_model import jpeg_size
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.workloads import build_news_article, build_travel_blog


def _serve(page, client):
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    server = GenerativeServer(store)
    return client.fetch_via_pair(connect_in_memory(client, server), page.path)


def test_client_warm_refetch_hits_everything():
    page = build_travel_blog()
    cache = GenerationCache()
    client = GenerativeClient(device=LAPTOP, gencache=cache)
    cold = _serve(page, client)
    warm = _serve(page, client)
    assert cold.report is not None and cold.report.cache_hits == 0
    assert warm.report is not None
    assert warm.report.cache_hits == warm.report.generated_total > 0
    assert warm.generation_time_s < cold.generation_time_s
    # The saved time equals (within lookup cost) what the cold run paid.
    assert cache.stats.saved_sim_seconds > 0.9 * cold.generation_time_s


def test_cache_shared_across_clients():
    page = build_news_article()
    cache = GenerationCache()
    first = GenerativeClient(device=LAPTOP, gencache=cache)
    second = GenerativeClient(device=LAPTOP, gencache=cache)
    _serve(page, first)
    warm = _serve(page, second)
    assert warm.report is not None and warm.report.cache_hits == warm.report.generated_total


def test_server_fallback_path_consults_the_shared_cache():
    page = build_news_article()
    cache = GenerationCache()
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    server = GenerativeServer(store, gencache=cache)
    # A capable client fills the cache...
    capable = GenerativeClient(device=WORKSTATION, gencache=cache)
    capable.fetch_via_pair(connect_in_memory(capable, server), page.path)
    hits_before = cache.stats.hits
    # ...and the server's materialisation for a naive client reuses it.
    naive = GenerativeClient(device=LAPTOP, gen_ability=False)
    result = naive.fetch_via_pair(connect_in_memory(naive, server), page.path)
    assert result.status == 200
    assert cache.stats.hits > hits_before


def _catalog():
    catalog = OriginCatalog()
    for i in range(3):
        catalog.add(
            CatalogItem(
                key=f"/media/scene-{i}.jpg",
                prompt=f"a mountain scene number {i}",
                width=256,
                height=256,
                media_bytes=jpeg_size(256, 256),
            )
        )
    return catalog


def test_edge_without_gencache_regenerates_every_request():
    edge = EdgeNode(_catalog(), cache_capacity_bytes=1 << 20, mode="prompt")
    first = edge.serve("/media/scene-0.jpg")
    second = edge.serve("/media/scene-0.jpg")
    assert first.generation_time_s == second.generation_time_s > 0.5
    # Egress stays media-sized (§2.2: no transmission benefit).
    assert second.egress_bytes == first.egress_bytes == jpeg_size(256, 256)
