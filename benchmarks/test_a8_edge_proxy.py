"""A8 ablation — the §2.2 edge proxy at the protocol level.

E12 modelled the CDN economics with byte accounting; this ablation runs
the actual component: an edge proxy that is an SWW client upstream (pulls
and caches prompt-form pages from the origin over an in-memory HTTP/2
pair) and a server downstream (forwards prompts to capable clients,
generates for naive ones; requests reach it as direct
``handle_request`` calls, not over HTTP/2). The
§2.2 claim shows up as real traffic: prompt-sized upstream/storage
unconditionally, media-sized last-hop egress only when the client is
naive.
"""

from _shared import print_table, within

from repro.devices import WORKSTATION
from repro.sww.proxy import SwwEdgeProxy, build_origin
from repro.workloads import build_travel_blog, build_wikimedia_landscape_page


def run_proxy_day():
    pages = [build_wikimedia_landscape_page(count=12), build_travel_blog()]
    origin = build_origin(pages)
    proxy = SwwEdgeProxy(origin, device=WORKSTATION)
    # A request mix: capable and naive clients interleaved, with repeats.
    requests = [
        ("/wiki/search/landscape", True),
        ("/wiki/search/landscape", False),
        ("/blog/ridgeline-hike", True),
        ("/wiki/search/landscape", True),
        ("/blog/ridgeline-hike", False),
        ("/wiki/search/landscape", False),
    ]
    naive_asset_bytes = 0
    for path, capable in requests:
        response = proxy.handle_request(path, capable)
        assert response.status == 200
    # Naive clients then pull the generated media from the proxy.
    for asset_path in list(proxy.server.store.assets):
        naive_asset_bytes += len(proxy.handle_request(asset_path, False).body)
    media_total = sum(p.account.original_media for p in pages)
    return proxy, naive_asset_bytes, media_total


def test_a8_edge_proxy(benchmark):
    proxy, naive_asset_bytes, media_total = benchmark.pedantic(run_proxy_day, rounds=1, iterations=1)
    stats = proxy.stats

    print_table(
        "A8 / §2.2: the edge proxy, upstream over in-memory HTTP/2 (2 pages, 6 requests)",
        ["metric", "value"],
        [
            ["upstream bytes (origin -> edge)", f"{stats.upstream_bytes:,} B (prompts only)"],
            ["edge prompt cache", f"{stats.prompt_cache_bytes:,} B"],
            ["equivalent media at the edge", f"{media_total:,} B"],
            ["storage advantage", f"{media_total / stats.prompt_cache_bytes:.0f}x"],
            ["prompt-cache hit rate", f"{stats.hit_rate:.0%}"],
            ["edge generations (naive clients)", stats.generations],
            ["edge generation time/energy", f"{stats.generation_s:.1f} s / {stats.generation_wh:.2f} Wh"],
            ["naive-client media egress", f"{naive_asset_bytes:,} B"],
        ],
    )

    # Upstream and storage are prompt-scale.
    assert stats.upstream_bytes < media_total / 10
    within(media_total / stats.prompt_cache_bytes, 20, 300, "storage advantage")
    # Repeats hit the cache.
    assert stats.hit_rate > 0.5
    # Generation happened once per page despite repeated naive requests.
    assert stats.generations == 12 + 4
    # The naive last hop is media-scale: the §2.2 "loses data transmission
    # benefits" half of the claim.
    assert naive_asset_bytes > 10 * stats.prompt_cache_bytes
