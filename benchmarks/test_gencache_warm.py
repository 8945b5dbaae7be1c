"""Gencache benchmark — warm vs. cold replay of a Zipf multi-user session.

The paper's client regenerates everything on every visit (Table 2 prices
one page at up to ~310 simulated seconds). This benchmark replays the
same skewed request stream twice:

* **cold** — the seed behaviour: no cache, sequential generation, every
  fetch pays full step cost;
* **warm** — the ``repro.gencache`` stack: several users share one
  content-addressed :class:`~repro.gencache.GenerationCache`.

The cold scenario is recorded untouched next to the warm one in
``BENCH_gencache.json`` — warm numbers never replace cold ones
(docs/PERFORMANCE.md). Popularity follows
:func:`repro.workloads.traffic.zipf_requests`, so repeats concentrate on
a few hot pages exactly like real web traffic.
"""

import time

from _shared import print_table, record_bench

from repro.devices import LAPTOP
from repro.gencache import GenerationCache
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.content import GeneratedContent
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.workloads import build_news_article, build_travel_blog
from repro.workloads.corpus import _element_html
from repro.workloads.traffic import zipf_requests

USERS = 3
REQUESTS = 10


def build_gallery_page() -> PageResource:
    """A gallery whose divisions repeat prompts (same artwork, several
    placements) — in-page duplication the cache turns into hits."""
    prompts = [
        "a watercolor of a lighthouse on a basalt headland",
        "a watercolor of a lighthouse on a basalt headland",
        "an ink sketch of fishing boats at low tide",
        "an ink sketch of fishing boats at low tide",
        "a watercolor of a lighthouse on a basalt headland",
        "a linocut print of gulls over a breakwater",
    ]
    divs = [
        _element_html(
            GeneratedContent.image(prompt, name=f"gallery-{i:02d}", width=256, height=256)
        )
        for i, prompt in enumerate(prompts)
    ]
    html = (
        "<!DOCTYPE html><html><head><title>Harbour gallery</title></head>"
        "<body><h1>Harbour gallery</h1>" + "".join(divs) + "</body></html>"
    )
    return PageResource("/gallery/harbour", html)


def build_site() -> SiteStore:
    store = SiteStore()
    store.add_page(build_gallery_page())
    for page in (build_travel_blog(), build_news_article()):
        store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    return store


def run_session(gencache: GenerationCache | None):
    """Replay the Zipf stream with per-user clients; return the totals."""
    store = build_site()
    server = GenerativeServer(store)
    clients = [
        GenerativeClient(device=LAPTOP, gencache=gencache)
        for _ in range(USERS)
    ]
    stream = zipf_requests(sorted(store.pages), REQUESTS, exponent=1.1, seed="gencache-bench")
    sim_s = 0.0
    cache_hits = 0
    coalesced = 0
    start = time.perf_counter()
    for turn, path in enumerate(stream):
        client = clients[turn % USERS]
        result = client.fetch_via_pair(connect_in_memory(client, server), path)
        assert result.status == 200 and result.report is not None
        sim_s += result.generation_time_s
        cache_hits += result.report.cache_hits
        coalesced += result.report.coalesced
    wall_s = time.perf_counter() - start
    return wall_s, sim_s, cache_hits, coalesced


def run_both():
    cold = run_session(gencache=None)
    shared = GenerationCache()
    warm = run_session(gencache=shared)
    return cold, warm, shared


def test_gencache_warm_vs_cold(benchmark):
    (cold, warm, shared) = benchmark.pedantic(run_both, rounds=1, iterations=1)
    cold_wall, cold_sim, cold_hits, cold_coalesced = cold
    warm_wall, warm_sim, warm_hits, warm_coalesced = warm
    stats = shared.stats

    print_table(
        f"Gencache: {REQUESTS}-request Zipf session, {USERS} users, 3 pages",
        ["metric", "cold (seed behaviour)", "warm (shared gencache)"],
        [
            ["wall time", f"{cold_wall:.2f} s", f"{warm_wall:.2f} s"],
            ["simulated generation", f"{cold_sim:.1f} s", f"{warm_sim:.1f} s"],
            ["cache hits", cold_hits, warm_hits],
            ["in-flight coalesced", cold_coalesced, warm_coalesced],
            ["hit rate", "-", f"{stats.hit_rate:.0%}"],
            ["saved simulated time", "-", f"{stats.saved_sim_seconds:.1f} s"],
            ["store bytes", "-", f"{shared.used_bytes:,} B"],
        ],
    )

    # The cold scenario must behave exactly like the seed: no cache
    # involvement at all.
    assert cold_hits == 0 and cold_coalesced == 0
    # Warm strictly beats cold on both clocks, with real cache traffic.
    assert warm_sim < cold_sim
    assert warm_wall < cold_wall
    assert stats.hit_rate > 0
    # Repeat requests for the hot pages dominate the Zipf stream, so most
    # generations should be answered from the shared store.
    assert warm_hits + warm_coalesced > REQUESTS

    record_bench(
        "gencache",
        "cold",
        generation_sim_s=round(cold_sim, 3),
        cache_hits=cold_hits,
        coalesced=cold_coalesced,
    )
    record_bench(
        "gencache",
        "warm",
        generation_sim_s=round(warm_sim, 3),
        cache_hits=warm_hits,
        coalesced=warm_coalesced,
        hit_rate=round(stats.hit_rate, 4),
        saved_sim_s=round(stats.saved_sim_seconds, 3),
        store_bytes=shared.used_bytes,
    )
