"""Byte-identity: the cache must never change what a page contains.

The simulators derive their default seed from the generation inputs, so
the same ``(model, prompt, seed, steps, resolution)`` always produces the
same PNG. These tests pin the property end to end: through the cache
(hits) and around it (no cache). A client with a cache writes what the
cache keeps, ``encode_png(pixels)``; one without writes its images stored,
so across the two the pixels are what must agree.
"""

import numpy as np

from repro.devices import LAPTOP
from repro.gencache import GenerationCache
from repro.media.png import decode_png
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.workloads import build_travel_blog


def _fetch(client, page):
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    server = GenerativeServer(store)
    return client.fetch_via_pair(connect_in_memory(client, server), page.path)


def _assets_and_html(result):
    assert result.report is not None
    return dict(result.report.assets), result.rendered


def test_cache_hit_bytes_identical_to_regeneration():
    page = build_travel_blog()
    # Around the cache: two independent no-cache clients agree.
    baseline, baseline_html = _assets_and_html(_fetch(GenerativeClient(device=LAPTOP), page))
    again, _ = _assets_and_html(_fetch(GenerativeClient(device=LAPTOP), page))
    assert baseline == again

    # Through the cache: a warm re-fetch serves the same bytes from hits
    # as the cold fetch that generated them, and the no-cache pixels.
    cached_client = GenerativeClient(device=LAPTOP, gencache=GenerationCache())
    cold, _ = _assets_and_html(_fetch(cached_client, page))
    warm = _fetch(cached_client, page)
    warm_assets, warm_html = _assets_and_html(warm)
    assert warm.report.cache_hits == warm.report.generated_total
    assert warm_assets == cold
    assert warm_assets.keys() == baseline.keys()
    for path, payload in warm_assets.items():
        assert np.array_equal(decode_png(payload), decode_png(baseline[path])), path
    assert warm_html == baseline_html


def test_gencache_off_is_seed_identical():
    """No cache object (the constructor default) means the exact cold path."""
    page = build_travel_blog()
    off = GenerativeClient(device=LAPTOP, gencache=None)
    first = _fetch(off, page)
    second = _fetch(off, page)
    # No memoisation between fetches: both pay full cost, bytes agree.
    assert first.generation_time_s == second.generation_time_s
    assert first.report.cache_hits == second.report.cache_hits == 0
    assert _assets_and_html(first) == _assets_and_html(second)
