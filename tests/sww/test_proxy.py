"""Tests for the SWW edge proxy (§2.2 at the protocol level)."""

import pytest

from repro.devices import WORKSTATION
from repro.sww.proxy import SwwEdgeProxy, build_origin
from repro.workloads import build_travel_blog, build_wikimedia_landscape_page


@pytest.fixture
def proxy() -> SwwEdgeProxy:
    pages = [build_travel_blog(), build_wikimedia_landscape_page(count=6)]
    return SwwEdgeProxy(build_origin(pages), device=WORKSTATION)


class TestUpstream:
    def test_prompts_fetched_and_cached(self, proxy):
        first = proxy.handle_request("/blog/ridgeline-hike", client_gen_ability=True)
        assert first.status == 200
        assert proxy.stats.misses == 1
        proxy.handle_request("/blog/ridgeline-hike", client_gen_ability=True)
        assert proxy.stats.hits == 1
        # One upstream fetch only: the cache absorbed the repeat.
        assert proxy.stats.upstream_bytes == len(first.body)

    def test_cache_is_prompt_sized(self, proxy):
        proxy.handle_request("/wiki/search/landscape", client_gen_ability=True)
        page = build_wikimedia_landscape_page(count=6)
        assert proxy.stats.prompt_cache_bytes < page.account.original_media / 10

    def test_unknown_path_404(self, proxy):
        assert proxy.handle_request("/missing", True).status == 404


class TestDownstreamCapable:
    def test_prompts_forwarded_verbatim(self, proxy):
        response = proxy.handle_request("/blog/ridgeline-hike", client_gen_ability=True)
        assert (b"x-sww-content", b"prompts") in response.headers
        assert b"generated-content" in response.body
        assert proxy.stats.generations == 0  # nothing generated at the edge


class TestDownstreamNaive:
    def test_edge_generates_and_serves_media_form(self, proxy):
        response = proxy.handle_request("/blog/ridgeline-hike", client_gen_ability=False)
        assert response.status == 200
        assert b"generated-content" not in response.body
        assert b"/generated/" in response.body
        assert proxy.stats.generations == 4  # 3 images + 1 text
        assert proxy.stats.generation_s > 0

    def test_generated_assets_servable(self, proxy):
        proxy.handle_request("/blog/ridgeline-hike", client_gen_ability=False)
        asset_paths = list(proxy.server.store.assets)
        assert asset_paths
        asset = proxy.handle_request(asset_paths[0], client_gen_ability=False)
        assert asset.status == 200
        assert asset.body.startswith(b"\x89PNG")

    def test_materialisation_cached(self, proxy):
        proxy.handle_request("/blog/ridgeline-hike", client_gen_ability=False)
        first_time = proxy.stats.generation_s
        proxy.handle_request("/blog/ridgeline-hike", client_gen_ability=False)
        assert proxy.stats.generation_s == first_time  # no regeneration

    def test_mixed_clients_share_prompt_cache(self, proxy):
        proxy.handle_request("/blog/ridgeline-hike", client_gen_ability=True)
        proxy.handle_request("/blog/ridgeline-hike", client_gen_ability=False)
        # One upstream miss total: the naive path reused the cached prompts.
        assert proxy.stats.misses == 1


class TestSection22Economics:
    def test_storage_benefit_kept_transmission_lost(self, proxy):
        """§2.2: prompts at the edge; naive egress is media-scale."""
        capable = proxy.handle_request("/wiki/search/landscape", client_gen_ability=True)
        naive = proxy.handle_request("/wiki/search/landscape", client_gen_ability=False)
        # Edge storage: prompt-sized. Upstream traffic: prompt-sized.
        assert proxy.stats.prompt_cache_bytes < 10 * len(capable.body)
        assert proxy.stats.upstream_bytes < 50_000
        # Naive downstream page references media the client must now pull
        # from the proxy — the transmission benefit is gone on that hop.
        assert b"/generated/" in naive.body
        total_media = sum(len(asset.data) for asset in proxy.server.store.assets.values())
        assert total_media > 20 * proxy.stats.prompt_cache_bytes
