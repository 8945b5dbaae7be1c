"""Tests for the multi-site corpus and adoption model (§4.2)."""

import pytest

from repro.metrics.compression import WORST_CASE_IMAGE_METADATA, prompt_metadata_size
from repro.workloads.corpus import landscape_prompts
from repro.workloads.websites import TEMPLATE_PROFILES, SyntheticPage, adoption_sweep, build_web_corpus


def generatable_bytes(page: SyntheticPage) -> int:
    return sum(size for size, generatable in page.media_items + page.text_items if generatable)


@pytest.fixture(scope="module")
def corpus():
    return build_web_corpus(sites=30, seed="test")


class TestCorpus:
    def test_site_count(self, corpus):
        assert len(corpus) == 30

    def test_deterministic(self):
        a = build_web_corpus(10, "same")
        b = build_web_corpus(10, "same")
        assert [(s.name, s.total_bytes) for s in a] == [(s.name, s.total_bytes) for s in b]

    def test_templates_from_profile_set(self, corpus):
        assert {site.template for site in corpus} <= set(TEMPLATE_PROFILES)

    def test_pages_within_template_bounds(self, corpus):
        for site in corpus:
            low, high = TEMPLATE_PROFILES[site.template]["pages"]
            assert low <= len(site.pages) <= high

    def test_news_sites_mostly_unique(self, corpus):
        news = [s for s in corpus if s.template == "news"]
        galleries = [s for s in corpus if s.template == "gallery"]
        if news and galleries:
            news_frac = sum(generatable_bytes(s.pages[0]) for s in news) / sum(
                s.pages[0].total_bytes for s in news
            )
            gallery_frac = sum(generatable_bytes(s.pages[0]) for s in galleries) / sum(
                s.pages[0].total_bytes for s in galleries
            )
            assert gallery_frac > news_frac

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            build_web_corpus(0)


class TestPageModel:
    def test_converted_smaller_than_original(self, corpus):
        for site in corpus[:5]:
            for page in site.pages[:3]:
                assert page.converted_bytes() <= page.total_bytes

    def test_conversion_only_touches_generatable(self, corpus):
        page = corpus[0].pages[0]
        unique_bytes = page.total_bytes - generatable_bytes(page)
        assert page.converted_bytes() >= unique_bytes


class TestAdoptionSweep:
    def test_storage_saving_monotone_in_adoption(self, corpus):
        snapshots = adoption_sweep(corpus, [0.0, 0.25, 0.5, 0.75, 1.0])
        savings = [snap.storage_saving for snap in snapshots]
        assert savings[0] == pytest.approx(1.0)
        assert savings == sorted(savings)
        # Full adoption saves substantially — but far less than the
        # per-page 157x, because news-class unique content dominates the
        # corpus (the paper's "significant unique content" caveat).
        assert savings[-1] > 1.5

    def test_traffic_saving_monotone(self, corpus):
        snapshots = adoption_sweep(corpus, [0.0, 0.5, 1.0])
        traffic = [snap.traffic_saving for snap in snapshots]
        assert traffic == sorted(traffic)

    def test_early_adopters_convert_more_efficiently(self, corpus):
        """Static/gallery sites convert first; their per-byte conversion
        efficiency (relative shrink per site) beats the news tail's."""
        from repro.workloads.websites import conversion_order

        order = conversion_order(corpus)
        half = len(order) // 2

        def mean_shrink(sites):
            ratios = [site.total_bytes / max(1, sum(p.converted_bytes() for p in site.pages)) for site in sites]
            return sum(ratios) / len(ratios)

        assert mean_shrink(order[:half]) > mean_shrink(order[half:])

    def test_snapshot_counters(self, corpus):
        (snap,) = adoption_sweep(corpus, [0.5])
        assert snap.converted_sites == round(0.5 * len(corpus))
        assert snap.adoption_rate == pytest.approx(0.5)

    def test_invalid_stage_rejected(self, corpus):
        with pytest.raises(ValueError):
            adoption_sweep(corpus, [1.2])


class TestMetadataAnchor:
    def test_typical_metadata_prompt_scale(self):
        prompt = landscape_prompts(1, "meta")[0]
        size = prompt_metadata_size({"prompt": prompt, "name": "image", "width": 512, "height": 512})
        assert 150 < size < WORST_CASE_IMAGE_METADATA  # between measured average and worst case
