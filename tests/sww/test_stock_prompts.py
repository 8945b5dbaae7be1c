"""Tests for the stock-prompt library (§7)."""

import pytest

from repro.sww.stock_prompts import StockPrompt, StockPromptLibrary
from repro.workloads.corpus import landscape_prompts


@pytest.fixture
def library() -> StockPromptLibrary:
    lib = StockPromptLibrary()
    lib.add(StockPrompt("p1", "a snowcapped mountain range above a turquoise alpine lake"))
    lib.add(StockPrompt("p2", "a golden prairie under a wide open autumn sky"))
    lib.add(StockPrompt("p3", "a busy food market with steaming noodle stalls at night"))
    return lib


class TestCatalog:
    def test_add_and_get(self, library):
        assert library.get("p1").prompt.startswith("a snowcapped")
        assert len(library) == 3

    def test_duplicate_id_rejected(self, library):
        with pytest.raises(ValueError):
            library.add(StockPrompt("p1", "anything else"))

    def test_near_duplicate_content_rejected(self, library):
        added = library.add(
            StockPrompt("p4", "a snowcapped mountain range above a turquoise alpine lake view")
        )
        assert not added
        assert library.rejected_duplicates == 1
        assert len(library) == 3

    def test_distinct_content_accepted(self, library):
        assert library.add(StockPrompt("p5", "an underwater coral reef teeming with parrotfish"))

    def test_missing_id_raises(self, library):
        with pytest.raises(KeyError):
            library.get("nope")

    def test_catalog_bytes_prompt_scale(self, library):
        # Three prompts: well under a single small JPEG.
        assert 0 < library.catalog_bytes() < 8_192

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            StockPromptLibrary(dedup_threshold=0.0)


class TestSearch:
    def test_semantic_ranking(self, library):
        hits = library.search("mountain lake landscape with snow")
        assert hits[0].entry.prompt_id == "p1"
        assert hits[0].similarity > hits[-1].similarity

    def test_limit_respected(self, library):
        assert len(library.search("anything", limit=2)) == 2

    def test_invalid_limit(self, library):
        with pytest.raises(ValueError):
            library.search("x", limit=0)

    def test_best_match_threshold(self, library):
        assert library.best_match("snowy mountain over an alpine lake") is not None
        assert library.best_match("quarterly financial derivatives report") is None


def landscape_library(count: int) -> StockPromptLibrary:
    """A catalog built from the shared landscape prompt bank."""
    library = StockPromptLibrary()
    for index, prompt in enumerate(landscape_prompts(count, "stock")):
        library.add(StockPrompt(f"stock-{index:04d}", prompt, tags=("landscape",)))
    return library


class TestDemoLibrary:
    def test_builds_with_dedup(self):
        library = landscape_library(30)
        # The landscape bank has limited scene/detail combinations, so
        # some generated prompts collide semantically and are deduped.
        assert len(library) + library.rejected_duplicates == 30
        assert len(library) >= 15

    def test_converter_style_reuse(self):
        """The §4.2 hook: an image description finds a stock prompt whose
        reuse beats lossy inversion."""
        library = landscape_library(30)
        description = "a waterfall in a mossy basalt gorge in soft morning light"
        match = library.best_match(description)
        assert match is not None
        assert "waterfall" in match.prompt

    def test_page_converter_integration(self):
        """A converter with a library reuses catalog prompts verbatim."""
        from repro.html import parse_html
        from repro.sww.content import GeneratedContent
        from repro.sww.conversion import PageConverter

        library = landscape_library(30)
        html = (
            '<body><img src="/x.jpg" alt="a waterfall in a mossy basalt '
            'gorge in soft morning light" width="256" height="256"></body>'
        )
        doc = parse_html(html)
        converter = PageConverter(stock_library=library)
        report = converter.convert(doc, topic="landscape")
        assert report.converted_images == 1
        assert converter.stock_reuses == 1
        item = GeneratedContent.from_element(doc.find_by_class("generated-content")[0])
        # The catalog prompt was used verbatim (no inversion loss markers).
        assert any(item.prompt == entry.prompt for entry in (h.entry for h in library.search(html, 100)))
