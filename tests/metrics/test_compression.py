"""Tests for compression accounting."""

import pytest

from repro.metrics.compression import (
    SizeAccount,
    WORST_CASE_IMAGE_METADATA,
    compression_ratio,
    prompt_metadata_size,
)


class TestRatio:
    def test_basic(self):
        assert compression_ratio(1000, 100) == 10.0

    def test_zero_compressed_is_infinite(self):
        assert compression_ratio(100, 0) == float("inf")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            compression_ratio(-1, 10)


class TestWorstCaseBudget:
    def test_paper_428_bytes(self):
        """Table 2 footnote: '400B to the prompt, 20B to the Name, and 4B
        to each height and width' = 428 B."""
        assert WORST_CASE_IMAGE_METADATA == 428

    def test_table2_worst_case_ratios(self):
        """Table 2's compression column uses the 428 B budget."""
        assert compression_ratio(8_192, 428) == pytest.approx(19.14, abs=0.01)
        assert compression_ratio(32_768, 428) == pytest.approx(76.56, abs=0.01)
        assert compression_ratio(131_072, 428) == pytest.approx(306.24, abs=0.03)


class TestMetadataSize:
    def test_json_compact_encoding(self):
        size = prompt_metadata_size({"prompt": "x", "width": 1})
        assert size == len('{"prompt":"x","width":1}')

    def test_longer_prompt_larger(self):
        small = prompt_metadata_size({"prompt": "a"})
        large = prompt_metadata_size({"prompt": "a" * 100})
        assert large == small + 99


class TestSizeAccount:
    def test_media_items(self):
        account = SizeAccount()
        account.add_item("img", 1000, 100)
        account.add_item("img2", 3000, 100)
        assert account.original_media == 4000
        assert account.metadata == 200
        assert account.ratio == 20.0
        assert account.items == 2

    def test_text_items(self):
        account = SizeAccount()
        account.add_item("t", 2400, 778, kind="text")
        assert account.original_text == 2400
        assert account.ratio == pytest.approx(3.08, abs=0.01)

    def test_unique_content_travels_both_ways(self):
        account = SizeAccount()
        account.add_item("img", 1000, 10)
        account.add_unique(500)
        assert account.original_total == 1500
        assert account.sww_total == 510
        assert account.page_ratio == pytest.approx(1500 / 510)
        assert account.ratio == 100.0  # unique content excluded here

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SizeAccount().add_item("x", 1, 1, kind="video")

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            SizeAccount().add_item("x", -1, 1)
        with pytest.raises(ValueError):
            SizeAccount().add_unique(-1)
