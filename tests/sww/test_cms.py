"""Tests for CMS tagging (§4.2)."""

import pytest

from repro.sww.cms import ContentManagementSystem, ContentTag, STANDARD_TEMPLATES


class TestTagging:
    def test_explicit_tag_wins(self):
        cms = ContentManagementSystem.for_template("blog")
        cms.tag("/photos/me.jpg", ContentTag.UNIQUE)
        assert cms.tag_for("/photos/me.jpg") == ContentTag.UNIQUE

    def test_template_default_applies(self):
        cms = ContentManagementSystem.for_template("news")
        assert cms.tag_for("/articles/lead.jpg") == ContentTag.UNIQUE

    def test_no_template_defaults_generatable(self):
        assert ContentManagementSystem().tag_for("x") == ContentTag.GENERATABLE

    def test_empty_identifier_rejected(self):
        with pytest.raises(ValueError):
            ContentManagementSystem().tag("", ContentTag.UNIQUE)


class TestTemplates:
    def test_paper_adoption_story(self):
        """§4.2: blogs/company sites convert; news-like content stays
        unique."""
        assert STANDARD_TEMPLATES["blog"].default_tag == ContentTag.GENERATABLE
        assert STANDARD_TEMPLATES["company"].default_tag == ContentTag.GENERATABLE
        assert STANDARD_TEMPLATES["news"].default_tag == ContentTag.UNIQUE

    def test_unknown_template_rejected(self):
        with pytest.raises(KeyError):
            ContentManagementSystem.for_template("wiki")


class TestFractions:
    def test_generatable_fraction(self):
        cms = ContentManagementSystem()
        cms.tag("a", ContentTag.GENERATABLE)
        cms.tag("b", ContentTag.GENERATABLE)
        cms.tag("c", ContentTag.UNIQUE)
        assert cms.generatable_fraction() == pytest.approx(2 / 3)

    def test_fraction_without_tags_follows_default(self):
        assert ContentManagementSystem().generatable_fraction() == 1.0
        assert ContentManagementSystem.for_template("news").generatable_fraction() == 0.0
