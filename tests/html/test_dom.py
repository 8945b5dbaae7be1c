"""Tests for the DOM."""

import pytest

from repro.html.dom import Comment, Document, Element, Text


def small_tree() -> Document:
    doc = Document()
    html = doc.append(Element("html"))
    body = html.append(Element("body"))
    div = body.append(Element("div", {"class": "generated-content extra", "id": "g1"}))
    div.append(Text("inner"))
    body.append(Element("p"))
    return doc


class TestTraversal:
    def test_iter_is_preorder(self):
        doc = small_tree()
        tags = [n.tag for n in doc.iter() if isinstance(n, Element)]
        assert tags == ["html", "body", "div", "p"]

    def test_find_by_tag(self):
        doc = small_tree()
        assert len(doc.find_by_tag("div")) == 1
        assert doc.find_by_tag("DIV")[0].id == "g1"

    def test_find_by_class(self):
        doc = small_tree()
        assert doc.find_by_class("generated-content")[0].id == "g1"
        assert doc.find_by_class("extra")[0].id == "g1"
        assert doc.find_by_class("generated") == []  # no partial match

    def test_text_content(self):
        doc = small_tree()
        assert doc.text_content() == "inner"

    def test_body_and_head_properties(self):
        doc = small_tree()
        assert doc.body is not None and doc.body.tag == "body"
        assert doc.head is None


class TestMutation:
    def test_replace_with(self):
        doc = small_tree()
        div = doc.find_by_class("generated-content")[0]
        img = Element("img", {"src": "/x.png"})
        div.replace_with(img)
        assert doc.find_by_tag("img")[0].get("src") == "/x.png"
        assert doc.find_by_class("generated-content") == []
        assert div.parent is None

    def test_replace_with_multiple(self):
        doc = small_tree()
        div = doc.find_by_class("generated-content")[0]
        div.replace_with(Element("a"), Element("b"))
        tags = [n.tag for n in doc.body.children]
        assert tags == ["a", "b", "p"]

    def test_replace_detached_raises(self):
        with pytest.raises(ValueError):
            Element("div").replace_with(Element("p"))

    def test_detach(self):
        doc = small_tree()
        p = doc.find_by_tag("p")[0]
        p.detach()
        assert doc.find_by_tag("p") == []
        assert p.parent is None

    def test_append_reparents(self):
        doc = small_tree()
        p = doc.find_by_tag("p")[0]
        div = doc.find_by_class("generated-content")[0]
        div.append(p)
        assert p.parent is div
        assert len(doc.body.children) == 1

    def test_insert_at_index(self):
        body = Element("body")
        body.append(Element("b"))
        body.insert(0, Element("a"))
        assert [c.tag for c in body.children] == ["a", "b"]


class TestAttributes:
    def test_get_set_case_insensitive(self):
        el = Element("div")
        el.set("Data-X", "1")
        assert el.get("data-x") == "1"

    def test_get_default(self):
        assert Element("div").get("missing", "d") == "d"

    def test_classes_parsed(self):
        el = Element("div", {"class": "  a  b "})
        assert el.classes == ["a", "b"]
        assert el.has_class("a") and not el.has_class("c")


class TestClone:
    def test_deep_clone_independent(self):
        doc = small_tree()
        copy = doc.clone()
        copy.find_by_class("generated-content")[0].set("id", "changed")
        assert doc.find_by_class("generated-content")[0].id == "g1"

    def test_clone_preserves_text_and_comments(self):
        el = Element("div")
        el.append(Text("t"))
        el.append(Comment("c"))
        copy = el.clone()
        assert isinstance(copy.children[0], Text) and copy.children[0].text == "t"
        assert isinstance(copy.children[1], Comment)
