"""Tests for the HTML tokenizer."""

from hypothesis import given, strategies as st

from repro.html.tokenizer import (
    _ENTITY_MAP,
    CommentToken,
    DoctypeToken,
    TagToken,
    TextToken,
    decode_entities,
    tokenize,
)


class TestBasicTokens:
    def test_simple_element(self):
        tokens = tokenize("<p>hello</p>")
        assert isinstance(tokens[0], TagToken) and tokens[0].name == "p"
        assert isinstance(tokens[1], TextToken) and tokens[1].text == "hello"
        assert isinstance(tokens[2], TagToken) and tokens[2].closing

    def test_doctype(self):
        tokens = tokenize("<!DOCTYPE html><html></html>")
        assert isinstance(tokens[0], DoctypeToken)
        assert tokens[0].text == "DOCTYPE html"

    def test_comment(self):
        tokens = tokenize("<!-- a comment -->")
        assert isinstance(tokens[0], CommentToken)
        assert tokens[0].text == " a comment "

    def test_tag_names_lowercased(self):
        tokens = tokenize("<DIV></DIV>")
        assert tokens[0].name == "div" and tokens[1].name == "div"

    def test_self_closing(self):
        tokens = tokenize("<br/>")
        assert tokens[0].self_closing


class TestAttributes:
    def test_double_quoted(self):
        (tag,) = tokenize('<a href="http://x/">')[:1]
        assert tag.attributes == {"href": "http://x/"}

    def test_single_quoted_with_json(self):
        source = "<div metadata='{\"prompt\": \"a goldfish\"}'>"
        (tag,) = tokenize(source)[:1]
        assert tag.attributes["metadata"] == '{"prompt": "a goldfish"}'

    def test_unquoted(self):
        (tag,) = tokenize("<img width=256>")[:1]
        assert tag.attributes == {"width": "256"}

    def test_bare_attribute(self):
        (tag,) = tokenize("<input disabled>")[:1]
        assert tag.attributes == {"disabled": ""}

    def test_attribute_names_lowercased(self):
        (tag,) = tokenize('<div Content-Type="img">')[:1]
        assert "content-type" in tag.attributes

    def test_first_duplicate_attribute_wins(self):
        (tag,) = tokenize('<div id="a" id="b">')[:1]
        assert tag.attributes["id"] == "a"

    def test_entities_in_attribute_values(self):
        (tag,) = tokenize('<div title="a &amp; b">')[:1]
        assert tag.attributes["title"] == "a & b"


class TestEntities:
    def test_named_entities(self):
        assert decode_entities("a &amp; b &lt;c&gt;") == "a & b <c>"

    def test_numeric_decimal(self):
        assert decode_entities("&#65;") == "A"

    def test_numeric_hex(self):
        assert decode_entities("&#x41;") == "A"

    def test_unknown_entity_left_alone(self):
        assert decode_entities("&nosuch;") == "&nosuch;"

    def test_bare_ampersand(self):
        assert decode_entities("fish & chips") == "fish & chips"


class TestRawText:
    def test_script_content_not_parsed(self):
        tokens = tokenize("<script>if (a<b && c>d) {}</script>")
        assert isinstance(tokens[1], TextToken)
        assert tokens[1].text == "if (a<b && c>d) {}"
        assert tokens[2].closing and tokens[2].name == "script"

    def test_style_content_not_parsed(self):
        tokens = tokenize("<style>a>b{color:red}</style>")
        assert tokens[1].text == "a>b{color:red}"

    def test_unterminated_script_consumes_rest(self):
        tokens = tokenize("<script>var x = 1;")
        assert tokens[-1].text == "var x = 1;"


class TestEdgeCases:
    def test_bare_less_than_is_text(self):
        tokens = tokenize("a < b")
        text = "".join(t.text for t in tokens if isinstance(t, TextToken))
        assert text == "a < b"

    def test_empty_input(self):
        assert tokenize("") == []

    def test_unterminated_tag(self):
        tokens = tokenize("<div class='x'")
        assert tokens[0].name == "div"

    def test_closing_tag_with_whitespace_junk(self):
        tokens = tokenize("<p>x</p >")
        assert tokens[-1].closing


def _decode_entities_oracle(text: str) -> str:
    """``decode_entities`` as first written, one character at a time."""
    if "&" not in text:
        return text
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = text.find(";", i + 1)
        if end == -1 or end - i > 12:
            out.append(ch)
            i += 1
            continue
        body = text[i + 1 : end]
        if body.startswith("#"):
            try:
                code = int(body[2:], 16) if body[1:2] in ("x", "X") else int(body[1:])
                out.append(chr(code))
                i = end + 1
                continue
            except (ValueError, OverflowError):
                pass
        elif body in _ENTITY_MAP:
            out.append(_ENTITY_MAP[body])
            i = end + 1
            continue
        out.append(ch)
        i += 1
    return "".join(out)


#: Fragments that make entity-shaped text likely: references valid and
#: not, unterminated ones, numbers out of range and long bodies.
_FRAGMENTS = st.sampled_from(
    ["&", ";", "#", "x", "X", "amp", "quot", "lt", "nbsp", "apos", "bogus", "&#", "&#x", "&amp;", "&quot;",
     "&#39;", "&#x1F600;", "&#xZZ;", "&#-1;", "&#1114112;", "&#99999999999999999999;", "0", "7", "f",
     "a long run of text", " ", "é", "<", "\n"]
)


class TestDecodeEntitiesOracle:
    @given(st.lists(st.one_of(_FRAGMENTS, st.text(max_size=4)), max_size=24).map("".join))
    def test_matches_the_character_loop(self, text):
        assert decode_entities(text) == _decode_entities_oracle(text)

    def test_gallery_metadata(self):
        text = "{&quot;height&quot;:256,&quot;name&quot;:&quot;gallery-00&quot;,&quot;width&quot;:256}"
        assert decode_entities(text) == '{"height":256,"name":"gallery-00","width":256}'
