"""HTML tokenizer.

Produces a flat stream of tokens: tags (with parsed attributes), text,
comments and doctypes. Attribute values may be double-quoted, single-quoted
or unquoted; bare attributes get an empty value. The content of raw-text
elements (``script``, ``style``) is emitted as a single text token without
entity processing, matching browser behaviour closely enough for page
rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

RAW_TEXT_ELEMENTS = frozenset({"script", "style"})

#: Elements that never have closing tags (HTML void elements).
VOID_ELEMENTS = frozenset(
    {
        "area",
        "base",
        "br",
        "col",
        "embed",
        "hr",
        "img",
        "input",
        "link",
        "meta",
        "source",
        "track",
        "wbr",
    }
)

_ENTITY_MAP = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
    "nbsp": " ",
}


@dataclass
class Token:
    pass


@dataclass
class TagToken(Token):
    name: str = ""
    attributes: dict[str, str] = field(default_factory=dict)
    closing: bool = False
    self_closing: bool = False


@dataclass
class TextToken(Token):
    text: str = ""


@dataclass
class CommentToken(Token):
    text: str = ""


@dataclass
class DoctypeToken(Token):
    text: str = "html"


def decode_entities(text: str) -> str:
    """Decode the common named entities and numeric character references."""
    if "&" not in text:
        return text
    out: list[str] = []
    start = 0  # where the run not yet copied begins
    i = text.find("&")
    while i != -1:
        end = text.find(";", i + 1)
        if end != -1 and end - i <= 12:
            body = text[i + 1 : end]
            decoded = None
            if body.startswith("#"):
                try:
                    code = int(body[2:], 16) if body[1:2] in ("x", "X") else int(body[1:])
                    decoded = chr(code)
                except (ValueError, OverflowError):
                    pass
            else:
                decoded = _ENTITY_MAP.get(body)
            if decoded is not None:
                out.append(text[start:i])
                out.append(decoded)
                start = end + 1
                i = text.find("&", start)
                continue
        i = text.find("&", i + 1)
    out.append(text[start:])
    return "".join(out)


class _Cursor:
    """Character cursor over the source with small lookahead helpers."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.position = 0

    @property
    def done(self) -> bool:
        return self.position >= len(self.source)

    def peek(self, offset: int = 0) -> str:
        index = self.position + offset
        return self.source[index] if index < len(self.source) else ""

    def advance(self, count: int = 1) -> None:
        self.position += count

    def starts_with(self, prefix: str) -> bool:
        return self.source.startswith(prefix, self.position)

    def take_until(self, needle: str) -> str:
        """Consume up to (not including) ``needle``, or everything left."""
        index = self.source.find(needle, self.position)
        if index == -1:
            chunk = self.source[self.position :]
            self.position = len(self.source)
            return chunk
        chunk = self.source[self.position : index]
        self.position = index
        return chunk

    def skip_whitespace(self) -> None:
        while not self.done and self.peek().isspace():
            self.advance()


def _read_tag_name(cursor: _Cursor) -> str:
    start = cursor.position
    while not cursor.done and (cursor.peek().isalnum() or cursor.peek() in "-_:"):
        cursor.advance()
    return cursor.source[start : cursor.position].lower()


def _read_attribute_value(cursor: _Cursor) -> str:
    quote = cursor.peek()
    if quote in ("'", '"'):
        cursor.advance()
        value = cursor.take_until(quote)
        cursor.advance()  # closing quote (no-op at EOF)
        return decode_entities(value)
    start = cursor.position
    while not cursor.done and not cursor.peek().isspace() and cursor.peek() not in (">", "/"):
        cursor.advance()
    return decode_entities(cursor.source[start : cursor.position])


def _read_attributes(cursor: _Cursor) -> tuple[dict[str, str], bool]:
    attributes: dict[str, str] = {}
    self_closing = False
    while True:
        cursor.skip_whitespace()
        if cursor.done:
            break
        ch = cursor.peek()
        if ch == ">":
            cursor.advance()
            break
        if ch == "/" and cursor.peek(1) == ">":
            cursor.advance(2)
            self_closing = True
            break
        start = cursor.position
        while not cursor.done and not cursor.peek().isspace() and cursor.peek() not in ("=", ">", "/"):
            cursor.advance()
        name = cursor.source[start : cursor.position].lower()
        if not name:
            cursor.advance()
            continue
        cursor.skip_whitespace()
        if cursor.peek() == "=":
            cursor.advance()
            cursor.skip_whitespace()
            value = _read_attribute_value(cursor)
        else:
            value = ""
        attributes.setdefault(name, value)
    return attributes, self_closing


def tokenize(source: str) -> list[Token]:
    """Tokenize an HTML document into a flat token list."""
    cursor = _Cursor(source)
    tokens: list[Token] = []
    raw_text_element: str | None = None

    while not cursor.done:
        if raw_text_element is not None:
            closer = f"</{raw_text_element}"
            index = cursor.source.lower().find(closer, cursor.position)
            if index == -1:
                tokens.append(TextToken(cursor.source[cursor.position :]))
                cursor.position = len(cursor.source)
                raw_text_element = None
                continue
            if index > cursor.position:
                tokens.append(TextToken(cursor.source[cursor.position : index]))
            cursor.position = index
            raw_text_element = None
            continue

        if cursor.peek() != "<":
            text = cursor.take_until("<")
            decoded = decode_entities(text)
            if decoded:
                tokens.append(TextToken(decoded))
            continue

        if cursor.starts_with("<!--"):
            cursor.advance(4)
            body = cursor.take_until("-->")
            cursor.advance(3)
            tokens.append(CommentToken(body))
            continue

        if cursor.starts_with("<!"):
            cursor.advance(2)
            body = cursor.take_until(">")
            cursor.advance(1)
            tokens.append(DoctypeToken(body.strip()))
            continue

        if cursor.starts_with("</"):
            cursor.advance(2)
            name = _read_tag_name(cursor)
            cursor.take_until(">")
            cursor.advance(1)
            if name:
                tokens.append(TagToken(name=name, closing=True))
            continue

        nxt = cursor.peek(1)
        if not (nxt.isalpha() or nxt in "_"):
            # A bare '<' that does not start a tag is literal text.
            tokens.append(TextToken("<"))
            cursor.advance()
            continue

        cursor.advance(1)
        name = _read_tag_name(cursor)
        attributes, self_closing = _read_attributes(cursor)
        tokens.append(TagToken(name=name, attributes=attributes, self_closing=self_closing))
        if name in RAW_TEXT_ELEMENTS and not self_closing:
            raw_text_element = name
    return tokens
