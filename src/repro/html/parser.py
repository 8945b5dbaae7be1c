"""Tree construction: token stream → DOM.

Implements a pragmatic subset of the WHATWG tree-building rules:

* void elements never push onto the open-element stack;
* a closing tag pops to the nearest matching open element (implicitly
  closing anything above it) and is ignored when no match exists;
* ``<p>`` auto-closes a preceding unclosed ``<p>``; ``<li>`` likewise;
* unclosed elements at end of input are closed implicitly.
"""

from __future__ import annotations

from repro.html.dom import Comment, Document, Element, Text
from repro.html.tokenizer import (
    CommentToken,
    DoctypeToken,
    TagToken,
    TextToken,
    VOID_ELEMENTS,
    tokenize,
)

#: Opening one of these implicitly closes a same-tag ancestor.
_AUTO_CLOSE_SAME = frozenset({"p", "li", "option", "tr", "td", "th", "dt", "dd"})

#: Block-level elements that implicitly close an open <p> (WHATWG §13.2.6).
_CLOSES_P = frozenset(
    {
        "address", "article", "aside", "blockquote", "div", "dl", "fieldset",
        "figure", "footer", "form", "h1", "h2", "h3", "h4", "h5", "h6",
        "header", "hr", "main", "nav", "ol", "pre", "section", "table", "ul",
    }
)


def parse_html(source: str) -> Document:
    """Parse HTML text into a :class:`~repro.html.dom.Document`."""
    document = Document()
    stack: list = [document]
    for token in tokenize(source):
        top = stack[-1]
        if isinstance(token, DoctypeToken):
            if document.doctype is None:
                document.doctype = token.text
        elif isinstance(token, TextToken):
            top.append(Text(token.text))
        elif isinstance(token, CommentToken):
            top.append(Comment(token.text))
        elif isinstance(token, TagToken):
            if token.closing:
                _handle_close(stack, token.name)
            else:
                if token.name in _AUTO_CLOSE_SAME:
                    _auto_close(stack, token.name)
                elif token.name in _CLOSES_P:
                    _auto_close(stack, "p")
                element = Element(token.name, token.attributes)
                stack[-1].append(element)
                if token.name not in VOID_ELEMENTS and not token.self_closing:
                    stack.append(element)
    return document


def _handle_close(stack: list, name: str) -> None:
    """Pop to the matching open element, or ignore an unmatched closer."""
    for index in range(len(stack) - 1, 0, -1):
        node = stack[index]
        if isinstance(node, Element) and node.tag == name:
            del stack[index:]
            return
    # No matching open element: the closing tag is parse garbage; skip it.


def _auto_close(stack: list, name: str) -> None:
    """Implicitly close an open same-tag element that would nest illegally.

    Only closes within the nearest block: a ``<li>`` inside a nested
    ``<ul>`` must not close the outer ``<li>``.
    """
    barrier = frozenset({"ul", "ol", "table", "div", "section", "article", "body", "html"})
    for index in range(len(stack) - 1, 0, -1):
        node = stack[index]
        if not isinstance(node, Element):
            break
        if node.tag == name:
            del stack[index:]
            return
        if node.tag in barrier:
            return
