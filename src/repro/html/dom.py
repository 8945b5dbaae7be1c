"""A minimal DOM: documents, elements, text and comments.

Supports the operations the SWW page processor needs: tree traversal,
class/attribute queries, node replacement and cloning.
"""

from __future__ import annotations

from typing import Callable, Iterator


class Node:
    """Base tree node."""

    def __init__(self) -> None:
        self.parent: Element | Document | None = None

    def detach(self) -> None:
        """Remove this node from its parent."""
        if self.parent is not None:
            self.parent.children.remove(self)
            self.parent = None

    def replace_with(self, *replacements: "Node") -> None:
        """Swap this node for one or more replacement nodes in-place."""
        parent = self.parent
        if parent is None:
            raise ValueError("cannot replace a detached node")
        index = parent.children.index(self)
        for replacement in replacements:
            replacement.detach()
        parent.children[index : index + 1] = list(replacements)
        for replacement in replacements:
            replacement.parent = parent
        self.parent = None

    def clone(self) -> "Node":
        raise NotImplementedError


class Text(Node):
    """A run of character data."""

    def __init__(self, text: str) -> None:
        super().__init__()
        self.text = text

    def clone(self) -> "Text":
        return Text(self.text)

    def __repr__(self) -> str:
        preview = self.text if len(self.text) <= 30 else self.text[:27] + "..."
        return f"Text({preview!r})"


class Comment(Node):
    """An HTML comment."""

    def __init__(self, text: str) -> None:
        super().__init__()
        self.text = text

    def clone(self) -> "Comment":
        return Comment(self.text)

    def __repr__(self) -> str:
        return f"Comment({self.text!r})"


class _Container(Node):
    """Shared child-management behaviour for Document and Element."""

    def __init__(self) -> None:
        super().__init__()
        self.children: list[Node] = []

    def append(self, node: Node) -> Node:
        node.detach()
        node.parent = self
        self.children.append(node)
        return node

    def insert(self, index: int, node: Node) -> Node:
        node.detach()
        node.parent = self
        self.children.insert(index, node)
        return node

    def iter(self) -> Iterator[Node]:
        """Depth-first pre-order traversal of the subtree (excluding self)."""
        for child in list(self.children):
            yield child
            if isinstance(child, _Container):
                yield from child.iter()

    def find_all(self, predicate: Callable[["Element"], bool]) -> list["Element"]:
        return [node for node in self.iter() if isinstance(node, Element) and predicate(node)]

    def find_by_tag(self, tag: str) -> list["Element"]:
        tag = tag.lower()
        return self.find_all(lambda el: el.tag == tag)

    def find_by_class(self, class_name: str) -> list["Element"]:
        return self.find_all(lambda el: class_name in el.classes)

    def text_content(self) -> str:
        """Concatenated text of all descendants."""
        parts = [node.text for node in self.iter() if isinstance(node, Text)]
        return "".join(parts)


class Element(_Container):
    """An HTML element with a tag name and attributes."""

    def __init__(self, tag: str, attributes: dict[str, str] | None = None) -> None:
        super().__init__()
        self.tag = tag.lower()
        self.attributes: dict[str, str] = dict(attributes or {})

    @property
    def classes(self) -> list[str]:
        return self.attributes.get("class", "").split()

    def has_class(self, name: str) -> bool:
        return name in self.classes

    def get(self, name: str, default: str = "") -> str:
        return self.attributes.get(name.lower(), default)

    def set(self, name: str, value: str) -> None:
        self.attributes[name.lower()] = value

    @property
    def id(self) -> str:
        return self.attributes.get("id", "")

    def clone(self) -> "Element":
        copy = Element(self.tag, dict(self.attributes))
        for child in self.children:
            copy.append(child.clone())
        return copy

    def __repr__(self) -> str:
        attrs = " ".join(f'{k}="{v}"' for k, v in self.attributes.items())
        return f"<{self.tag}{' ' + attrs if attrs else ''}> ({len(self.children)} children)"


class Document(_Container):
    """The document root; may carry a doctype."""

    def __init__(self) -> None:
        super().__init__()
        self.doctype: str | None = None

    @property
    def html(self) -> Element | None:
        for child in self.children:
            if isinstance(child, Element) and child.tag == "html":
                return child
        return None

    @property
    def body(self) -> Element | None:
        html = self.html
        root: _Container = html if html is not None else self
        for node in root.iter():
            if isinstance(node, Element) and node.tag == "body":
                return node
        return None

    @property
    def head(self) -> Element | None:
        html = self.html
        root: _Container = html if html is not None else self
        for node in root.iter():
            if isinstance(node, Element) and node.tag == "head":
                return node
        return None

    def clone(self) -> "Document":
        copy = Document()
        copy.doctype = self.doctype
        for child in self.children:
            copy.append(child.clone())
        return copy

    def __repr__(self) -> str:
        return f"Document({len(self.children)} top-level nodes)"
