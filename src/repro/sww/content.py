"""The ``generated-content`` class (paper §4.1).

    "we add in our prototype a class called generated content which has
    two fields: content-type and metadata. Content-type identifies the
    type of generated content, currently supporting either 'img' or
    'txt'. Metadata is a json dictionary used to store metadata needed to
    generate the content. Examples of metadata fields include the prompt
    or width and height for images."

On the wire this is an HTML division::

    <div class="generated-content" content-type="img"
         metadata='{"prompt": "a cartoon goldfish", "name": "goldfish",
                    "width": 256, "height": 256}'></div>

which the client's page processor replaces with ``<img src="...">`` after
generation (Fig. 1), or with the expanded paragraph for ``txt`` content.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

from repro.html.dom import Element

CSS_CLASS = "generated-content"

#: Metadata attribute names.
ATTR_CONTENT_TYPE = "content-type"
ATTR_METADATA = "metadata"


class ContentType(enum.Enum):
    """The prototype's two generated content types."""

    IMAGE = "img"
    TEXT = "txt"


class ContentError(ValueError):
    """Raised for malformed generated-content markup or metadata."""


@dataclass
class GeneratedContent:
    """A parsed generated-content item.

    ``metadata`` keys for images: ``prompt`` (required), ``name``,
    ``width``, ``height``, optional ``model``, ``steps``, ``seed``.
    For text: ``prompt`` (the bullet points, required), ``words`` (target
    length), optional ``model``, ``topic``.
    """

    content_type: ContentType
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if "prompt" not in self.metadata or not str(self.metadata["prompt"]).strip():
            raise ContentError("generated content requires a non-empty 'prompt'")
        if self.content_type == ContentType.IMAGE:
            for key in ("width", "height"):
                value = self.metadata.get(key)
                if value is not None and (not isinstance(value, int) or value <= 0):
                    raise ContentError(f"image {key} must be a positive integer, got {value!r}")
            scale = self.metadata.get("scale")
            if scale is not None and (not isinstance(scale, int) or not 2 <= scale <= 4):
                raise ContentError(f"upscale factor must be an integer in [2, 4], got {scale!r}")
            if ("upscale_src" in self.metadata) != (scale is not None):
                raise ContentError("upscale items need both 'upscale_src' and 'scale'")
        elif self.content_type == ContentType.TEXT:
            words = self.metadata.get("words")
            if words is not None and (not isinstance(words, int) or words <= 0):
                raise ContentError(f"text word target must be a positive integer, got {words!r}")

    # ---------------------------------------------------------------- #
    # Convenience accessors
    # ---------------------------------------------------------------- #

    @property
    def prompt(self) -> str:
        return str(self.metadata["prompt"])

    @property
    def name(self) -> str:
        return str(self.metadata.get("name", "generated"))

    @property
    def width(self) -> int:
        return int(self.metadata.get("width", 256))

    @property
    def height(self) -> int:
        return int(self.metadata.get("height", 256))

    @property
    def words(self) -> int:
        return int(self.metadata.get("words", 150))

    @property
    def model(self) -> str | None:
        value = self.metadata.get("model")
        return str(value) if value is not None else None

    @property
    def topic(self) -> str:
        return str(self.metadata.get("topic", "technology"))

    # ---------------------------------------------------------------- #
    # Wire form
    # ---------------------------------------------------------------- #

    def metadata_json(self) -> str:
        """Compact JSON for the metadata attribute."""
        return json.dumps(self.metadata, separators=(",", ":"), sort_keys=True)

    def wire_size_bytes(self) -> int:
        """Bytes this item contributes to the page (the compressed side)."""
        return len(self.metadata_json().encode("utf-8"))

    def to_element(self) -> Element:
        """Build the HTML division carrying this item."""
        return Element(
            "div",
            {
                "class": CSS_CLASS,
                ATTR_CONTENT_TYPE: self.content_type.value,
                ATTR_METADATA: self.metadata_json(),
            },
        )

    @classmethod
    def from_element(cls, element: Element) -> "GeneratedContent":
        """Parse a generated-content division."""
        if not element.has_class(CSS_CLASS):
            raise ContentError(f"element lacks the {CSS_CLASS!r} class")
        raw_type = element.get(ATTR_CONTENT_TYPE)
        try:
            content_type = ContentType(raw_type)
        except ValueError:
            raise ContentError(f"unsupported content-type {raw_type!r}") from None
        raw_metadata = element.get(ATTR_METADATA)
        if not raw_metadata:
            raise ContentError("missing metadata attribute")
        try:
            metadata = json.loads(raw_metadata)
        except json.JSONDecodeError as exc:
            raise ContentError(f"metadata is not valid JSON: {exc}") from None
        if not isinstance(metadata, dict):
            raise ContentError("metadata must be a JSON object")
        return cls(content_type=content_type, metadata=metadata)

    @classmethod
    def image(
        cls,
        prompt: str,
        name: str = "generated",
        width: int = 256,
        height: int = 256,
        model: str | None = None,
        steps: int | None = None,
    ) -> "GeneratedContent":
        """Construct an image item."""
        metadata: dict = {"prompt": prompt, "name": name, "width": width, "height": height}
        if model:
            metadata["model"] = model
        if steps:
            metadata["steps"] = steps
        return cls(ContentType.IMAGE, metadata)

    @property
    def upscale_src(self) -> str | None:
        """Path of the stored small image for §2.2 upscale items."""
        value = self.metadata.get("upscale_src")
        return str(value) if value is not None else None

    @property
    def scale(self) -> int:
        return int(self.metadata.get("scale", 1))

    @classmethod
    def text(
        cls,
        prompt: str,
        words: int = 150,
        topic: str = "technology",
        model: str | None = None,
    ) -> "GeneratedContent":
        """Construct a text item (prompt holds the bullet points)."""
        metadata: dict = {"prompt": prompt, "words": words, "topic": topic}
        if model:
            metadata["model"] = model
        return cls(ContentType.TEXT, metadata)
