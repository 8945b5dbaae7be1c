"""Content-management-system tagging (paper §4.2).

    "An easy way to identify content that can be generated is by adding a
    dedicated feature to content management systems (CMS) and webpage
    builders. The feature would tag every content item as generatable or
    unique. This one-bit flag will be associated with every linked file.
    Text blocks can be similarly tagged. Webpage templates can have
    different default values for conversion tags."

:class:`ContentManagementSystem` stores those one-bit flags keyed by
content identifier (file path, block id), with per-template defaults.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class ContentTag(enum.Enum):
    """The one-bit conversion flag."""

    GENERATABLE = "generatable"
    UNIQUE = "unique"


@dataclass
class Template:
    """A page template with a default conversion tag (§4.2)."""

    name: str
    default_tag: ContentTag


#: Templates the paper's adoption story mentions: static/company/blog sites
#: move to SWW; news-like sites stay mostly unique.
STANDARD_TEMPLATES: dict[str, Template] = {
    "blog": Template("blog", ContentTag.GENERATABLE),
    "company": Template("company", ContentTag.GENERATABLE),
    "gallery": Template("gallery", ContentTag.GENERATABLE),
    "news": Template("news", ContentTag.UNIQUE),
}


@dataclass
class ContentManagementSystem:
    """Per-item conversion tags with template defaults."""

    template: Template | None = None
    _tags: dict[str, ContentTag] = field(default_factory=dict)

    def tag(self, identifier: str, tag: ContentTag) -> None:
        """Set the one-bit flag for a content item."""
        if not identifier:
            raise ValueError("content identifier cannot be empty")
        self._tags[identifier] = tag

    def tag_for(self, identifier: str) -> ContentTag:
        """The effective tag: explicit flag, else template default, else
        GENERATABLE (the optimistic default for already-generic content)."""
        explicit = self._tags.get(identifier)
        if explicit is not None:
            return explicit
        if self.template is not None:
            return self.template.default_tag
        return ContentTag.GENERATABLE

    def generatable_fraction(self) -> float:
        """Fraction of explicitly tagged items marked generatable."""
        if not self._tags:
            return 1.0 if self.tag_for("") == ContentTag.GENERATABLE else 0.0
        generatable = sum(1 for t in self._tags.values() if t == ContentTag.GENERATABLE)
        return generatable / len(self._tags)

    @classmethod
    def for_template(cls, template_name: str) -> "ContentManagementSystem":
        try:
            template = STANDARD_TEMPLATES[template_name]
        except KeyError:
            raise KeyError(
                f"unknown template {template_name!r}; available: {sorted(STANDARD_TEMPLATES)}"
            ) from None
        return cls(template=template)
