"""Compression-ratio accounting (paper §6.2, §6.4, Table 2).

The paper's compression factor is "original media bytes ÷ metadata bytes".
The worst-case metadata budget it uses for an image is 428 B: 400 B for
the prompt, 20 B for the name and 4 B for each of height and width.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: Table 2 footnote: worst-case image metadata budget, in bytes.
WORST_CASE_PROMPT_BYTES = 400
WORST_CASE_NAME_BYTES = 20
WORST_CASE_DIMENSION_BYTES = 4
WORST_CASE_IMAGE_METADATA = (
    WORST_CASE_PROMPT_BYTES + WORST_CASE_NAME_BYTES + 2 * WORST_CASE_DIMENSION_BYTES
)  # = 428


def compression_ratio(original_bytes: float, compressed_bytes: float) -> float:
    """Original ÷ compressed; infinite when compressed is zero."""
    if original_bytes < 0 or compressed_bytes < 0:
        raise ValueError("sizes cannot be negative")
    if compressed_bytes == 0:
        return float("inf")
    return original_bytes / compressed_bytes


def prompt_metadata_size(metadata: dict) -> int:
    """Wire size of a generated-content metadata dictionary (JSON bytes)."""
    return len(json.dumps(metadata, separators=(",", ":")).encode("utf-8"))


@dataclass
class SizeAccount:
    """Tallies original vs. SWW wire/storage bytes for a page or corpus."""

    original_media: int = 0
    original_text: int = 0
    metadata: int = 0
    unique_content: int = 0
    items: int = 0
    per_item: list[tuple[str, int, int]] = field(default_factory=list)

    def add_item(self, label: str, original_bytes: int, sww_bytes: int, kind: str = "media") -> None:
        """Record one content item (an image or a text block)."""
        if original_bytes < 0 or sww_bytes < 0:
            raise ValueError("sizes cannot be negative")
        if kind == "media":
            self.original_media += original_bytes
        elif kind == "text":
            self.original_text += original_bytes
        else:
            raise ValueError(f"unknown kind {kind!r}")
        self.metadata += sww_bytes
        self.items += 1
        self.per_item.append((label, original_bytes, sww_bytes))

    def add_unique(self, size_bytes: int) -> None:
        """Unique (non-generatable) content travels unchanged both ways."""
        if size_bytes < 0:
            raise ValueError("sizes cannot be negative")
        self.unique_content += size_bytes

    @property
    def original_total(self) -> int:
        return self.original_media + self.original_text + self.unique_content

    @property
    def sww_total(self) -> int:
        return self.metadata + self.unique_content

    @property
    def ratio(self) -> float:
        """Compression over the *generatable* content (paper's figure)."""
        generatable_original = self.original_media + self.original_text
        return compression_ratio(generatable_original, self.metadata)

    @property
    def page_ratio(self) -> float:
        """End-to-end ratio including unique content on both sides."""
        return compression_ratio(self.original_total, self.sww_total)
