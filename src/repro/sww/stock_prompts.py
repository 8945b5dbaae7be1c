"""A stock-prompt library (paper §7, New Opportunities).

    "One interesting aspect is that of stock photos, as these will mostly
    become prompts. Possibly in a few years' time we will see stock
    prompts companies emerge."

A stock-prompt company's catalog is the prompt-era analogue of a stock
photo library: curated prompts with licences, searchable by semantics,
deduplicated so near-identical submissions don't bloat the catalog. The
page converter can consult a library before running lossy prompt
inversion — if a stock prompt already matches the image's description,
reuse it (better fidelity, and the licence travels with the prompt).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.genai.embeddings import cosine_similarity, text_embedding
from repro.metrics.compression import prompt_metadata_size


@dataclass(frozen=True)
class StockPrompt:
    """One catalog entry."""

    prompt_id: str
    prompt: str
    license: str = "royalty-free"
    tags: tuple[str, ...] = ()

    def size_bytes(self) -> int:
        return prompt_metadata_size({"prompt": self.prompt, "license": self.license})


@dataclass
class SearchHit:
    entry: StockPrompt
    similarity: float


class StockPromptLibrary:
    """Searchable, deduplicated prompt catalog."""

    def __init__(self, dedup_threshold: float = 0.92) -> None:
        if not 0.0 < dedup_threshold <= 1.0:
            raise ValueError("dedup threshold must be in (0, 1]")
        self.dedup_threshold = dedup_threshold
        self._entries: dict[str, StockPrompt] = {}
        self._vectors: dict[str, np.ndarray] = {}
        self.rejected_duplicates = 0

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, entry: StockPrompt) -> bool:
        """Add an entry unless a near-duplicate already exists.

        Returns True when added. Duplicate IDs are errors; duplicate
        *content* (embedding cosine above the threshold) is silently
        rejected with a counter — a stock library sells variety.
        """
        if entry.prompt_id in self._entries:
            raise ValueError(f"duplicate prompt id {entry.prompt_id!r}")
        vector = text_embedding(entry.prompt)
        for existing in self._vectors.values():
            if cosine_similarity(vector, existing) >= self.dedup_threshold:
                self.rejected_duplicates += 1
                return False
        self._entries[entry.prompt_id] = entry
        self._vectors[entry.prompt_id] = vector
        return True

    def get(self, prompt_id: str) -> StockPrompt:
        try:
            return self._entries[prompt_id]
        except KeyError:
            raise KeyError(f"no stock prompt {prompt_id!r}") from None

    def search(self, query: str, limit: int = 5) -> list[SearchHit]:
        """Semantic search: best-matching entries for a description."""
        if limit <= 0:
            raise ValueError("limit must be positive")
        query_vector = text_embedding(query)
        hits = [
            SearchHit(self._entries[pid], cosine_similarity(query_vector, vector))
            for pid, vector in self._vectors.items()
        ]
        hits.sort(key=lambda hit: -hit.similarity)
        return hits[:limit]

    def best_match(self, description: str, min_similarity: float = 0.30) -> StockPrompt | None:
        """The converter hook: a reusable prompt for a described image,
        or None when nothing in the catalog is close enough."""
        hits = self.search(description, limit=1)
        if hits and hits[0].similarity >= min_similarity:
            return hits[0].entry
        return None

    def catalog_bytes(self) -> int:
        return sum(entry.size_bytes() for entry in self._entries.values())
