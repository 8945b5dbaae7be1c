"""Content-addressed keys for generated media.

The paper's Table 2 makes generation, not transfer, the bottleneck, and
§2.2 argues the result of a generation should be amortised across users.
Amortisation needs an identity: two requests produce the same artifact
exactly when every generation-relevant input matches. A
:class:`GenerationKey` captures those inputs — ``(model, prompt, seed,
steps, width×height, content-type)`` plus modality-specific extras — and
hashes them through :func:`repro._util.hashing.stable_hash`, so the key
is stable across processes and platforms (Python's salted ``hash`` never
touches it).

The simulators are deterministic in exactly these fields
(``generate_image`` derives its default seed from them), so a key hit can
be substituted for a generation without changing a single output byte —
the property the determinism tests in ``tests/gencache`` pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro._util.hashing import stable_hash
from repro.sww.content import ContentType, GeneratedContent


@dataclass(frozen=True)
class GenerationKey:
    """Identity of one generation result.

    ``seed`` and ``steps`` keep the caller's literal value (``None`` means
    "model default"), which is itself part of the identity: an explicit
    seed equal to the derived default is the same artifact, but the key
    does not try to know that — it only promises equal inputs ⇒ equal key.
    """

    model: str
    prompt: str
    seed: int | None
    steps: int | None
    width: int
    height: int
    content_type: str
    #: Modality-specific dimensions (sorted name/value pairs): target
    #: words and topic for text items.
    extra: tuple[tuple[str, str], ...] = field(default=())

    @cached_property
    def digest(self) -> str:
        """Stable hex digest used as the store/wire key.

        Hashed once per key: the cache reads it on every peek, lookup and
        insert, and a frozen key's fields cannot change under the memo.
        """
        return stable_hash(
            "gencache-key",
            self.model,
            self.prompt,
            self.seed,
            self.steps,
            f"{self.width}x{self.height}",
            self.content_type,
            *(part for pair in self.extra for part in pair),
        )[:16].hex()

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"gen:{self.digest}"


def image_key(
    model: str,
    prompt: str,
    width: int,
    height: int,
    steps: int | None = None,
    seed: int | None = None,
) -> GenerationKey:
    """Key for a text-to-image generation."""
    return GenerationKey(
        model=model,
        prompt=prompt,
        seed=seed,
        steps=steps,
        width=width,
        height=height,
        content_type=ContentType.IMAGE.value,
    )


def text_key(model: str, prompt: str, words: int, topic: str) -> GenerationKey:
    """Key for a text-expansion generation."""
    return GenerationKey(
        model=model,
        prompt=prompt,
        seed=None,
        steps=None,
        width=0,
        height=0,
        content_type=ContentType.TEXT.value,
        extra=(("topic", topic), ("words", str(words))),
    )


def key_for_item(
    item: GeneratedContent,
    default_image_model: str,
    default_text_model: str,
) -> GenerationKey | None:
    """Key for a parsed ``generated-content`` item, or None if uncacheable.

    Upscale items are uncacheable: their output depends on fetched source
    bytes that live outside the metadata, so no metadata-derived key can
    address them safely.
    """
    if item.content_type == ContentType.IMAGE:
        if item.upscale_src is not None:
            return None
        return image_key(
            model=item.model or default_image_model,
            prompt=item.prompt,
            width=item.width,
            height=item.height,
            steps=item.metadata.get("steps"),
            seed=item.metadata.get("seed"),
        )
    return text_key(
        model=item.model or default_text_model,
        prompt=item.prompt,
        words=item.words,
        topic=item.topic,
    )
