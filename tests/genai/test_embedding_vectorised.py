"""The vectorised embedding path must match the scalar path bit for bit.

``text_embedding`` now reduces a stacked direction matrix in one numpy
call; every similarity experiment in the paper flows through it, so the
fuzz below pins exact equality against the original per-token
accumulation loop over 1k random texts.
"""

import numpy as np
import pytest

from repro.genai.embeddings import (
    EMBED_DIM,
    text_embedding,
    token_direction,
    tokenize_words,
)

_WORDS = (
    "fox river skyline ancient library ocean macro desert highway neon "
    "market lantern glacier orchard satellite the of and to in is canyon "
    "mural harbor Monsoon JAZZ quartz 42 7th o'clock don't ... !!! <<>>"
).split()


def _scalar_reference(text: str) -> np.ndarray:
    """The original implementation, kept verbatim as the oracle."""
    tokens = tokenize_words(text)
    if not tokens:
        return np.zeros(EMBED_DIM)
    total = np.zeros(EMBED_DIM)
    for token in tokens:
        total += token_direction(token)
    norm = np.linalg.norm(total)
    return total / norm if norm else total


def _random_texts(count: int) -> list[str]:
    rng = np.random.default_rng(0xE26ED)
    texts = []
    for _ in range(count):
        length = int(rng.integers(0, 40))
        words = [_WORDS[int(i)] for i in rng.integers(0, len(_WORDS), length)]
        texts.append(" ".join(words))
    # Edge cases the generator would hit only by luck.
    texts += ["", "   ", "the of and to", "!!!", "one", "repeat repeat repeat"]
    return texts


@pytest.fixture(scope="module")
def corpus() -> list[str]:
    return _random_texts(1000)


def test_fuzz_vectorised_equals_scalar(corpus):
    for text in corpus:
        got = text_embedding(text)
        want = _scalar_reference(text)
        assert got.tobytes() == want.tobytes(), f"embedding drifted for {text[:50]!r}"

