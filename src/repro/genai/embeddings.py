"""Deterministic text and image embeddings.

These stand in for the CLIP text/image towers and SBERT: fixed-dimension
vectors where *semantic overlap → cosine similarity*. Text embeds as a
hashed bag of words (each token hashed to a signed pseudo-random direction,
summed, L2-normalised), so texts sharing vocabulary align and unrelated
texts are near-orthogonal — the property every similarity experiment in the
paper relies on.

Images carry their content vector in the pixel grid itself: the diffusion
simulator renders the (noisy) prompt embedding into per-block channel
means, and :func:`image_embedding` recovers it by block-averaging. A
random image therefore recovers a random vector, reproducing the paper's
CLIP floor of ≈0.09 for an unprompted image.
"""

from __future__ import annotations

import re

import numpy as np

from repro._util.hashing import stable_hash

EMBED_DIM = 256
#: Image block grid: 16×16 blocks carry the 256 embedding dimensions.
GRID = 16
#: Pixel encoding gain: embedding value v maps to byte 127.5·(1 + GAIN·v).
PIXEL_GAIN = 4.0

_WORD_RE = re.compile(r"[a-z0-9']+")

_STOPWORDS = frozenset(
    """a an the of to in and or is are was were be been it its this that with
    for on at by from as but not no so if then than into over under out up
    down off very just only own same too can will would should may might
    have has had do does did""".split()
)


def tokenize_words(text: str) -> list[str]:
    """Lowercased word tokens, stopwords removed."""
    return [w for w in _WORD_RE.findall(text.lower()) if w not in _STOPWORDS]


def _token_direction(token: str) -> np.ndarray:
    """A stable pseudo-random unit-variance direction for one token."""
    digest = stable_hash("embed-token", token)
    # Expand the 32-byte digest into EMBED_DIM signed values.
    seed = int.from_bytes(digest[:8], "big")
    rng = np.random.default_rng(seed)
    return rng.standard_normal(EMBED_DIM)


# Token directions are pure functions of the token; cache them.
_DIRECTION_CACHE: dict[str, np.ndarray] = {}


def token_direction(token: str) -> np.ndarray:
    cached = _DIRECTION_CACHE.get(token)
    if cached is None:
        cached = _token_direction(token)
        # Bound the cache so pathological inputs cannot grow it unbounded.
        if len(_DIRECTION_CACHE) > 65536:
            _DIRECTION_CACHE.clear()
        _DIRECTION_CACHE[token] = cached
    return cached


def _direction_stack(tokens: list[str]) -> np.ndarray:
    """Gather cached token directions into a C-contiguous (T, DIM) stack."""
    stack = np.empty((len(tokens), EMBED_DIM))
    for i, token in enumerate(tokens):
        stack[i] = token_direction(token)
    return stack


def text_embedding(text: str) -> np.ndarray:
    """Embed text as an L2-normalised hashed bag of words."""
    tokens = tokenize_words(text)
    if not tokens:
        return np.zeros(EMBED_DIM)
    # One C-level reduction over the stacked directions. ``np.add.reduce``
    # over axis 0 of a contiguous stack accumulates row by row in order, so
    # the sum is bit-identical to the per-token accumulation loop it
    # replaces (pinned by tests/genai/test_embedding_vectorised.py).
    total = np.add.reduce(_direction_stack(tokens), axis=0)
    norm = np.linalg.norm(total)
    return total / norm if norm else total


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, 0.0 when either vector is zero."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def embed_vector_to_blocks(vector: np.ndarray) -> np.ndarray:
    """Map an embedding to a GRID×GRID byte plane (the image's R channel)."""
    if vector.shape != (EMBED_DIM,):
        raise ValueError(f"expected ({EMBED_DIM},) vector, got {vector.shape}")
    clipped = np.clip(vector * PIXEL_GAIN, -1.0, 1.0)
    bytes_plane = np.round(127.5 * (1.0 + clipped)).astype(np.uint8)
    return bytes_plane.reshape(GRID, GRID)


def blocks_to_embed_vector(plane: np.ndarray) -> np.ndarray:
    """Invert :func:`embed_vector_to_blocks` (up to quantisation)."""
    if plane.shape != (GRID, GRID):
        raise ValueError(f"expected ({GRID}, {GRID}) plane, got {plane.shape}")
    return (plane.astype(np.float64).reshape(EMBED_DIM) / 127.5 - 1.0) / PIXEL_GAIN


def image_embedding(pixels: np.ndarray) -> np.ndarray:
    """Recover an image's content embedding from its pixels.

    Block-averages the red channel over a GRID×GRID tiling and inverts the
    pixel mapping, then L2-normalises. Works for any image size at least
    GRID×GRID; arbitrary (non-generated) images yield incoherent vectors,
    which is exactly the "random image" behaviour the CLIP floor needs.
    """
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got shape {pixels.shape}")
    height, width, _ = pixels.shape
    if height < GRID or width < GRID:
        raise ValueError(f"image smaller than {GRID}x{GRID} cannot carry an embedding")
    red = pixels[:, :, 0].astype(np.float64)
    # Average within each block; handle sizes not divisible by GRID by
    # trimming the remainder (generation always uses divisible sizes).
    bh, bw = height // GRID, width // GRID
    trimmed = red[: bh * GRID, : bw * GRID]
    blocks = trimmed.reshape(GRID, bh, GRID, bw).mean(axis=(1, 3))
    vector = blocks_to_embed_vector(np.round(blocks).astype(np.uint8).astype(np.float64).reshape(GRID, GRID))
    norm = np.linalg.norm(vector)
    return vector / norm if norm else vector
