"""One encoder, one deflate effort.

``repro.media.png.DEFLATE_LEVEL`` trades the last few percent of ratio
for a 3x cheaper encode (docs/PERFORMANCE.md has the table). This suite
pins what that trade may cost — exact round-trips, and a size bound
against level 9 that level 1 would break — and that every producer's PNG
for given pixels is ``encode_png(pixels)``. No timing asserts.
"""

import numpy as np
import pytest

from repro.batching import BatchingEngine
from repro.devices import LAPTOP, WORKSTATION
from repro.genai.image import generate_image, random_image
from repro.genai.registry import get_image_model
from repro.genai.upscale import ONE_STEP_SR, upscale_image
from repro.media.png import decode_png, encode_png
from tests.helpers import png_bytes

MODEL = get_image_model("sd-3-medium")
PROMPT = "a harbour at dawn with fishing boats and gulls"

#: Default-level bytes over level-9 bytes. Measured 1.053 / 1.071 / 1.107
#: on the 192² / 256² / 512² images below; level 1 reads 1.20-1.28.
SIZE_BOUND = 1.12


def _generated(side: int) -> np.ndarray:
    return generate_image(MODEL, LAPTOP, PROMPT, side, side).pixels


CORPUS = {
    "192": lambda: _generated(192),
    "256": lambda: _generated(256),
    "512": lambda: _generated(512),
    "upscaled": lambda: upscale_image(ONE_STEP_SR, LAPTOP, _generated(128), 2).pixels,
    "random": lambda: random_image(224, 224, seed=5),
}


@pytest.mark.parametrize("name", CORPUS)
def test_default_effort_is_lossless_and_within_the_pinned_price(name):
    pixels = CORPUS[name]()
    encoded = encode_png(pixels)
    assert np.array_equal(decode_png(encoded), pixels)
    assert len(encoded) <= SIZE_BOUND * len(encode_png(pixels, 9))


def test_level_one_would_break_the_bound():
    """The bound has teeth: the cheapest level sits outside it."""
    pixels = CORPUS["256"]()
    assert len(encode_png(pixels, 1)) > SIZE_BOUND * len(encode_png(pixels, 9))


def test_every_producer_emits_the_one_encoding():
    result = generate_image(MODEL, WORKSTATION, PROMPT, 256, 256)
    expected = encode_png(result.pixels)
    assert png_bytes(result) == expected

    with BatchingEngine(WORKSTATION, max_batch=2, max_wait_s=0.0) as engine:
        batched = engine.submit_image(MODEL, PROMPT, 256, 256).result(timeout=30)
    assert np.array_equal(batched.pixels, result.pixels)
    assert png_bytes(batched) == expected
