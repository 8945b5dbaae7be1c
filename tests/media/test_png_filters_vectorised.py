"""The whole-image PNG filter pass must emit the exact bytes the old
per-row loop did.

The encoder's candidate filters (NONE/SUB/UP), the minimum-sum-of-
absolute-differences cost, and the tie-break order are all replicated in
one vectorised shot; this suite pins byte-identical output against the
original row-loop implementation over a corpus of random, structured and
generated images. The decoder is untouched, so round-trips double-check.
"""

import struct
import zlib

import numpy as np
import pytest

from repro.devices import LAPTOP
from repro.genai.image import generate_image
from repro.genai.registry import get_image_model
from repro.media.png import DEFLATE_LEVEL, PNG_SIGNATURE, decode_png, encode_png


def _chunk(chunk_type: bytes, data: bytes) -> bytes:
    """The original chunk writer (one CRC over a concatenated copy)."""
    crc = zlib.crc32(chunk_type + data) & 0xFFFFFFFF
    return struct.pack(">L", len(data)) + chunk_type + data + struct.pack(">L", crc)


def _encode_rowloop(pixels: np.ndarray, compress_level: int = DEFLATE_LEVEL) -> bytes:
    """The original per-row encoder, kept verbatim as the oracle; only its
    default effort follows the encoder's."""
    height, width, _ = pixels.shape
    bpp = 3
    raw = pixels.reshape(height, width * bpp)
    zero_row = np.zeros(width * bpp, dtype=np.uint8)
    filtered_rows: list[bytes] = []
    for y in range(height):
        row = raw[y]
        prior = raw[y - 1] if y else zero_row
        left = np.concatenate([np.zeros(bpp, dtype=np.uint8), row[:-bpp]])
        candidates = {
            0: row,
            1: (row.astype(np.int16) - left).astype(np.uint8),
            2: (row.astype(np.int16) - prior).astype(np.uint8),
        }
        best_type = min(
            candidates,
            key=lambda t: int(np.abs(candidates[t].astype(np.int8).astype(np.int16)).sum()),
        )
        filtered_rows.append(bytes([best_type]) + candidates[best_type].tobytes())
    ihdr = struct.pack(">LLBBBBB", width, height, 8, 2, 0, 0, 0)
    idat = zlib.compress(b"".join(filtered_rows), compress_level)
    return PNG_SIGNATURE + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def _corpus() -> list[np.ndarray]:
    rng = np.random.default_rng(0x9E6)
    images = [
        rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        for (h, w) in ((1, 1), (1, 9), (6, 1), (2, 3), (16, 16), (37, 23), (64, 64))
    ]
    # Structured content exercises each filter's win conditions: flats
    # pick NONE, horizontal gradients pick SUB, vertical repetition UP.
    images.append(np.zeros((24, 24, 3), dtype=np.uint8))
    images.append(np.full((24, 24, 3), 200, dtype=np.uint8))
    images.append(np.tile(np.arange(96, dtype=np.uint8)[None, :, None], (32, 1, 3)))
    images.append(np.tile(np.arange(48, dtype=np.uint8)[:, None, None], (1, 64, 3)))
    images.append(
        generate_image(
            get_image_model("sd-3-medium"), LAPTOP, "png corpus image", 256, 256
        ).pixels
    )
    return images


@pytest.mark.parametrize("index", range(len(_corpus())))
def test_vectorised_encoder_byte_identical(index):
    pixels = _corpus()[index]
    assert encode_png(pixels) == _encode_rowloop(pixels)


@pytest.mark.parametrize("level", [0, 1, 4, 6, 9])
def test_compress_levels_byte_identical(level):
    pixels = _corpus()[5]
    assert encode_png(pixels, level) == _encode_rowloop(pixels, level)


def test_roundtrip_still_exact():
    for pixels in _corpus():
        assert np.array_equal(decode_png(encode_png(pixels)), pixels)


def test_thousand_random_images_byte_identical():
    """Differential run against the row loop: random shapes, and pixel
    values coarsened at random so rows tie and every filter wins somewhere."""
    rng = np.random.default_rng(0x1000)
    chosen = set()
    for _ in range(1000):
        height, width = (int(n) for n in rng.integers(1, 13, size=2))
        pixels = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
        pixels = pixels // rng.choice([1, 16, 64, 128]) * rng.choice([1, 3])
        pixels = pixels.astype(np.uint8)
        if rng.random() < 0.3:
            pixels = np.cumsum(pixels, axis=int(rng.integers(0, 2)), dtype=np.uint8)
        encoded = encode_png(pixels)
        assert encoded == _encode_rowloop(pixels), pixels.tolist()
        filtered = zlib.decompress(encoded[41:-16])  # sole IDAT body: after IHDR, before CRC + IEND
        chosen.update(filtered[:: width * 3 + 1])
    assert chosen == {0, 1, 2}
