"""Tests for the PNG codec."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.media.png import PNG_SIGNATURE, decode_png, encode_png, png_dimensions
from tests.helpers import png_bytes


def gradient_image(height: int, width: int) -> np.ndarray:
    ys = np.linspace(0, 255, height).astype(np.uint8)[:, None]
    xs = np.linspace(0, 255, width).astype(np.uint8)[None, :]
    r = np.broadcast_to(ys, (height, width))
    g = np.broadcast_to(xs, (height, width))
    b = ((r.astype(int) + g.astype(int)) // 2).astype(np.uint8)
    return np.stack([r, g, b], axis=2)


class TestEncode:
    def test_signature_and_chunks(self):
        data = encode_png(gradient_image(8, 8))
        assert data.startswith(PNG_SIGNATURE)
        assert b"IHDR" in data and b"IDAT" in data and data.endswith(b"IEND" + data[-4:])

    def test_dimensions_in_ihdr(self):
        data = encode_png(gradient_image(16, 32))
        assert png_dimensions(data) == (32, 16)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            encode_png(np.zeros((8, 8), dtype=np.uint8))

    def test_wrong_dtype_rejected(self):
        with pytest.raises(ValueError):
            encode_png(np.zeros((8, 8, 3), dtype=np.float64))

    def test_smooth_image_compresses_well(self):
        pixels = gradient_image(64, 64)
        assert len(encode_png(pixels)) < pixels.nbytes / 4


class TestDecode:
    def test_roundtrip_gradient(self):
        pixels = gradient_image(32, 48)
        assert np.array_equal(decode_png(encode_png(pixels)), pixels)

    def test_roundtrip_noise(self):
        rng = np.random.default_rng(42)
        pixels = rng.integers(0, 256, size=(24, 24, 3), dtype=np.uint8)
        assert np.array_equal(decode_png(encode_png(pixels)), pixels)

    def test_roundtrip_flat(self):
        pixels = np.full((10, 10, 3), 77, dtype=np.uint8)
        assert np.array_equal(decode_png(encode_png(pixels)), pixels)

    def test_roundtrip_single_pixel(self):
        pixels = np.array([[[1, 2, 3]]], dtype=np.uint8)
        assert np.array_equal(decode_png(encode_png(pixels)), pixels)

    def test_not_png_rejected(self):
        with pytest.raises(ValueError):
            decode_png(b"JFIF not a png")

    def test_corrupted_crc_rejected(self):
        data = bytearray(encode_png(gradient_image(8, 8)))
        data[20] ^= 0xFF  # flip a bit inside IHDR
        with pytest.raises(ValueError):
            decode_png(bytes(data))

    def test_generated_images_decode(self):
        """The diffusion simulator's output must survive its own codec."""
        from repro.devices import WORKSTATION
        from repro.genai.image import generate_image
        from repro.genai.registry import SD3_MEDIUM

        result = generate_image(SD3_MEDIUM, WORKSTATION, "a fjord", 64, 64, 15)
        assert np.array_equal(decode_png(png_bytes(result)), result.pixels)


class TestExternalFilters:
    """Our encoder only emits NONE/SUB/UP; the decoder must still handle
    AVERAGE and PAETH rows from external encoders."""

    @staticmethod
    def build_png(rows_filtered: list[bytes], width: int) -> bytes:
        import struct
        import zlib

        from repro.media.png import PNG_SIGNATURE

        def chunk(ctype: bytes, body: bytes) -> bytes:
            crc = zlib.crc32(ctype + body) & 0xFFFFFFFF
            return struct.pack(">L", len(body)) + ctype + body + struct.pack(">L", crc)

        ihdr = struct.pack(">LLBBBBB", width, len(rows_filtered), 8, 2, 0, 0, 0)
        idat = zlib.compress(b"".join(rows_filtered))
        return PNG_SIGNATURE + chunk(b"IHDR", ihdr) + chunk(b"IDAT", idat) + chunk(b"IEND", b"")

    def test_average_filter_decodes(self):
        pixels = gradient_image(4, 4)
        raw = pixels.reshape(4, 12).astype(np.int16)
        rows = [bytes([0]) + raw[0].astype(np.uint8).tobytes()]  # first row NONE
        for y in range(1, 4):
            prior = raw[y - 1]
            left = np.concatenate([np.zeros(3, dtype=np.int16), raw[y][:-3]])
            filtered = (raw[y] - (left + prior) // 2).astype(np.uint8)
            rows.append(bytes([3]) + filtered.tobytes())
        decoded = decode_png(self.build_png(rows, 4))
        assert np.array_equal(decoded, pixels)

    def test_paeth_filter_decodes(self):
        from repro.media.png import _paeth

        pixels = gradient_image(4, 4)
        raw = pixels.reshape(4, 12)
        rows = [bytes([0]) + raw[0].tobytes()]
        for y in range(1, 4):
            prior = raw[y - 1]
            left = np.concatenate([np.zeros(3, dtype=np.uint8), raw[y][:-3]])
            up_left = np.concatenate([np.zeros(3, dtype=np.uint8), prior[:-3]])
            predictor = _paeth(left, prior, up_left)
            filtered = (raw[y].astype(np.int16) - predictor).astype(np.uint8)
            rows.append(bytes([4]) + filtered.tobytes())
        decoded = decode_png(self.build_png(rows, 4))
        assert np.array_equal(decoded, pixels)

    def test_unknown_filter_rejected(self):
        pixels = gradient_image(2, 2)
        rows = [bytes([9]) + pixels.reshape(2, 6)[y].tobytes() for y in range(2)]
        with pytest.raises(ValueError):
            decode_png(self.build_png(rows, 2))


class TestProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_roundtrip_random_images(self, height, width, seed):
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
        assert np.array_equal(decode_png(encode_png(pixels)), pixels)
