"""A from-scratch PNG codec for 8-bit RGB images.

Implements the PNG container (signature, IHDR/IDAT/IEND chunks, CRC-32),
zlib-compressed scanlines, and the five standard scanline filters. The
decoder reverses any filter, so images produced by other encoders (colour
type 2, bit depth 8, no interlace) also decode.

There are two encoders, and a PNG's effort follows where its bytes go.
:func:`encode_png` picks a filter per row with the standard minimum-sum-of-
absolute-differences heuristic and deflates at :data:`DEFLATE_LEVEL`: it
writes every PNG that is sent or stored (response bodies, cache entries).
:func:`encode_png_stored` writes filter NONE on every row and stored
deflate blocks: it is for images that never leave the process that made
them, where compression buys nothing (docs/PERFORMANCE.md).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

#: The deflate effort of every PNG that is sent or stored, chosen by
#: measurement (docs/PERFORMANCE.md): filtered scanlines of generated
#: images are ``[noise, 0, small]`` byte triples, so deflate's hash chains
#: are long and zlib's default 6 walks 128 probes per position where level
#: 4 walks 16 — over 3x the encode time for the last 6 % of ratio.
DEFLATE_LEVEL = 4

_FILTER_NONE = 0
_FILTER_SUB = 1
_FILTER_UP = 2
_FILTER_AVERAGE = 3
_FILTER_PAETH = 4


def _chunk(chunk_type: bytes, data: bytes) -> tuple[bytes, bytes, bytes, bytes]:
    """The four parts of one chunk; the CRC is chained so ``data`` is not copied."""
    crc = zlib.crc32(data, zlib.crc32(chunk_type))
    return struct.pack(">L", len(data)), chunk_type, data, struct.pack(">L", crc)


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Paeth predictor, vectorised over a scanline."""
    a16 = a.astype(np.int16)
    b16 = b.astype(np.int16)
    c16 = c.astype(np.int16)
    p = a16 + b16 - c16
    pa = np.abs(p - a16)
    pb = np.abs(p - b16)
    pc = np.abs(p - c16)
    out = np.where((pa <= pb) & (pa <= pc), a16, np.where(pb <= pc, b16, c16))
    return out.astype(np.uint8)


def _scanlines(pixels: np.ndarray) -> np.ndarray:
    """The (H, W*3) rows of a validated (H, W, 3) uint8 image."""
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) RGB array, got shape {pixels.shape}")
    if pixels.dtype != np.uint8:
        raise ValueError(f"expected uint8 pixels, got {pixels.dtype}")
    height, width, _ = pixels.shape
    return np.ascontiguousarray(pixels).reshape(height, width * 3)


def _png_file(width: int, height: int, idat: bytes) -> bytes:
    ihdr = struct.pack(">LLBBBBB", width, height, 8, 2, 0, 0, 0)
    return b"".join(
        (PNG_SIGNATURE, *_chunk(b"IHDR", ihdr), *_chunk(b"IDAT", idat), *_chunk(b"IEND", b""))
    )


def encode_png(pixels: np.ndarray, compress_level: int = DEFLATE_LEVEL) -> bytes:
    """Encode an (H, W, 3) uint8 array as PNG bytes."""
    raw = _scanlines(pixels)
    height, stride = raw.shape
    bpp = 3
    # The encoder restricts itself to NONE/SUB/UP: all three decode with
    # vectorised numpy (SUB is a mod-256 prefix sum), so our own files
    # decode fast; AVERAGE/PAETH remain supported on decode for externally
    # produced PNGs. All three filters are whole-image shifts, so the
    # candidates for every row are computed in one numpy shot instead of a
    # per-row python loop; uint8 subtraction wraps mod 256, which is the
    # filter arithmetic.
    sub = raw.copy()
    sub[:, bpp:] -= raw[:, :-bpp]
    up = raw.copy()
    up[1:] -= raw[:-1]
    candidates = (raw, sub, up)  # in filter-type order NONE, SUB, UP
    # Minimum sum of absolute differences heuristic (PNG spec §12.8): a
    # byte x read as signed has magnitude min(x, 256 - x), and 256 - x is
    # uint8 negation. Integer sums are exact, and argmin's first-minimum
    # rule matches the old dict-iteration tie-break (NONE before SUB
    # before UP).
    costs = np.stack(
        [np.minimum(c, np.negative(c)).sum(axis=1, dtype=np.uint32) for c in candidates]
    )
    best = np.argmin(costs, axis=0)
    filtered = np.empty((height, stride + 1), dtype=np.uint8)
    filtered[:, 0] = best
    body = filtered[:, 1:]
    body[:] = raw
    for filter_type in (_FILTER_SUB, _FILTER_UP):
        rows = best == filter_type
        body[rows] = candidates[filter_type][rows]

    return _png_file(pixels.shape[1], height, zlib.compress(filtered, compress_level))


def encode_png_stored(pixels: np.ndarray) -> bytes:
    """Encode an (H, W, 3) uint8 array as a PNG that is not compressed.

    Every row carries filter NONE and the zlib stream holds stored blocks
    (level 0), so the encode is a copy and two checksums: no filter search,
    no match finding. The file is about four times :func:`encode_png`'s and
    decodes to the same pixels, so it is for images that stay in-process.
    """
    raw = _scanlines(pixels)
    height, stride = raw.shape
    filtered = np.zeros((height, stride + 1), dtype=np.uint8)
    filtered[:, 1:] = raw
    return _png_file(pixels.shape[1], height, zlib.compress(filtered, 0))


def png_dimensions(data: bytes) -> tuple[int, int]:
    """Return (width, height) from the IHDR chunk without a full decode."""
    if not data.startswith(PNG_SIGNATURE):
        raise ValueError("not a PNG file")
    if data[12:16] != b"IHDR":
        raise ValueError("first chunk is not IHDR")
    width, height = struct.unpack(">LL", data[16:24])
    return width, height


def _iter_chunks(data: bytes):
    offset = len(PNG_SIGNATURE)
    while offset + 8 <= len(data):
        (length,) = struct.unpack(">L", data[offset : offset + 4])
        ctype = data[offset + 4 : offset + 8]
        body = data[offset + 8 : offset + 8 + length]
        if len(body) != length:
            raise ValueError("truncated PNG chunk")
        (expected_crc,) = struct.unpack(">L", data[offset + 8 + length : offset + 12 + length])
        if zlib.crc32(ctype + body) & 0xFFFFFFFF != expected_crc:
            raise ValueError(f"CRC mismatch in {ctype!r} chunk")
        yield ctype, body
        offset += 12 + length
        if ctype == b"IEND":
            return


def decode_png(data: bytes) -> np.ndarray:
    """Decode PNG bytes into an (H, W, 3) uint8 array.

    Supports bit depth 8, colour type 2 (truecolour RGB), no interlace —
    exactly what :func:`encode_png` emits.
    """
    if not data.startswith(PNG_SIGNATURE):
        raise ValueError("not a PNG file")
    width = height = None
    idat = bytearray()
    for ctype, body in _iter_chunks(data):
        if ctype == b"IHDR":
            width, height, depth, colour, _comp, _filt, interlace = struct.unpack(">LLBBBBB", body)
            if depth != 8 or colour != 2:
                raise ValueError(f"unsupported PNG format: depth={depth} colour={colour}")
            if interlace:
                raise ValueError("interlaced PNG not supported")
        elif ctype == b"IDAT":
            idat += body
    if width is None or height is None:
        raise ValueError("missing IHDR")

    raw = zlib.decompress(bytes(idat))
    bpp = 3
    stride = width * bpp
    if len(raw) != height * (stride + 1):
        raise ValueError("PNG scanline data has unexpected length")

    out = np.zeros((height, stride), dtype=np.uint8)
    zero_row = np.zeros(stride, dtype=np.uint8)
    for y in range(height):
        start = y * (stride + 1)
        filter_type = raw[start]
        row = np.frombuffer(raw, dtype=np.uint8, count=stride, offset=start + 1).copy()
        prior = out[y - 1] if y else zero_row
        if filter_type == _FILTER_NONE:
            out[y] = row
        elif filter_type == _FILTER_UP:
            out[y] = (row.astype(np.int16) + prior).astype(np.uint8)
        elif filter_type == _FILTER_SUB:
            # recon[x] = row[x] + recon[x - bpp]: a per-channel prefix sum
            # modulo 256, which numpy computes in one shot.
            deltas = row.reshape(-1, bpp).astype(np.uint64)
            out[y] = (np.cumsum(deltas, axis=0) % 256).astype(np.uint8).reshape(stride)
        elif filter_type in (_FILTER_AVERAGE, _FILTER_PAETH):
            # These need the already-reconstructed left neighbour: go per-pixel
            # group but vectorise across the 3 channels.
            recon = out[y]
            for x in range(0, stride, bpp):
                left = recon[x - bpp : x] if x else zero_row[:bpp]
                up = prior[x : x + bpp]
                if filter_type == _FILTER_AVERAGE:
                    predictor = ((left.astype(np.int16) + up.astype(np.int16)) // 2).astype(np.uint8)
                else:
                    up_left = prior[x - bpp : x] if x else zero_row[:bpp]
                    predictor = _paeth(left, up, up_left)
                recon[x : x + bpp] = (row[x : x + bpp].astype(np.int16) + predictor).astype(np.uint8)
        else:
            raise ValueError(f"unknown PNG filter type {filter_type}")
    return out.reshape(height, width, bpp)
