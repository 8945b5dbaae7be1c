"""The stored PNG form, and where it may and may not appear.

``encode_png_stored`` writes filter NONE on every row and deflate level 0:
a client's own images are written that way, because their bytes never
leave the process. Every byte that is sent or kept by a cache stays
``encode_png(pixels)``: a server's response body, a ``GenerationCache``
insert and a ``RemoteGenerationCache`` publish.
"""

import asyncio
import struct
import zlib

import numpy as np
import pytest

from repro.devices import LAPTOP
from repro.gencache import GenerationCache
from repro.genai.image import random_image
from repro.media.png import PNG_SIGNATURE, decode_png, encode_png, encode_png_stored, png_dimensions
from repro.serving.cachetier import CacheTierServer
from repro.serving.remote import RemoteGenerationCache
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.workloads import build_harbour_gallery
from tests.media.test_png_effort import CORPUS

SHAPES = {
    "1x1": (1, 1),
    "odd-width": (5, 7),
    "odd-both": (9, 13),
    "one-row": (1, 31),
    "one-column": (17, 1),
}


def _chunks(data: bytes) -> dict[bytes, bytes]:
    """Chunk type → body (IDAT bodies joined), for a file ``decode_png`` accepts."""
    chunks: dict[bytes, bytes] = {}
    offset = len(PNG_SIGNATURE)
    while offset < len(data):
        (length,) = struct.unpack(">L", data[offset : offset + 4])
        ctype = data[offset + 4 : offset + 8]
        chunks[ctype] = chunks.get(ctype, b"") + data[offset + 8 : offset + 8 + length]
        offset += 12 + length
    return chunks


def _pixels(name: str) -> np.ndarray:
    if name in CORPUS:
        return CORPUS[name]()
    height, width = SHAPES[name]
    return random_image(width, height, seed=height * 31 + width)


@pytest.mark.parametrize("name", [*CORPUS, *SHAPES])
def test_stored_form_round_trips_exactly(name):
    pixels = _pixels(name)
    encoded = encode_png_stored(pixels)
    assert np.array_equal(decode_png(encoded), pixels)
    assert png_dimensions(encoded) == (pixels.shape[1], pixels.shape[0])


@pytest.mark.parametrize("name", ["256", "random", *SHAPES])
def test_every_row_is_unfiltered_and_idat_inflates(name):
    pixels = _pixels(name)
    height, width, _ = pixels.shape
    raw = zlib.decompress(_chunks(encode_png_stored(pixels))[b"IDAT"])
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, width * 3 + 1)
    assert not rows[:, 0].any(), "a row carries a filter"
    assert rows[:, 1:].tobytes() == pixels.tobytes()


def test_stored_form_skips_compression_and_differs_from_level_zero():
    """Level 0 of ``encode_png`` still searches filters; the stored form does not."""
    pixels = CORPUS["256"]()
    stored = encode_png_stored(pixels)
    assert len(stored) > pixels.nbytes  # the scanlines, uncompressed
    assert stored != encode_png(pixels, 0)
    assert len(encode_png(pixels)) < len(stored) / 3


def test_stored_form_rejects_what_encode_png_rejects():
    with pytest.raises(ValueError):
        encode_png_stored(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        encode_png_stored(np.zeros((4, 4, 3), dtype=np.float32))


def _gallery() -> tuple[SiteStore, str]:
    page = build_harbour_gallery()
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html))
    return store, page.path


def _deflated(payload: bytes) -> bool:
    return payload == encode_png(decode_png(payload))


def test_server_bodies_stay_deflated():
    store, path = _gallery()
    server = GenerativeServer(store)
    page = server.handle_request(path, client_gen_ability=False)
    assert page.status == 200
    generated = sorted(asset for asset in store.assets if asset.startswith("/generated/"))
    assert len(generated) == 6
    for asset in generated:
        body = server.handle_request(asset, client_gen_ability=False).body
        assert _deflated(body), asset


class _RecordingCache(GenerationCache):
    def __init__(self) -> None:
        super().__init__()
        self.payloads: list[bytes] = []

    def insert(self, key, payload, *args, **kwargs):
        self.payloads.append(payload)
        return super().insert(key, payload, *args, **kwargs)


def test_a_clients_cache_inserts_stay_deflated():
    """A client's cache may be shared with a server, so what it keeps is sent-form."""
    store, path = _gallery()
    cache = _RecordingCache()
    client = GenerativeClient(device=LAPTOP, gencache=cache)
    pair = connect_in_memory(client, GenerativeServer(store))
    result = client.fetch_via_pair(pair, path)
    pair.close()
    # Six images of three prompts: three generations, three hits.
    assert len(cache.payloads) == 3
    assert all(_deflated(payload) for payload in cache.payloads)
    assert set(cache.payloads) == set(result.report.assets.values())


def test_tier_publishes_stay_deflated():
    store, path = _gallery()
    tier = CacheTierServer()
    handle, published = tier.handle, []

    async def recording(request):
        if request.method == "PUT":
            published.append(request.body)
        return await handle(request)

    tier.handle = recording

    async def main():
        server = await tier.server().serve(host="127.0.0.1", port=0)
        loop = asyncio.get_running_loop()
        facade = RemoteGenerationCache("127.0.0.1", server.sockets[0].getsockname()[1])
        origin = GenerativeServer(store, gencache=facade)
        try:
            return await loop.run_in_executor(None, origin.handle_request, path, False)
        finally:
            await loop.run_in_executor(None, facade.close)
            server.close()
            await server.wait_closed()

    assert asyncio.run(main()).status == 200
    assert len(published) == 3  # one per distinct prompt
    assert all(_deflated(body) for body in published)
