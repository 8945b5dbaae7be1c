"""End-to-end tests for §2.2 upscale-mode content in the page flow."""

import asyncio

import pytest

from repro.devices import WORKSTATION
from repro.genai.image import generate_image
from repro.genai.registry import SD3_MEDIUM
from repro.html.serializer import serialize
from repro.media.png import decode_png
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.content import ContentError, ContentType, GeneratedContent
from repro.sww.server import AssetResource, GenerativeServer, PageResource, SiteStore
from tests.helpers import png_bytes, upscaled_image

DESCRIPTOR = "the author's own photo of a quiet fjord at dawn"


def make_site() -> tuple[SiteStore, bytes]:
    """A page with one upscale item; the server stores the small PNG."""
    thumb = png_bytes(generate_image(SD3_MEDIUM, WORKSTATION, DESCRIPTOR, 128, 128, 15))
    item = upscaled_image(DESCRIPTOR, "/thumbs/fjord.png", scale=4, name="fjord")
    html = f"<html><body>{serialize(item.to_element())}</body></html>"
    store = SiteStore()
    store.add_page(PageResource("/p", html))
    store.add_asset(AssetResource("/thumbs/fjord.png", thumb, "image/png"))
    return store, thumb


class TestContentModel:
    def test_factory_fields(self):
        item = upscaled_image("a photo", "/t.png", 2)
        assert item.content_type == ContentType.IMAGE
        assert item.upscale_src == "/t.png" and item.scale == 2

    def test_scale_bounds_validated(self):
        with pytest.raises(ContentError):
            upscaled_image("a photo", "/t.png", 5)
        with pytest.raises(ContentError):
            upscaled_image("a photo", "/t.png", 1)

    def test_src_and_scale_must_pair(self):
        with pytest.raises(ContentError):
            GeneratedContent(ContentType.IMAGE, {"prompt": "p", "scale": 2})
        with pytest.raises(ContentError):
            GeneratedContent(ContentType.IMAGE, {"prompt": "p", "upscale_src": "/x"})

    def test_plain_image_unaffected(self):
        item = GeneratedContent.image("a fjord")
        assert item.upscale_src is None and item.scale == 1


class TestEndToEnd:
    def test_client_fetches_thumb_and_upscales(self):
        store, thumb = make_site()
        client = GenerativeClient(device=WORKSTATION)
        pair = connect_in_memory(client, GenerativeServer(store))
        result = client.fetch_via_pair(pair, "/p")
        assert result.status == 200 and result.sww_mode
        assert result.report.generated_images == 1
        output = result.report.outputs[0]
        big = decode_png(output.payload)
        small = decode_png(thumb)
        assert big.shape == (512, 512, 3)  # 128 x 4
        # Semantics preserved: the upscale kept the content embedding.
        from repro.genai.embeddings import cosine_similarity, image_embedding

        assert cosine_similarity(image_embedding(big), image_embedding(small)) > 0.999

    def test_tcp_client_fetches_thumb_before_upscaling(self):
        """Over a socket too: the unpushed original is fetched on the
        page's connection before generation, and the upscale matches the
        in-memory one byte for byte."""
        store, thumb = make_site()
        client = GenerativeClient(device=WORKSTATION)

        async def fetch():
            listener = await GenerativeServer(store).serve_forever("127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            try:
                return await asyncio.wait_for(client.fetch_tcp("127.0.0.1", port, "/p"), 30)
            finally:
                listener.close()
                await listener.wait_closed()

        result = asyncio.run(fetch())
        assert result.status == 200 and result.report.generated_images == 1
        assert client.generator.asset_sources["/thumbs/fjord.png"] == thumb
        in_memory = GenerativeClient(device=WORKSTATION)
        reference = in_memory.fetch_via_pair(connect_in_memory(in_memory, GenerativeServer(store)), "/p")
        assert result.report.outputs[0].payload == reference.report.outputs[0].payload

    def test_upscale_much_cheaper_than_generation(self):
        store, _thumb = make_site()
        client = GenerativeClient(device=WORKSTATION)
        pair = connect_in_memory(client, GenerativeServer(store))
        result = client.fetch_via_pair(pair, "/p")
        # One step at 512² output: sub-second; full generation would be ~1.7 s+.
        assert result.generation_time_s < 0.5

    def test_wire_carries_thumb_not_full_image(self):
        store, thumb = make_site()
        client = GenerativeClient(device=WORKSTATION)
        pair = connect_in_memory(client, GenerativeServer(store))
        client.fetch_via_pair(pair, "/p")
        # The client fetched the thumb over the connection...
        assert "/thumbs/fjord.png" in client.generator.asset_sources
        # ...whose bytes are far below the modelled 512² media size.
        from repro.media.jpeg_model import jpeg_size

        assert len(thumb) < jpeg_size(512, 512)

    def test_missing_thumb_raises_clearly(self):
        item = upscaled_image(DESCRIPTOR, "/thumbs/gone.png", 2, name="x")
        html = f"<body>{serialize(item.to_element())}</body>"
        store = SiteStore()
        store.add_page(PageResource("/p", html))  # asset NOT stored
        client = GenerativeClient(device=WORKSTATION)
        pair = connect_in_memory(client, GenerativeServer(store))
        with pytest.raises(KeyError):
            client.fetch_via_pair(pair, "/p")

    def test_naive_client_served_upscaled_media(self):
        """A naive client gets the page with the server doing the upscale."""
        store, _thumb = make_site()
        naive = GenerativeClient(device=WORKSTATION, gen_ability=False)
        pair = connect_in_memory(naive, GenerativeServer(store))
        result = naive.fetch_via_pair(pair, "/p")
        assert result.status == 200 and not result.sww_mode
        assert "/generated/fjord.png" in result.received_html
        asset = naive.fetch_assets_via_pair(pair, result)["/generated/fjord.png"]
        assert decode_png(asset).shape == (512, 512, 3)

    def test_mixed_page_generate_and_upscale(self):
        store, _thumb = make_site()
        generated = GeneratedContent.image("a golden prairie", name="gen", width=64, height=64)
        mixed = (
            "<body>"
            + serialize(generated.to_element())
            + serialize(
                upscaled_image(DESCRIPTOR, "/thumbs/fjord.png", 2, name="up").to_element()
            )
            + "</body>"
        )
        store.add_page(PageResource("/mixed", mixed))
        client = GenerativeClient(device=WORKSTATION)
        pair = connect_in_memory(client, GenerativeServer(store))
        result = client.fetch_via_pair(pair, "/mixed")
        assert result.report.generated_images == 2
        sizes = {decode_png(o.payload).shape[0] for o in result.report.outputs}
        assert sizes == {64, 256}
