"""The default page path overlaps PNG encodes with the kernels after them.

Only wall-clock order may change: every output, simulated cost, counter
and cache decision must equal what the same page yields when each encode
runs inline, right after its kernel — the order the code had before the
shared encode pool existed. The inline reference is built by swapping
``encode_png_async`` for a stub that encodes on the calling thread.
"""

import contextvars
import os
import threading
import time
from concurrent.futures import Future

import pytest

import repro.genai.image as image_module
import repro.sww.media_generator as generator_module
from repro.devices import LAPTOP, WORKSTATION
from repro.gencache import GenerationCache
from repro.genai.image import encode_png_async, generate_image
from repro.genai.pipeline import GenerationPipeline
from repro.genai.registry import SD3_MEDIUM
from repro.html import parse_html
from repro.html.serializer import serialize
from repro.media.png import encode_png
from repro.obs import MetricsRegistry
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.content import GeneratedContent
from repro.sww.media_generator import MediaGenerator
from repro.sww.page_processor import PageProcessor
from repro.sww.server import AssetResource, GenerativeServer, PageResource, SiteStore
from repro.workloads import build_harbour_gallery, build_wikimedia_landscape_page


def _corpus_site(page) -> tuple[SiteStore, str]:
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    return store, page.path


def _upscale_site() -> tuple[SiteStore, str]:
    store = SiteStore()
    parts = []
    for index in range(3):
        prompt = f"the author's own photo of fjord number {index}"
        src = f"/thumbs/fjord-{index}.png"
        thumb = generate_image(SD3_MEDIUM, WORKSTATION, prompt, 64, 64, 15).png_bytes()
        store.add_asset(AssetResource(src, thumb, "image/png"))
        item = GeneratedContent.upscaled_image(prompt, src, scale=2, name=f"fjord-{index}")
        parts.append(serialize(item.to_element()))
    store.add_page(PageResource("/p", f"<html><body>{''.join(parts)}</body></html>"))
    return store, "/p"


#: Threads the shared pool may hold on this host.
POOL_SIZE = min(image_module._ENCODE_POOL_CAP, os.cpu_count() or 1)

SITES = {
    "gallery": lambda: _corpus_site(build_harbour_gallery()),
    "fig2": lambda: _corpus_site(build_wikimedia_landscape_page(count=8)),
    "upscale": _upscale_site,
}


def _encode_inline(pixels) -> Future:
    future: Future = Future()
    try:
        future.set_result(image_module.encode_png(pixels))
    except Exception as exc:
        future.set_exception(exc)
    return future


def _use_encoder(monkeypatch, encoder) -> None:
    monkeypatch.setattr(image_module, "encode_png_async", encoder)
    monkeypatch.setattr(generator_module, "encode_png_async", encoder)


class RecordingCache(GenerationCache):
    """Logs every read and write with the eviction count it left behind."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.log: list[tuple] = []

    def lookup(self, key):
        record = super().lookup(key)
        self.log.append(("lookup", key.digest, record is not None))
        return record

    def insert(self, key, *args, **kwargs):
        stored = super().insert(key, *args, **kwargs)
        self.log.append(("insert", key.digest, self.evictions, self.entry_count))
        return stored


def _fetch(site: str, cache_bytes: int | None = None) -> dict:
    """Fetch one page on a fresh client; everything the page path produced."""
    store, path = SITES[site]()
    registry = MetricsRegistry()
    cache = RecordingCache(cache_bytes, registry=registry) if cache_bytes is not None else None
    client = GenerativeClient(device=LAPTOP, registry=registry, gencache=cache)
    pair = connect_in_memory(client, GenerativeServer(store))
    result = client.fetch_via_pair(pair, path)
    assert result.status == 200 and result.sww_mode
    report, generator = result.report, client.generator
    counters = {
        (name, instrument.labels): instrument.value
        for name, _kind, _help, instruments in registry.collect()
        if name.startswith(("genai_", "gencache_"))
        for instrument in instruments
    }
    return {
        "final_html": result.final_html,
        "assets": list(report.assets.items()),
        "outputs": [
            (o.item.name, o.payload, o.text, o.sim_time_s, o.energy_wh, o.asset_path, o.cache_hit)
            for o in report.outputs
        ],
        "report": (report.sim_time_s, report.energy_wh, report.generated_images, report.cache_hits),
        "generator": (
            generator.generated_count,
            generator.cache_hit_count,
            generator.total_time_s,
            generator.total_energy_wh,
            generator.pipeline.invocations,
        ),
        "counters": counters,
        "cache_log": cache.log if cache is not None else None,
    }


@pytest.mark.parametrize("site", sorted(SITES))
def test_pipelined_page_equals_inline_reference(site, monkeypatch):
    pipelined = _fetch(site)
    _use_encoder(monkeypatch, _encode_inline)
    reference = _fetch(site)
    assert len(pipelined["assets"]) >= 3
    assert all(payload.startswith(b"\x89PNG") for _path, payload in pipelined["assets"])
    assert pipelined["counters"] or site == "upscale"  # the upscale kernel reports no metrics
    for field in reference:
        assert pipelined[field] == reference[field], field


@pytest.mark.parametrize("site", ["gallery", "fig2"])
def test_tiny_cache_sees_the_serial_hit_miss_eviction_sequence(site, monkeypatch):
    # Room for about two 256² PNGs: every page overflows it.
    capacity = 2 * len(_fetch(site)["assets"][0][1]) + 1024
    pipelined = _fetch(site, capacity)
    _use_encoder(monkeypatch, _encode_inline)
    reference = _fetch(site, capacity)
    assert any(entry[0] == "insert" and entry[2] > 0 for entry in reference["cache_log"])
    if site == "gallery":
        assert any(entry[0] == "lookup" and entry[2] for entry in reference["cache_log"])
    for field in reference:
        assert pipelined[field] == reference[field], field


class _CountingEncoder:
    """An ``encode_png`` that counts calls and the most running at once."""

    def __init__(self, hold_s: float = 0.0) -> None:
        self.hold_s = hold_s
        self.calls = 0
        self.running = 0
        self.peak = 0
        self._lock = threading.Lock()

    def __call__(self, pixels, *args, **kwargs) -> bytes:
        with self._lock:
            self.calls += 1
            self.running += 1
            self.peak = max(self.peak, self.running)
        try:
            time.sleep(self.hold_s)
            return encode_png(pixels, *args, **kwargs)
        finally:
            with self._lock:
                self.running -= 1


def _six_image_page() -> tuple[PageProcessor, str]:
    """A bare processor and a page of six small images (fast to encode)."""
    divisions = [
        serialize(GeneratedContent.image(f"harbour view {n}", name=f"view-{n}", width=64, height=64).to_element())
        for n in range(6)
    ]
    html = f"<html><body>{''.join(divisions)}</body></html>"
    return PageProcessor(MediaGenerator(GenerationPipeline(LAPTOP))), html


@pytest.mark.skipif(POOL_SIZE < 2, reason="the pool has one thread per CPU; one CPU never overlaps")
def test_encodes_overlap_and_run_once_per_image(monkeypatch):
    # Each encode is held long enough that the next kernel finishes inside it.
    encoder = _CountingEncoder(hold_s=0.05)
    monkeypatch.setattr(image_module, "encode_png", encoder)
    processor, html = _six_image_page()
    report = processor.process(parse_html(html))
    assert len(report.assets) == 6
    assert encoder.peak >= 2, "no two encodes were ever in flight together"
    assert encoder.calls == 6


def _encode_threads() -> int:
    return sum(thread.name.startswith("png-encode") for thread in threading.enumerate())


def test_thread_count_is_stable_across_pages():
    """No page starts a thread of its own; the pool never outgrows its size."""
    processor, html = _six_image_page()
    others = threading.active_count() - _encode_threads()
    for _ in range(50):
        processor.process(parse_html(html))
    assert threading.active_count() - _encode_threads() == others
    assert 1 <= _encode_threads() <= POOL_SIZE


class TestFailures:
    def test_encode_failure_surfaces_as_the_original_exception(self, monkeypatch):
        boom = ValueError("encoder rejected the pixels")
        real, seen = image_module.encode_png, []

        def failing(pixels, *args, **kwargs):
            seen.append(pixels)
            if len(seen) == 2:
                raise boom
            return real(pixels, *args, **kwargs)

        monkeypatch.setattr(image_module, "encode_png", failing)
        processor, html = _six_image_page()
        with pytest.raises(ValueError) as caught:
            processor.process(parse_html(html))
        assert caught.value is boom
        item = GeneratedContent.image("a lighthouse", name="solo", width=64, height=64)
        seen[:] = [None]  # the next encode is the second again
        with pytest.raises(ValueError) as caught:
            processor.generator.generate(item)
        assert caught.value is boom
        # The pool took no damage: the next page encodes all six images.
        monkeypatch.setattr(image_module, "encode_png", real)
        assert len(processor.process(parse_html(html)).assets) == 6

    def test_kernel_failure_waits_for_the_encodes_before_it(self, monkeypatch):
        encoder = _CountingEncoder(hold_s=0.02)
        monkeypatch.setattr(image_module, "encode_png", encoder)
        processor, html = _six_image_page()
        generator = processor.generator
        real_begin, begun = generator.begin, []

        def begin(item):
            if len(begun) == 3:
                raise RuntimeError("kernel failed on item 3")
            begun.append(item.name)
            return real_begin(item)

        monkeypatch.setattr(generator, "begin", begin)
        with pytest.raises(RuntimeError, match="kernel failed on item 3"):
            processor.process(parse_html(html))
        # All three earlier encodes finished before the error left process().
        assert encoder.calls == 3 and encoder.running == 0
        assert generator.generated_count == 3
        monkeypatch.setattr(generator, "begin", real_begin)
        assert len(processor.process(parse_html(html)).assets) == 6

    def test_pooled_encode_runs_in_the_submitters_context(self, monkeypatch):
        marker: contextvars.ContextVar[str] = contextvars.ContextVar("marker", default="unset")
        seen: list[tuple[str, bool]] = []
        real = image_module.encode_png

        def observing(pixels, *args, **kwargs):
            seen.append((marker.get(), threading.current_thread() is threading.main_thread()))
            return real(pixels, *args, **kwargs)

        monkeypatch.setattr(image_module, "encode_png", observing)
        pixels = generate_image(SD3_MEDIUM, LAPTOP, "context", 64, 64).pixels
        marker.set("page-7")
        assert encode_png_async(pixels).result(timeout=5) == real(pixels)
        assert seen == [("page-7", False)]
