"""The one page path: ``begin`` every item in document order, then ``complete``.

Solo, it overlaps PNG encodes with the kernels after them, and only
wall-clock order may change: every output, simulated cost, counter and
cache decision must equal what the same page yields when each encode
runs inline, right after its kernel — the order the code had before the
shared encode pool existed. The inline reference is built by swapping
``encode_png_async`` for a stub that encodes on the calling thread.

With a batching engine attached the same loop, on the same one thread,
fills the engine's window; bytes never depend on engine or cache.
"""

import contextvars
import os
import threading
import time
from concurrent.futures import Future, wait

import numpy as np
import pytest

import repro.batching.engine as engine_module
import repro.genai.image as image_module
import repro.sww.media_generator as generator_module
from repro.batching import BatchingEngine
from repro.devices import LAPTOP, WORKSTATION
from repro.gencache import DEFAULT_GENCACHE_BYTES, GenerationCache
from repro.genai.image import encode_png_async, generate_image
from repro.genai.pipeline import GenerationPipeline
from repro.genai.registry import SD3_MEDIUM
from repro.html import parse_html
from repro.html.serializer import serialize
from repro.media.png import decode_png, encode_png, encode_png_stored
from repro.obs import MetricsRegistry
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.content import GeneratedContent
from repro.sww.media_generator import MediaGenerator
from repro.sww.page_processor import PageProcessor
from repro.sww.server import AssetResource, GenerativeServer, PageResource, SiteStore
from repro.workloads import build_harbour_gallery, build_wikimedia_landscape_page
from tests.helpers import png_bytes, upscaled_image


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
        thumb = png_bytes(generate_image(SD3_MEDIUM, WORKSTATION, prompt, 64, 64, 15))
        store.add_asset(AssetResource(src, thumb, "image/png"))
        item = upscaled_image(prompt, src, scale=2, name=f"fjord-{index}")
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


def _fetch(site: str, cache_bytes: int | None = None, max_batch: int | None = None) -> dict:
    """Fetch one page on a fresh client; everything the page path produced."""
    store, path = SITES[site]()
    registry = MetricsRegistry()
    cache = RecordingCache(cache_bytes, registry=registry) if cache_bytes is not None else None
    engine = BatchingEngine(LAPTOP, max_batch, registry=registry) if max_batch is not None else None
    client = GenerativeClient(device=LAPTOP, registry=registry, gencache=cache, engine=engine)
    pair = connect_in_memory(client, GenerativeServer(store))
    try:
        result = client.fetch_via_pair(pair, path)
    finally:
        if engine is not None:
            engine.close()
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
    # Room for about two 256² PNGs as the cache keeps them (deflated):
    # every page overflows it.
    capacity = 2 * len(_fetch(site, DEFAULT_GENCACHE_BYTES)["assets"][0][1]) + 1024
    pipelined = _fetch(site, capacity)
    _use_encoder(monkeypatch, _encode_inline)
    reference = _fetch(site, capacity)
    assert any(entry[0] == "insert" and entry[2] > 0 for entry in reference["cache_log"])
    if site == "gallery":
        assert any(entry[0] == "lookup" and entry[2] for entry in reference["cache_log"])
    for field in reference:
        assert pipelined[field] == reference[field], field


@pytest.mark.parametrize("site", sorted(SITES))
def test_bytes_do_not_depend_on_engine_or_cache(site):
    """Pixels never do; bytes follow the destination. A client without a
    cache keeps its images, written stored; with a cache every image the
    cache keeps is ``encode_png(pixels)`` (upscale items have no key, so
    nothing keeps them)."""
    reference = _fetch(site)
    for path, payload in reference["assets"]:
        assert payload == encode_png_stored(decode_png(payload)), path
    for max_batch in (None, 1, 8):
        for cache_bytes in (None, DEFAULT_GENCACHE_BYTES):
            if max_batch is None and cache_bytes is None:
                continue
            page = _fetch(site, cache_bytes, max_batch)
            assert page["final_html"] == reference["final_html"], (max_batch, cache_bytes)
            if cache_bytes is None:
                assert page["assets"] == reference["assets"], (max_batch, cache_bytes)
                continue
            assert [path for path, _ in page["assets"]] == [path for path, _ in reference["assets"]]
            for (path, payload), (_, local) in zip(page["assets"], reference["assets"]):
                pixels = decode_png(local)
                assert np.array_equal(decode_png(payload), pixels), (path, max_batch)
                kept = encode_png_stored(pixels) if site == "upscale" else encode_png(pixels)
                assert payload == kept, (path, max_batch)


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


def _image_page(prompts, engine=None, cache=None) -> tuple[PageProcessor, str]:
    """A bare processor and a page of small images (fast to encode)."""
    divisions = [
        serialize(GeneratedContent.image(prompt, name=f"view-{n}", width=64, height=64).to_element())
        for n, prompt in enumerate(prompts)
    ]
    html = f"<html><body>{''.join(divisions)}</body></html>"
    generator = MediaGenerator(GenerationPipeline(LAPTOP), cache=cache, engine=engine)
    return PageProcessor(generator), html


def _six_image_page(engine=None, cache=None) -> tuple[PageProcessor, str]:
    return _image_page([f"harbour view {n}" for n in range(6)], engine, cache)


def _full_window(size: int) -> BatchingEngine:
    """An engine whose batch closes the moment ``size`` requests are in."""
    return BatchingEngine(LAPTOP, max_batch=size, max_wait_s=10.0)


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


def test_one_thread_fills_the_engine_window():
    solo_processor, html = _six_image_page()
    solo = solo_processor.process(parse_html(html))
    with _full_window(6) as engine:
        processor, _ = _six_image_page(engine)
        others = threading.active_count() - _encode_threads()
        report = processor.process(parse_html(html))
        assert threading.active_count() - _encode_threads() == others, "the page started a thread"
        assert (engine.stats.batches, engine.stats.largest_batch) == (1, 6)
    assert list(report.assets.items()) == list(solo.assets.items())
    assert report.sim_time_s < solo.sim_time_s  # amortised: one batch of six


@pytest.mark.parametrize("local", [False, True], ids=["sent", "local"])
def test_the_engine_path_encodes_at_the_destinations_effort(monkeypatch, local):
    """A sent result's encode starts on the pool once its batch lands,
    before the page collects it; a local result is never deflated, not
    even by ``settle``, and is written stored when collected."""
    encoder = _CountingEncoder()
    monkeypatch.setattr(image_module, "encode_png", encoder)
    with _full_window(2) as engine:
        processor, html = _image_page(["a lighthouse", "fishing boats"], engine)
        generator = processor.generator
        items = [item for _element, item in processor.find_items(parse_html(html))[0]]
        handles = [generator.begin(item, local) for item in items]
        wait([handle.kernel for handle in handles], timeout=10)
        deadline = time.monotonic() + 10  # done-callbacks run just after the waiters wake
        while encoder.calls < (0 if local else 2) and time.monotonic() < deadline:
            time.sleep(0.001)
        assert encoder.calls == (0 if local else 2)
        for handle in handles:
            handle.settle(RuntimeError("abandoned"))
        assert encoder.calls == (0 if local else 2)
        payloads = [generator.complete(handle).payload for handle in handles]
    assert encoder.calls == (0 if local else 2)
    for item, payload in zip(items, payloads):
        pixels = generate_image(SD3_MEDIUM, LAPTOP, item.prompt, 64, 64).pixels
        assert payload == (encode_png_stored(pixels) if local else encode_png(pixels))


def test_engine_with_cache_misses_then_hits():
    solo_processor, html = _six_image_page()
    solo = solo_processor.process(parse_html(html))
    cache = GenerationCache()
    with _full_window(6) as engine:
        processor, _ = _six_image_page(engine, cache)
        first = processor.process(parse_html(html))
        assert (cache.stats.misses, cache.stats.insertions, cache.stats.hits) == (6, 6, 0)
        again = processor.process(parse_html(html))
        assert (cache.stats.misses, cache.stats.insertions, cache.stats.hits) == (6, 6, 6)
        assert again.cache_hits == 6 and engine.stats.requests == 6
    assert list(first.assets.items()) == list(again.assets.items()) == list(solo.assets.items())


@pytest.mark.parametrize("cached", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("batched", [False, True], ids=["solo", "engine"])
def test_duplicate_prompts_land_in_one_outcome_each(batched, cached):
    """[A, A, B, A]: the cache dedupes into hits solo and onto the
    generator's flight while a kernel is pending at the engine; nothing
    dedupes without a cache."""
    prompts = ["a lighthouse", "a lighthouse", "fishing boats", "a lighthouse"]
    reference_processor, html = _image_page(prompts)
    reference = reference_processor.process(parse_html(html))
    cache = GenerationCache() if cached else None
    engine = _full_window(2) if batched else None
    try:
        processor, _ = _image_page(prompts, engine, cache)
        report = processor.process(parse_html(html))
    finally:
        if engine is not None:
            engine.close()
    assert list(report.assets.items()) == list(reference.assets.items())
    payloads = list(report.assets.values())
    assert payloads[0] == payloads[1] == payloads[3] != payloads[2]
    outcomes = [(output.cache_hit, output.coalesced) for output in report.outputs]
    generated, hit, rode = (False, False), (True, False), (True, True)
    if batched and cached:
        assert outcomes == [generated, rode, generated, rode]
    elif cached:
        assert outcomes == [generated, hit, generated, hit]
    else:
        assert outcomes == [generated] * 4
        if not batched:
            assert report.sim_time_s == reference.sim_time_s
    assert processor.generator.generated_count == 4
    assert processor.generator.pipeline.invocations == sum(o == generated for o in outcomes)
    if batched:
        assert engine.stats.requests == sum(o == generated for o in outcomes)
    if cached:
        stats = cache.stats
        assert (stats.hits, stats.coalesced) == ((0, 2) if batched else (2, 0))
        assert stats.hits + stats.misses + stats.coalesced == 4
        assert stats.misses == stats.insertions == 2


class TestFailures:
    def test_engine_batch_failure_surfaces_and_the_engine_survives(self, monkeypatch):
        boom = RuntimeError("kernel fault in batch 2")
        real, batches = engine_module.generate_image_batch, []

        def failing_second_batch(*args, **kwargs):
            batches.append(None)
            if len(batches) == 2:
                raise boom
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "generate_image_batch", failing_second_batch)
        encoder = _CountingEncoder(hold_s=0.02)
        monkeypatch.setattr(image_module, "encode_png", encoder)
        with _full_window(2) as engine:
            processor, html = _six_image_page(engine)
            with pytest.raises(RuntimeError) as caught:
                processor.process(parse_html(html))
            assert caught.value is boom
            # Batches 1 and 3 ran and encoded; nothing is left running.
            assert len(batches) == 3 and engine.stats.batches == 2
            assert encoder.calls == 4 and encoder.running == 0
            assert processor.generator.generated_count == 2
            assert len(processor.process(parse_html(html)).assets) == 6


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

        def begin(item, *args):
            if len(begun) == 3:
                raise RuntimeError("kernel failed on item 3")
            begun.append(item.name)
            return real_begin(item, *args)

        monkeypatch.setattr(generator, "begin", begin)
        with pytest.raises(RuntimeError, match="kernel failed on item 3"):
            processor.process(parse_html(html))
        # All three earlier encodes finished before the error left process().
        assert encoder.calls == 3 and encoder.running == 0
        assert generator.generated_count == 3
        monkeypatch.setattr(generator, "begin", real_begin)
        assert len(processor.process(parse_html(html)).assets) == 6

    @staticmethod
    def _fault(monkeypatch, fault: str, boom: Exception, prompt: str = "a lighthouse") -> None:
        """Make every batch that carries ``prompt`` raise ``boom``, in its
        kernel or in its PNG encode."""
        real_batch, real_encode = engine_module.generate_image_batch, image_module.encode_png
        doomed = generate_image(SD3_MEDIUM, LAPTOP, prompt, 64, 64).pixels

        def failing_batch(model, device, prompts, *args, **kwargs):
            if fault == "kernel" and prompt in prompts:
                raise boom
            return real_batch(model, device, prompts, *args, **kwargs)

        def failing_encode(pixels, *args, **kwargs):
            if fault == "encode" and (pixels == doomed).all():
                raise boom
            return real_encode(pixels, *args, **kwargs)

        monkeypatch.setattr(engine_module, "generate_image_batch", failing_batch)
        monkeypatch.setattr(image_module, "encode_png", failing_encode)

    @pytest.mark.parametrize("fault", ["kernel", "encode"])
    def test_a_same_page_joiner_raises_its_leaders_exception(self, monkeypatch, fault):
        boom = RuntimeError(f"{fault} fault")
        self._fault(monkeypatch, fault, boom)
        cache = GenerationCache()
        with BatchingEngine(LAPTOP, max_batch=2, max_wait_s=0.0) as engine:
            processor, html = _image_page(["a lighthouse", "a lighthouse"], engine, cache)
            generator = processor.generator
            # What process() does with this page: begin both, then complete.
            items = [item for _element, item in processor.find_items(parse_html(html))[0]]
            lead, joiner = [generator.begin(item) for item in items]
            for handle in (lead, joiner):
                with pytest.raises(RuntimeError) as caught:
                    generator.complete(handle)
                assert caught.value is boom
            with pytest.raises(RuntimeError) as caught:
                processor.process(parse_html(html))
            assert caught.value is boom
        assert generator._flights == {}
        assert (cache.stats.misses, cache.stats.coalesced, cache.stats.insertions) == (2, 0, 0)

    @pytest.mark.parametrize("fault", ["kernel", "encode"])
    def test_a_joiner_on_another_thread_raises_its_leaders_exception(self, monkeypatch, fault):
        boom = RuntimeError(f"{fault} fault")
        self._fault(monkeypatch, fault, boom)
        with BatchingEngine(LAPTOP, max_batch=8, max_wait_s=0.2) as engine:
            processor, html = _image_page(["a lighthouse"], engine, GenerationCache())
            barrier, raised = threading.Barrier(2), []

            def fetch():
                barrier.wait()
                try:
                    processor.process(parse_html(html))
                except RuntimeError as exc:
                    raised.append(exc)

            threads = [threading.Thread(target=fetch, daemon=True) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert engine.stats.requests == 1
        assert len(raised) == 2 and all(exc is boom for exc in raised)
        assert processor.generator._flights == {}

    def test_a_page_that_fails_early_fails_the_lead_it_holds(self, monkeypatch):
        # The page leads "a lighthouse", then the batch of its earlier item
        # (another slot) fails: a request that joined the lighthouse must
        # raise too, not wait for ever.
        boom = RuntimeError("kernel fault on the first item")
        self._fault(monkeypatch, "kernel", boom, prompt="fishing boats")
        boats = GeneratedContent.image("fishing boats", name="boats", width=128, height=64)
        lighthouse = GeneratedContent.image("a lighthouse", name="light", width=64, height=64)
        page = f"<html><body>{serialize(boats.to_element())}{serialize(lighthouse.to_element())}</body></html>"
        with BatchingEngine(LAPTOP, max_batch=8, max_wait_s=0.2) as engine:
            generator = MediaGenerator(GenerationPipeline(LAPTOP), cache=GenerationCache(), engine=engine)
            real_begin, leads, joined = generator.begin, threading.Event(), []

            def begin(item, *args):
                handle = real_begin(item, *args)
                if item.name == "light":
                    leads.set()
                return handle

            def join():
                leads.wait(10)
                try:
                    joined.append(generator.complete(real_begin(lighthouse)))
                except RuntimeError as exc:
                    joined.append(exc)

            monkeypatch.setattr(generator, "begin", begin)
            joiner = threading.Thread(target=join, daemon=True)
            joiner.start()
            with pytest.raises(RuntimeError) as caught:
                PageProcessor(generator).process(parse_html(page))
            joiner.join(timeout=10)
        assert caught.value is boom and joined == [boom]
        assert generator._flights == {}
        assert generator.cache.stats.insertions == 0

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
