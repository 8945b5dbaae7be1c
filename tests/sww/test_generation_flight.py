"""One generation flight per process.

With a cache attached, :meth:`MediaGenerator.begin` checks whether the
item's key is already being generated here before it consults the cache,
so a duplicate — on the same page, on another request, solo or through
the batching engine — joins that flight and lands in exactly one ledger
outcome: hit, miss or coalesced. Without a cache nothing coalesces.
"""

import asyncio
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batching import BatchingEngine
from repro.devices import LAPTOP
from repro.gencache import GenerationCache
from repro.genai.pipeline import GenerationPipeline
from repro.html import parse_html
from repro.html.serializer import serialize
from repro.obs import EventLog
from repro.serving.cachetier import CacheTierServer
from repro.serving.remote import RemoteGenerationCache
from repro.sww.content import GeneratedContent
from repro.sww.media_generator import MediaGenerator
from repro.sww.page_processor import PageProcessor

PROMPTS = ("a lighthouse", "fishing boats", "a harbour wall")


def _page(prompts, size: int = 64) -> str:
    divisions = [
        serialize(GeneratedContent.image(prompt, name=f"view-{n}", width=size, height=size).to_element())
        for n, prompt in enumerate(prompts)
    ]
    return f"<html><body>{''.join(divisions)}</body></html>"


def _slow_kernel(generator: MediaGenerator, hold_s: float, started: threading.Event | None = None) -> None:
    """Hold each solo kernel ``hold_s`` so a concurrent duplicate arrives mid-flight."""
    real = generator.pipeline.generate_image

    def held(*args, **kwargs):
        if started is not None:
            started.set()
        time.sleep(hold_s)
        return real(*args, **kwargs)

    generator.pipeline.generate_image = held


def _concurrently(*calls):
    """Run each call on its own thread, released together; their results
    (or the exceptions they raised), in order."""
    barrier = threading.Barrier(len(calls))
    results = [None] * len(calls)

    def run(index, call):
        barrier.wait()
        try:
            results[index] = call()
        except BaseException as exc:  # handed back to the test
            results[index] = exc

    threads = [threading.Thread(target=run, args=pair, daemon=True) for pair in enumerate(calls)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    return results


class TestCrossRequestDuplicates:
    def test_default_serve_generates_a_concurrent_duplicate_once(self):
        # Cache on, no engine: the default ``serve`` configuration.
        cache = GenerationCache()
        generator = MediaGenerator(GenerationPipeline(LAPTOP), cache=cache)
        _slow_kernel(generator, 0.2)
        processor, html = PageProcessor(generator), _page(["a harbour at dusk"], 256)
        first, second = _concurrently(*[lambda: processor.process(parse_html(html))] * 2)
        assert first.assets == second.assets
        assert generator.pipeline.invocations == 1
        stats = cache.stats
        assert (stats.misses, stats.coalesced, stats.insertions, stats.hits) == (1, 1, 1, 0)
        assert generator._flights == {}

    def test_a_duplicate_riding_the_engine_is_booked_coalesced(self):
        cache = GenerationCache()
        with BatchingEngine(LAPTOP, max_batch=8, max_wait_s=0.2) as engine:
            generator = MediaGenerator(GenerationPipeline(LAPTOP), cache=cache, engine=engine)
            processor, html = PageProcessor(generator), _page(["a harbour at dusk"], 256)
            reports = _concurrently(*[lambda: processor.process(parse_html(html))] * 2)
            assert engine.stats.requests == 1
        stats = cache.stats
        assert (stats.misses, stats.coalesced, stats.insertions) == (1, 1, 1)
        led, rode = sorted(reports, key=lambda report: report.coalesced)
        assert rode.sim_time_s == cache.hit_time_s and rode.energy_wh == 0.0
        assert generator.total_time_s == led.sim_time_s + cache.hit_time_s
        assert led.assets == rode.assets

    def test_a_worker_labels_a_tier_coalesced_item_coalesced(self):
        """Two workers' generators, one tier: the item that parked on the
        other worker's flight is labelled as the tier counted it."""
        item = GeneratedContent.image("a harbour at dusk", name="dusk", width=64, height=64)
        log = EventLog()

        def run(facade_a, facade_b):
            generators = [
                MediaGenerator(GenerationPipeline(LAPTOP), cache=facade) for facade in (facade_a, facade_b)
            ]
            leading = threading.Event()
            _slow_kernel(generators[0], 0.3, started=leading)

            def fetch(generator, after=None):
                if after is not None:
                    after.wait(10)
                event = log.begin("server.request")
                with event.bind():
                    output = generator.generate(item)
                event.finish(status=200)
                return output, event.fields

            return _concurrently(lambda: fetch(generators[0]), lambda: fetch(generators[1], leading))

        async def main():
            tier = CacheTierServer()
            server = await tier.server().serve(host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            loop = asyncio.get_running_loop()
            facades = [RemoteGenerationCache("127.0.0.1", port) for _ in range(2)]
            try:
                return await loop.run_in_executor(None, run, *facades), tier.cache.stats
            finally:
                for facade in facades:
                    await loop.run_in_executor(None, facade.close)
                server.close()
                await server.wait_closed()

        ((led, led_event), (rode, rode_event)), tier_stats = asyncio.run(main())
        assert (tier_stats.misses, tier_stats.coalesced, tier_stats.hits) == (1, 1, 0)
        assert led_event["gencache_outcome"] == "miss" and not led.cache_hit
        assert rode_event["gencache_outcome"] == "coalesced"
        assert rode_event["gencache_coalesced"] == 1 and "gencache_hits" not in rode_event
        assert rode.coalesced and rode.payload == led.payload


    @pytest.mark.parametrize("max_batch", [None, 4], ids=["solo", "engine"])
    def test_many_threads_generate_each_key_once(self, max_batch):
        # More threads than cores, switching as often as the interpreter
        # allows: a lost update to the flight table would generate a key
        # twice, book an item twice, or leave a flight behind.
        pages = [_page(PROMPTS[n % 3:] + PROMPTS[: n % 3] + PROMPTS[:1]) for n in range(8)]
        cache = GenerationCache()
        engine = BatchingEngine(LAPTOP, max_batch=max_batch, max_wait_s=0.0) if max_batch else None
        generator = MediaGenerator(GenerationPipeline(LAPTOP), cache=cache, engine=engine)
        processor = PageProcessor(generator)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reports = _concurrently(*[lambda html=html: processor.process(parse_html(html)) for html in pages])
        finally:
            sys.setswitchinterval(interval)
            if engine is not None:
                engine.close()
        stats = cache.stats
        assert generator.pipeline.invocations == stats.misses == stats.insertions == len(PROMPTS)
        assert stats.hits + stats.misses + stats.coalesced == 4 * len(pages) == generator.generated_count
        assert sum(report.coalesced for report in reports) == stats.coalesced
        assert generator._flights == {}


#: (max_batch, cached) per run: solo, an engine at batch size 1 and at 4.
RUNS = [(batch, cached) for batch in (None, 1, 4) for cached in (False, True)]


def _process(prompts, max_batch, cached):
    cache = GenerationCache() if cached else None
    engine = BatchingEngine(LAPTOP, max_batch=max_batch, max_wait_s=0.0) if max_batch else None
    try:
        generator = MediaGenerator(GenerationPipeline(LAPTOP), cache=cache, engine=engine)
        return PageProcessor(generator).process(parse_html(_page(prompts))), generator
    finally:
        if engine is not None:
            engine.close()


class TestProperties:
    # A page costs a few milliseconds per run, so tier-1 takes a tenth of
    # the loaded profile's count; CI's sweep (--hypothesis-profile=sweep)
    # allows 2 000, enough to cover all 1 092 pages.
    @settings(max_examples=max(1, settings.default.max_examples // 10), deadline=None)
    @given(st.lists(st.sampled_from(PROMPTS), min_size=1, max_size=6))
    def test_engine_and_cache_change_no_bytes_and_batch_one_is_solo(self, prompts):
        runs = {run: _process(prompts, *run) for run in RUNS}
        reports = {run: report for run, (report, _generator) in runs.items()}
        assets = [list(report.assets.items()) for report in reports.values()]
        assert all(run_assets == assets[0] for run_assets in assets)
        for cached in (False, True):
            solo, one = reports[None, cached], reports[1, cached]
            assert (one.sim_time_s, one.energy_wh) == (solo.sim_time_s, solo.energy_wh)
            # Hit and coalesced may swap; nothing else may.
            assert [o.cache_hit for o in one.outputs] == [o.cache_hit for o in solo.outputs]
        for (_batch, cached), (_report, generator) in runs.items():
            assert generator._flights == {}
            if cached:
                stats = generator.cache.stats
                assert stats.hits + stats.misses + stats.coalesced == len(prompts)
