"""Counts read where they are kept (:meth:`MetricsRegistry.source`): a
component's own tallies become counters and gauges when its registry is
scraped, and read as copies pushed into instruments did."""

import gc
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.gencache import GenerationCache, GenerationKey
from repro.gencache.key import image_key
from repro.obs import EventLog, MetricsRegistry
from repro.obs.metrics import Samples
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.workloads import build_news_article, build_travel_blog

GENCACHE = {"layer": "gencache"}


def key(prompt: str) -> GenerationKey:
    return image_key("sd-3-medium", prompt, 64, 64, 20)


class _Tally:
    """A source whose count is a plain int and whose level is read from
    its owner."""

    def __init__(self) -> None:
        self.count = 0

    def samples(self, out: Samples, owner) -> None:
        out.counter("obs_things_total", "things", self.count, layer="obs")
        if owner is not None:
            out.gauge("obs_things_depth", "depth", owner.depth, layer="obs")


class _Owner:
    def __init__(self, registry: MetricsRegistry, depth: int) -> None:
        self.tally = _Tally()
        self.depth = depth
        registry.source(self.tally, self)


class TestOneRule:
    def test_two_sources_of_one_family_sum_as_two_pushes_did(self):
        pushed, read = MetricsRegistry(), MetricsRegistry()
        logs = [EventLog(registry=read), EventLog(registry=read)]
        for index, log in enumerate(logs):
            for _ in range(index + 2):
                log.begin("server.request").finish(status=200)
                pushed.counter(
                    "obs_events_total", "Wide events recorded, by event type",
                    layer="obs", operation="server.request",
                ).inc()
        assert read.value("obs_events_total", layer="obs", operation="server.request") == 5
        expected = {
            (name, kind, inst.labels, inst.value)
            for name, kind, _help, members in pushed.collect()
            for inst in members
        }
        assert {
            (name, kind, inst.labels, inst.value)
            for name, kind, _help, members in read.collect()
            for inst in members
        } == expected

    def test_a_counter_outlives_its_cache_and_a_gauge_does_not(self):
        registry = MetricsRegistry()
        cache = GenerationCache(registry=registry)
        survivor = GenerationCache(registry=registry)
        assert cache.lookup(key("alpha")) is None
        cache.insert(key("alpha"), b"x" * 100, sim_time_s=3.0, energy_wh=0.5)
        assert cache.lookup(key("alpha")) is not None
        survivor.insert(key("beta"), b"y" * 40)
        assert registry.value("gencache_used_bytes", **GENCACHE) == 140
        assert registry.value("gencache_hits_total", operation="hit", **GENCACHE) == 1

        del cache
        gc.collect()
        assert registry.value("gencache_hits_total", operation="hit", **GENCACHE) == 1
        assert registry.value("gencache_misses_total", operation="miss", **GENCACHE) == 1
        assert registry.value("gencache_saved_sim_seconds_total", **GENCACHE) == 3.0 - 0.001
        assert registry.value("gencache_used_bytes", **GENCACHE) == 40
        assert registry.total("gencache_used_bytes") == 40

        # A counter keeps counting on from what the collected cache left.
        survivor.lookup(key("beta"))
        assert registry.value("gencache_hits_total", operation="hit", **GENCACHE) == 2
        del survivor
        gc.collect()
        assert registry.value("gencache_hits_total", operation="hit", **GENCACHE) == 2
        assert registry.value("gencache_used_bytes", **GENCACHE) == 0

    def test_a_source_collected_between_scrapes_still_counts(self):
        registry = MetricsRegistry()
        owner = _Owner(registry, depth=3)
        owner.tally.count = 4
        del owner
        gc.collect()
        assert registry.value("obs_things_total", layer="obs") == 4
        assert "obs_things_depth" not in {name for name, *_ in registry.collect()}

    def test_reset_rebases_every_source(self):
        registry = MetricsRegistry()
        owners = [_Owner(registry, depth=2), _Owner(registry, depth=5)]
        owners[0].tally.count, owners[1].tally.count = 3, 4
        dead = _Owner(registry, depth=1)
        dead.tally.count = 10
        del dead
        gc.collect()
        assert registry.value("obs_things_total", layer="obs") == 17

        registry.reset()
        families = {name: members for name, _kind, _help, members in registry.collect()}
        assert "obs_things_total" not in families, "a rebased counter reads as one never counted"
        assert registry.value("obs_things_depth", layer="obs") == 7, "levels are not rebased"

        owners[1].tally.count += 2
        assert registry.value("obs_things_total", layer="obs") == 2
        del owners
        gc.collect()
        assert registry.value("obs_things_total", layer="obs") == 2
        assert registry.value("obs_things_depth", layer="obs") == 0

    def test_a_counted_zero_exists_as_an_incremented_zero_did(self):
        registry = MetricsRegistry()

        class Zero:
            def samples(self, out, _owner):
                out.counter("obs_zero_total", "zero", 0.0, counted=True, layer="obs")
                out.counter("obs_none_total", "none", 0, layer="obs")

        registry.source(Zero())
        names = {name for name, *_ in registry.collect()}
        assert "obs_zero_total" in names and "obs_none_total" not in names

    def test_an_instrument_handed_out_holds_the_current_value(self):
        registry = MetricsRegistry()
        owner = _Owner(registry, depth=1)
        owner.tally.count = 6
        assert registry.counter("obs_things_total", layer="obs").value == 6


def counters(registry: MetricsRegistry) -> dict[tuple, float]:
    return {
        (name, inst.labels): inst.value
        for name, kind, _help, members in registry.collect()
        if kind == "counter"
        for inst in members
    }


class TestScrapesUnderMutation:
    def test_scrapes_never_raise_or_see_a_counter_go_down(self):
        """Capable and naive fetches of two pages (the naive ones
        materialise on the executor) and a pool of threads hitting a shared
        cache, while three threads scrape the registry every millisecond
        under a short switch interval."""
        registry = MetricsRegistry()
        store = SiteStore()
        pages = [build_news_article(), build_travel_blog()]
        for page in pages:
            store.add_page(PageResource(page.path, page.sww_html))
        cache = GenerationCache(registry=registry)
        server = GenerativeServer(store, registry=registry, events=EventLog(registry=registry), gencache=cache)
        capable = GenerativeClient(registry=registry)
        naive = GenerativeClient(gen_ability=False, registry=registry)
        scrapes: list[list[dict]] = [[], [], []]
        errors: list[BaseException] = []
        stop = threading.Event()

        def scrape(seen: list[dict]) -> None:
            try:
                while not stop.is_set():
                    seen.append(counters(registry.snapshot()))
                    time.sleep(0.001)
            except BaseException as exc:  # pragma: no cover - the failure under test
                errors.append(exc)

        def churn(index: int) -> None:
            probe = key(f"churn-{index % 8}")
            if cache.lookup(probe) is None:
                cache.insert(probe, bytes(64 + index))

        scrapers = [threading.Thread(target=scrape, args=(seen,)) for seen in scrapes]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        for scraper in scrapers:
            scraper.start()
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                churned = pool.map(churn, range(400))
                for _ in range(3):
                    for page in pages:
                        for client in (capable, naive):
                            pair = connect_in_memory(client, server)
                            assert client.fetch_via_pair(pair, page.path).status == 200
                            pair.close()
                list(churned)
        finally:
            stop.set()
            for scraper in scrapers:
                scraper.join(timeout=30)
            sys.setswitchinterval(interval)

        assert not errors, errors
        assert all(len(seen) > 5 for seen in scrapes), "a scraper never overlapped the work"
        for seen in scrapes:
            for before, after in zip(seen, seen[1:]):
                for name, value in before.items():
                    assert after.get(name, 0) >= value, f"{name} went down: {value} -> {after.get(name)}"
        final = counters(registry)
        assert final[("sww_requests_total", (("layer", "sww"), ("operation", "server-generated")))] == 6
        assert final[("sww_requests_total", (("layer", "sww"), ("operation", "generative")))] == 6
        assert sum(
            value for (name, _labels), value in final.items() if name == "gencache_misses_total"
        ) == cache.stats.misses
