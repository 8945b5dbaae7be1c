"""The shared gencache tier: cross-process single-flight over HTTP/2."""

import asyncio
import threading

from repro.gencache.store import CachedGeneration, GenerationCache
from repro.obs import MetricsRegistry
from repro.serving.cachetier import CacheTierServer, encode_envelope
from repro.serving.h2util import MiniRequest
from repro.serving.remote import RemoteGenerationCache


class _Key:
    """Stand-in for a GenerationKey: the cache addresses by digest only."""

    def __init__(self, digest: str) -> None:
        self.digest = digest


def _run_with_tier(flight_timeout_s, body):
    """Serve a tier on an ephemeral port and run ``body(tier, port)``."""

    async def main():
        tier = CacheTierServer(registry=MetricsRegistry(), flight_timeout_s=flight_timeout_s)
        server = await tier.server().serve(host="127.0.0.1", port=0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await asyncio.get_running_loop().run_in_executor(
                None, body, tier, port
            )
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


def test_cross_worker_single_flight_coalesces():
    """Two 'workers' ask for the same key concurrently: exactly one
    generation, one coalesced waiter, bit-identical payloads."""
    payload = b"\x00\x01generated-bytes\xff" * 64
    results = {}

    def body(tier, port):
        worker_a = RemoteGenerationCache("127.0.0.1", port)
        worker_b = RemoteGenerationCache("127.0.0.1", port)
        a_led = threading.Event()

        def leader():
            miss = worker_a.lookup(_Key("d1"))
            results["a_first"] = miss
            a_led.set()
            # "Generate" while B parks on the tier's flight.
            import time

            time.sleep(0.3)
            results["a_insert"] = worker_a.insert(
                _Key("d1"), payload=payload, text="alt", sim_time_s=6.0, energy_wh=0.02
            )

        def waiter():
            a_led.wait(5)
            record = worker_b.lookup(_Key("d1"))
            results["b_record"] = record

        threads = [threading.Thread(target=leader), threading.Thread(target=waiter)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        results["b_again"] = worker_b.lookup(_Key("d1"))
        results["a_stats"] = worker_a.stats
        results["b_stats"] = worker_b.stats
        worker_a.close()
        worker_b.close()
        # Every call has been answered; nothing touches the tier now.
        results["flights"] = len(tier._flights)
        return tier.cache.stats

    tier = _run_with_tier(30.0, body)

    assert results["a_first"] is None  # leader saw the miss and led
    assert results["a_insert"] is True
    record = results["b_record"]
    assert isinstance(record, CachedGeneration)
    assert record.payload == payload  # bit-identical to the leader's publish
    assert record.text == "alt" and record.sim_time_s == 6.0
    again = results["b_again"]
    assert again is not None and again.payload == payload

    assert tier.misses == 1  # one generation led, fleet-wide
    assert tier.coalesced == 1  # one waiter absorbed in flight
    assert tier.hits == 1  # the post-publish lookup
    assert tier.insertions == 1
    assert results["flights"] == 0
    # Worker-local facades kept their own view of the same outcomes.
    assert results["a_stats"].misses == 1 and results["a_stats"].insertions == 1
    assert results["b_stats"].coalesced == 1 and results["b_stats"].hits == 1


def test_flight_timeout_promotes_waiter_to_leader():
    """A parked waiter whose leader dies is promoted after the timeout."""

    def body(tier, port):
        worker = RemoteGenerationCache("127.0.0.1", port)
        # A leader that never publishes (crashed worker).
        assert worker.lookup(_Key("dead")) is None
        # The waiter parks, times out, and is told to lead.
        promoted = worker.lookup(_Key("dead"))
        # Copied before the publish below changes them.
        misses, coalesced = tier.cache.stats.misses, tier.cache.stats.coalesced
        # The promoted leader can publish and later lookups hit.
        assert worker.insert(_Key("dead"), payload=b"x", text="", sim_time_s=1.0, energy_wh=0.0)
        hit = worker.lookup(_Key("dead"))
        worker.close()
        return promoted, misses, coalesced, hit

    promoted, misses, coalesced, hit = _run_with_tier(0.25, body)
    assert promoted is None  # promoted waiter leads (counted as a miss)
    assert misses == 2 and coalesced == 0
    assert hit is not None and hit.payload == b"x"


def test_dead_leader_promotes_one_waiter_and_the_rest_ride_it():
    """Three waiters park late on a silent leader: they wait only what is
    left of its budget, exactly one is told to lead, and the other two
    coalesce onto the promoted leader's publish."""
    timeout_s = 0.3

    async def main():
        tier = CacheTierServer(flight_timeout_s=timeout_s)
        loop = asyncio.get_running_loop()

        def request(method, path, body=b""):
            return tier.handle(MiniRequest(method, path, "sww-cache.internal", body, 1))

        async def outcome():
            response = await request("GET", "/gencache/dead")
            return dict(response.headers)[b"x-sww-cache"], loop.time()

        assert (await outcome())[0] == b"lead"  # the leader that then goes silent
        await asyncio.sleep(0.25)
        parked_at = loop.time()
        waiters = [asyncio.create_task(outcome()) for _ in range(3)]
        done, _ = await asyncio.wait(waiters, timeout=2, return_when=asyncio.FIRST_COMPLETED)
        assert len(done) == 1, "exactly one waiter is promoted"
        promoted_outcome, promoted_at = done.pop().result()
        assert promoted_outcome == b"lead"
        # It waited the remainder of the dead leader's budget, not a fresh one.
        assert promoted_at - parked_at < timeout_s - 0.1
        await asyncio.sleep(0.02)
        assert sum(task.done() for task in waiters) == 1  # the others re-parked
        published = await request(
            "PUT", "/gencache/dead", encode_envelope(b"bytes", "", 2.0, 0.01)
        )
        assert published.status == 204
        results = await asyncio.wait_for(asyncio.gather(*waiters), 2)
        assert loop.time() - parked_at <= timeout_s
        return sorted(result[0] for result in results), tier.cache.stats, len(tier._flights)

    outcomes, stats, flights = asyncio.run(main())
    assert outcomes == [b"coalesced", b"coalesced", b"lead"]
    assert stats.misses == 2 and stats.coalesced == 2 and stats.hits == 0
    assert stats.insertions == 1 and flights == 0


def test_remote_cache_degrades_without_tier():
    """No tier listening: lookups degrade to misses, inserts to no-ops —
    the worker keeps serving on its own generation."""
    cache = RemoteGenerationCache("127.0.0.1", 1)
    assert cache.lookup(_Key("any")) is None
    assert cache.insert(_Key("any"), payload=b"p", text="", sim_time_s=1.0, energy_wh=0.0) is False
    assert cache.errors >= 1
    cache.close()


def test_tier_server_interface_matches_local_cache():
    """The facade quacks like GenerationCache where MediaGenerator cares."""
    local = GenerationCache()
    remote = RemoteGenerationCache("127.0.0.1", 1)
    for name in ("lookup", "insert", "record_coalesced", "hit_time_s", "stats"):
        assert hasattr(remote, name), name
    assert remote.hit_time_s == local.hit_time_s
    remote.close()
