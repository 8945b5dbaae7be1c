"""The shared gencache tier: cross-process single-flight over HTTP/2."""

import asyncio
import dataclasses
import threading

import pytest

from repro.gencache.store import CachedGeneration, GenCacheStats, GenerationCache
from repro.obs import MetricsRegistry
from repro.serving.cachetier import CacheTierServer, encode_generation
from repro.serving.h2util import MiniH2Server, MiniRequest, MiniResponse
from repro.serving.remote import RemoteGenerationCache


class _Key:
    """Stand-in for a GenerationKey: the cache addresses by digest only."""

    def __init__(self, digest: str) -> None:
        self.digest = digest


async def _off_the_loop(body, port, facades):
    """Build ``facades`` facades to ``port`` on the running loop, as a worker
    does, and run ``body(*facades)`` on an executor thread, as a worker's
    materialisation does; the facades are closed afterwards."""
    loop = asyncio.get_running_loop()
    workers = [RemoteGenerationCache("127.0.0.1", port) for _ in range(facades)]
    try:
        return await loop.run_in_executor(None, body, *workers)
    finally:
        for worker in workers:
            await loop.run_in_executor(None, worker.close)


def _run_with_tier(flight_timeout_s, body, facades=1):
    """Serve a tier on an ephemeral port and run ``body(tier, *facades)``."""

    async def main():
        tier = CacheTierServer(registry=MetricsRegistry(), flight_timeout_s=flight_timeout_s)
        server = await tier.server().serve(host="127.0.0.1", port=0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await _off_the_loop(lambda *workers: body(tier, *workers), port, facades)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


def _without_tier(body):
    """Run ``body(facade)`` against a port nobody listens on."""
    return asyncio.run(_off_the_loop(body, 1, 1))


def test_cross_worker_single_flight_coalesces():
    """Two 'workers' ask for the same key concurrently: exactly one
    generation, one coalesced waiter, bit-identical payloads."""
    payload = b"\x00\x01generated-bytes\xff" * 64
    results = {}

    def body(tier, worker_a, worker_b):
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

    tier = _run_with_tier(30.0, body, facades=2)

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

    def body(tier, worker):
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

        def request(method, path, body=b"", headers=()):
            return tier.handle(MiniRequest(method, path, "sww-cache.internal", body, 1, list(headers)))

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
        headers, generation = encode_generation(CachedGeneration(None, b"bytes", "", 2.0, 0.01))
        published = await request("PUT", "/gencache/dead", generation, headers)
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

    def body(cache):
        assert cache.lookup(_Key("any")) is None
        assert cache.insert(_Key("any"), payload=b"p", text="", sim_time_s=1.0, energy_wh=0.0) is False
        assert cache.errors >= 1
        cache.close()

    _without_tier(body)


def test_tier_server_interface_matches_local_cache():
    """The facade quacks like GenerationCache where MediaGenerator cares."""
    local = GenerationCache()

    def body(remote):
        for name in ("lookup", "insert", "record_coalesced", "hit_time_s", "stats"):
            assert hasattr(remote, name), name
        assert remote.hit_time_s == local.hit_time_s
        remote.close()

    _without_tier(body)


_GENERATION = CachedGeneration(None, b"\x89PNG-bytes", "alt", 6.0, 0.02)
_GOOD_HEADERS, _GOOD_BODY = encode_generation(_GENERATION)


def _with(headers, name, value):
    """``headers`` with ``name`` set to ``value``, or dropped when it is None."""
    kept = [(key, old) for key, old in headers if key != name]
    return kept if value is None else [*kept, (name, value)]


_MALFORMED_FLOATS = {
    "missing": None,
    "non-numeric": b"six",
    "nan": b"nan",
    "inf": b"inf",
    "negative": b"-1.0",
}
_MALFORMED_PUTS = {
    **{
        f"{field.decode()} {case}": (_with(_GOOD_HEADERS, field, value), _GOOD_BODY)
        for field in (b"x-sww-sim-time-s", b"x-sww-energy-wh")
        for case, value in _MALFORMED_FLOATS.items()
    },
    "text-bytes missing": (_with(_GOOD_HEADERS, b"x-sww-text-bytes", None), _GOOD_BODY),
    "text-bytes non-numeric": (_with(_GOOD_HEADERS, b"x-sww-text-bytes", b"three"), _GOOD_BODY),
    "text-bytes negative": (_with(_GOOD_HEADERS, b"x-sww-text-bytes", b"-1"), _GOOD_BODY),
    "text longer than the body": (
        _with(_GOOD_HEADERS, b"x-sww-text-bytes", str(len(_GOOD_BODY) + 1).encode()),
        _GOOD_BODY,
    ),
    "text prefix not utf-8": (_GOOD_HEADERS, b"\xff\xfe\xfd" + _GOOD_BODY[3:]),
    "a JSON body and no headers": ([], b'{"payload": "!!!"}'),
}
_MALFORMED_COALESCES = {
    f"{field.decode()} {case}": _with(
        [(b"x-sww-sim-time-s", b"6.0"), (b"x-sww-energy-wh", b"0.02")], field, value
    )
    for field in (b"x-sww-sim-time-s", b"x-sww-energy-wh")
    for case, value in _MALFORMED_FLOATS.items()
}


@pytest.mark.parametrize(
    "method, path, headers, body",
    [
        *(("PUT", "/gencache/d1", h, b) for h, b in _MALFORMED_PUTS.values()),
        *(("POST", "/coalesced", h, b"") for h in _MALFORMED_COALESCES.values()),
    ],
    ids=[*(f"PUT {case}" for case in _MALFORMED_PUTS), *(f"coalesced {case}" for case in _MALFORMED_COALESCES)],
)
def test_malformed_tier_input_gets_400_and_changes_nothing(method, path, headers, body):
    async def main():
        tier = CacheTierServer()
        lead = await tier.handle(MiniRequest("GET", "/gencache/d1", "sww-cache.internal", b"", 1))
        assert dict(lead.headers)[b"x-sww-cache"] == b"lead"
        flight = tier._flights["d1"]
        stats = dataclasses.replace(tier.cache.stats)
        response = await tier.handle(MiniRequest(method, path, "sww-cache.internal", body, 3, headers))
        assert response.status == 400
        assert tier._flights == {"d1": flight} and not flight.published.is_set()
        assert tier.cache.stats == stats and tier.cache.entry_count == 0

    asyncio.run(main())


def test_coalesced_waiter_gets_the_leaders_bytes_as_published():
    """Parked waiters get the leader's body and generation headers byte for
    byte, even where the tier would have spelt a float differently."""

    async def main():
        tier = CacheTierServer()

        def request(method, headers=(), body=b""):
            return tier.handle(MiniRequest(method, "/gencache/d1", "sww-cache.internal", body, 1, list(headers)))

        await request("GET")  # lead
        waiter = asyncio.create_task(request("GET"))
        await asyncio.sleep(0)
        published = [
            (b"x-sww-text-bytes", b"3"),
            (b"x-sww-sim-time-s", b"6"),
            (b"x-sww-energy-wh", b"2e-2"),
        ]
        body = b"alt\x89PNG-bytes"
        assert (await request("PUT", [(b"user-agent", b"leader"), *published], body)).status == 204
        answer = await asyncio.wait_for(waiter, 2)
        return answer, published, body, tier.cache.stats

    answer, published, body, stats = asyncio.run(main())
    assert answer.status == 200 and answer.body == body
    assert answer.headers == [(b"x-sww-cache", b"coalesced"), *published]
    assert stats.coalesced == 1 and stats.saved_energy_wh == 0.02


def test_malformed_hit_degrades_to_a_miss():
    """A tier answer this end cannot read is a degraded lookup, not a hit."""
    bad_hit = MiniResponse(
        body=_GOOD_BODY,
        content_type="application/octet-stream",
        headers=[(b"x-sww-cache", b"hit"), *_with(_GOOD_HEADERS, b"x-sww-energy-wh", b"nan")],
    )

    async def handler(request):
        return bad_hit

    async def main():
        server = await MiniH2Server(handler).serve(host="127.0.0.1", port=0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await _off_the_loop(
                lambda worker: (worker.lookup(_Key("d1")), worker.errors, worker.stats), port, 1
            )
        finally:
            server.close()
            await server.wait_closed()

    record, errors, stats = asyncio.run(main())
    assert record is None and errors == 1 and stats.hits == 0


def test_facade_refuses_to_block_its_own_loop():
    """Called on the loop it waits on, a call would hang the worker: it
    raises at once instead, before touching the tier."""

    async def main():
        facade = RemoteGenerationCache("127.0.0.1", 1)
        calls = {
            "lookup": lambda: facade.lookup(_Key("d1")),
            "insert": lambda: facade.insert(_Key("d1"), payload=b"p"),
            "record_coalesced": lambda: facade.record_coalesced(1.0, 0.0),
            "close": facade.close,
        }
        for name, call in calls.items():
            with pytest.raises(RuntimeError, match="own event loop"):
                call()
        await asyncio.get_running_loop().run_in_executor(None, facade.close)
        return facade

    facade = asyncio.run(main())
    assert facade.errors == 0 and facade.stats == GenCacheStats()
