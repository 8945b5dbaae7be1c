"""Tests for the LRU edge cache."""

import pytest

from repro.cdn.cache import CacheEntry, EdgeCache


def eviction_order(cache: EdgeCache, keys: str) -> list[str]:
    """The cached ``keys`` (all the cache holds) from least- to most-recently
    used, read by evicting them one at a time: a probe one byte larger than
    the free space evicts exactly the LRU entry. Empties the cache of them."""
    order = []
    remaining = [key for key in keys if key in cache]
    while remaining:
        held = sum(cache.peek(key).size_bytes for key in remaining)
        cache.put(CacheEntry("probe", cache.capacity_bytes - held + 1))
        (victim,) = [key for key in remaining if key not in cache]
        order.append(victim)
        remaining.remove(victim)
    return order


class TestBasics:
    def test_put_get(self):
        cache = EdgeCache(1000)
        cache.put(CacheEntry("a", 100))
        assert cache.get("a").size_bytes == 100

    def test_miss_returns_none(self):
        cache = EdgeCache(1000)
        assert cache.get("nope") is None

    def test_contains(self):
        cache = EdgeCache(1000)
        cache.put(CacheEntry("a", 10))
        assert "a" in cache and "b" not in cache

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EdgeCache(0)

    def test_oversized_entry_rejected(self):
        with pytest.raises(ValueError):
            EdgeCache(10).put(CacheEntry("big", 11))

    def test_replace_updates_bytes(self):
        cache = EdgeCache(1000)
        cache.put(CacheEntry("a", 100))
        cache.put(CacheEntry("a", 300))
        assert cache.used_bytes == 300
        assert cache.entry_count == 1


class TestLru:
    def test_evicts_least_recently_used(self):
        cache = EdgeCache(300)
        cache.put(CacheEntry("a", 100))
        cache.put(CacheEntry("b", 100))
        cache.put(CacheEntry("c", 100))
        cache.get("a")  # touch a
        cache.put(CacheEntry("d", 100))  # must evict b
        assert "a" in cache and "b" not in cache and "c" in cache and "d" in cache

    def test_eviction_count(self):
        cache = EdgeCache(200)
        for key in "abcd":
            cache.put(CacheEntry(key, 100))
        assert cache.stats.evictions == 2

    def test_used_never_exceeds_capacity(self):
        cache = EdgeCache(250)
        for i in range(20):
            cache.put(CacheEntry(f"k{i}", 60 + i))
            assert cache.used_bytes <= 250


class TestStats:
    def test_hit_rate(self):
        cache = EdgeCache(1000)
        cache.put(CacheEntry("a", 1))
        cache.get("a")
        cache.get("a")
        cache.get("b")
        assert cache.stats.hits == 2 and cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_empty_hit_rate_zero(self):
        assert EdgeCache(10).stats.hit_rate == 0.0

    def test_clear(self):
        cache = EdgeCache(100)
        cache.put(CacheEntry("a", 50))
        cache.clear()
        assert cache.used_bytes == 0 and cache.entry_count == 0


class TestRejection:
    def test_try_put_rejects_oversized_without_state_change(self):
        cache = EdgeCache(100)
        cache.put(CacheEntry("a", 60))
        cache.put(CacheEntry("b", 30))
        before_used = cache.used_bytes
        assert not cache.try_put(CacheEntry("big", 101))
        assert cache.stats.rejected == 1
        assert cache.used_bytes == before_used
        assert cache.stats.evictions == 0
        assert eviction_order(cache, "ab") == ["a", "b"]

    def test_oversized_replace_keeps_existing_entry(self):
        """Rejecting an oversized update must not drop the old entry."""
        cache = EdgeCache(100)
        cache.put(CacheEntry("a", 60))
        assert not cache.try_put(CacheEntry("a", 200))
        assert cache.get("a").size_bytes == 60
        assert cache.used_bytes == 60

    def test_exact_capacity_entry_fits(self):
        cache = EdgeCache(100)
        assert cache.try_put(CacheEntry("a", 100))
        assert cache.used_bytes == 100

    def test_negative_size_raises(self):
        with pytest.raises(ValueError):
            EdgeCache(100).try_put(CacheEntry("a", -1))

    def test_put_still_raises_for_oversized(self):
        cache = EdgeCache(10)
        with pytest.raises(ValueError):
            cache.put(CacheEntry("big", 11))
        assert cache.stats.rejected == 1


class TestRecency:
    def test_get_touches_recency_exactly_once(self):
        # A second get of the same key leaves the relative order of the
        # other entries unchanged.
        for gets, order in (("", ["a", "b", "c"]), ("a", ["b", "c", "a"]), ("aa", ["b", "c", "a"])):
            cache = EdgeCache(1000)
            for key in "abc":
                cache.put(CacheEntry(key, 10))
            for key in gets:
                cache.get(key)
            assert eviction_order(cache, "abc") == order

    def test_get_miss_does_not_touch_recency(self):
        cache = EdgeCache(1000)
        for key in "ab":
            cache.put(CacheEntry(key, 10))
        cache.get("nope")
        assert eviction_order(cache, "ab") == ["a", "b"]

    def test_peek_touches_nothing(self):
        cache = EdgeCache(1000)
        for key in "ab":
            cache.put(CacheEntry(key, 10))
        before = (cache.stats.hits, cache.stats.misses)
        assert cache.peek("a").size_bytes == 10
        assert cache.peek("nope") is None
        assert (cache.stats.hits, cache.stats.misses) == before
        assert eviction_order(cache, "ab") == ["a", "b"]


class TestPromptVsBlobCapacity:
    def test_prompt_entries_two_orders_denser(self):
        """The §2.2 storage claim at cache level: the same capacity holds
        ~100x more prompt entries than media entries."""
        capacity = 1_000_000
        blob_cache, prompt_cache = EdgeCache(capacity), EdgeCache(capacity)
        blob_size, prompt_size = 32_768, 300
        i = 0
        while blob_cache.used_bytes + blob_size <= capacity:
            blob_cache.put(CacheEntry(f"b{i}", blob_size))
            i += 1
        i = 0
        while prompt_cache.used_bytes + prompt_size <= capacity:
            prompt_cache.put(CacheEntry(f"p{i}", prompt_size, kind="prompt"))
            i += 1
        assert prompt_cache.entry_count > 80 * blob_cache.entry_count
