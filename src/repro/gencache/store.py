"""The content-addressed generation-result store.

A byte-accounted LRU (the :class:`~repro.cdn.cache.EdgeCache` accounting,
generalised from the CDN layer) that memoises generation outputs under
:class:`~repro.gencache.key.GenerationKey` digests. Each record keeps the
produced bytes *and* the simulated time/energy the original generation
cost, so a hit can report both what it costs now (a lookup) and what it
saved (the step time that was not re-paid).

Reporting rule (enforced by the Table-2/Fig-2 benchmarks): cache hits
never replace the paper's cold numbers — they accumulate into separate
"saved" counters and warm-scenario rows. A run with the cache disabled is
byte- and second-identical to the seed behaviour.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.cdn.cache import CacheEntry, EdgeCache
from repro.gencache.key import GenerationKey
from repro.obs import NULL_REGISTRY, MetricsRegistry

#: Default store capacity: holds a few thousand PNG-sized artifacts.
DEFAULT_GENCACHE_BYTES = 64 * 1024 * 1024

#: Simulated cost of a cache hit: one in-memory lookup, not step time.
HIT_LOOKUP_TIME_S = 0.001


@dataclass(frozen=True)
class CachedGeneration:
    """One memoised generation result."""

    key: GenerationKey
    #: PNG bytes for images, UTF-8 bytes for text (may be empty at the
    #: edge, where only the catalog's modelled media size matters).
    payload: bytes
    #: Expanded string for text items; empty for images.
    text: str
    #: What the original (cold) generation cost in simulated seconds/Wh.
    sim_time_s: float
    energy_wh: float
    #: The lookup rode another worker's flight (the tier answered ``coalesced``).
    coalesced: bool = False


@dataclass
class GenCacheStats:
    """Hit/saving accounting, separate from the LRU's byte stats."""

    hits: int = 0
    misses: int = 0
    #: Duplicates that rode a generation still in flight (an item onto its
    #: media generator's flight; a tier lookup parked on another worker's).
    coalesced: int = 0
    insertions: int = 0
    rejected: int = 0
    saved_sim_seconds: float = 0.0
    saved_energy_wh: float = 0.0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def samples(self, out, cache: "GenerationCache | None") -> None:
        """The ``gencache_*`` families of the cache these stats belong to,
        when its registry is scraped; ``used_bytes`` only while it lives."""
        lookups = "Generation-cache lookups by outcome"
        out.counter("gencache_hits_total", lookups, self.hits, layer="gencache", operation="hit")
        out.counter("gencache_misses_total", lookups, self.misses, layer="gencache", operation="miss")
        out.counter("gencache_coalesced_total", lookups, self.coalesced, layer="gencache", operation="coalesced")
        out.counter(
            "gencache_saved_sim_seconds_total", "Simulated generation seconds avoided by cache hits/coalescing",
            self.saved_sim_seconds, layer="gencache",
        )
        out.counter(
            "gencache_saved_energy_wh_total", "Simulated generation energy avoided by cache hits/coalescing",
            self.saved_energy_wh, layer="gencache",
        )
        if cache is not None and self.insertions + self.rejected:
            out.gauge(
                "gencache_used_bytes", "Bytes held by the generation-result store", cache.used_bytes, layer="gencache"
            )


class GenerationCache:
    """Thread-safe content-addressed LRU over generation results.

    One instance can back several layers at once (client media generator,
    server fallback path, CDN edge): the content-addressed key makes the
    sharing safe, and every consumer's savings land in the same stats and
    ``gencache_*`` metric families.
    """

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_GENCACHE_BYTES,
        hit_time_s: float = HIT_LOOKUP_TIME_S,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._store = EdgeCache(capacity_bytes)
        self.hit_time_s = hit_time_s
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.stats = GenCacheStats()
        self._lock = threading.Lock()
        self.registry.source(self.stats, self)

    # ------------------------------------------------------------------ #
    # Lookup / insert
    # ------------------------------------------------------------------ #

    def lookup(self, key: GenerationKey) -> CachedGeneration | None:
        """Return the memoised result for ``key``, counting hit or miss.

        A hit also accrues the simulated seconds/Wh *saved*: the cold cost
        stored with the record, minus the lookup cost paid instead.
        """
        with self._lock:
            entry = self._store.get(key.digest)
            if entry is None:
                self.stats.misses += 1
                return None
            record: CachedGeneration = entry.payload
            self.stats.hits += 1
            saved_s = max(0.0, record.sim_time_s - self.hit_time_s)
            self.stats.saved_sim_seconds += saved_s
            self.stats.saved_energy_wh += record.energy_wh
        return record

    def insert(
        self,
        key: GenerationKey,
        payload: bytes,
        text: str = "",
        sim_time_s: float = 0.0,
        energy_wh: float = 0.0,
        size_bytes: int | None = None,
    ) -> bool:
        """Memoise one result; returns False if it cannot fit at all.

        ``size_bytes`` overrides the accounted size (the CDN edge accounts
        the catalog's modelled media size rather than the simulator's PNG
        bytes, matching the §2.2 storage model).
        """
        size = size_bytes if size_bytes is not None else len(payload) + len(text.encode("utf-8"))
        record = CachedGeneration(
            key=key, payload=payload, text=text, sim_time_s=sim_time_s, energy_wh=energy_wh
        )
        with self._lock:
            ok = self._store.try_put(CacheEntry(key.digest, size, kind="genblob", payload=record))
            if ok:
                self.stats.insertions += 1
            else:
                self.stats.rejected += 1
        return ok

    def peek(self, key: GenerationKey, touch: bool = False) -> CachedGeneration | None:
        """Uncounted lookup: returns the record without touching the
        hit/miss/saved accounting.

        The fleet's cross-edge peering uses this for both the home-edge
        and ring-owner probes, so one user request produces exactly one
        fleet-level outcome (hit, lead, or coalesced — the cache-tier
        protocol's rule) no matter how many edge caches it inspected on
        the way. ``touch=True`` still refreshes LRU recency, which the
        home edge wants (popular entries must not be evicted just because
        every probe was "only a peek").
        """
        with self._lock:
            entry = self._store.get(key.digest) if touch else self._store.peek(key.digest)
        if entry is None:
            return None
        return entry.payload

    def record_coalesced(self, saved_sim_s: float, saved_energy_wh: float) -> None:
        """Account one in-flight duplicate absorbed by single-flight."""
        with self._lock:
            self.stats.coalesced += 1
            saved_s = max(0.0, saved_sim_s - self.hit_time_s)
            self.stats.saved_sim_seconds += saved_s
            self.stats.saved_energy_wh += saved_energy_wh

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def used_bytes(self) -> int:
        return self._store.used_bytes

    @property
    def capacity_bytes(self) -> int:
        return self._store.capacity_bytes

    @property
    def entry_count(self) -> int:
        return self._store.entry_count

    @property
    def evictions(self) -> int:
        return self._store.stats.evictions

    def __contains__(self, key: GenerationKey) -> bool:
        return self._store.peek(key.digest) is not None

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
