"""A byte-accounted LRU edge cache.

Entries are either full media blobs (traditional CDN), prompts (SWW
CDN), or content-addressed generated media (``repro.gencache``); the
cache does not care, it counts bytes. The storage-saving claim of §2.2
falls out of the same capacity holding ~2 orders of magnitude more
prompt entries than blob entries.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class CacheEntry:
    """One cached object."""

    key: str
    size_bytes: int
    #: "blob" (materialised media), "prompt" (SWW metadata), or
    #: "genblob" (content-addressed generated media).
    kind: str = "blob"
    payload: object = None


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Entries refused because they exceed the whole cache capacity.
    rejected: int = 0
    inserted_bytes: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


class EdgeCache:
    """LRU cache with a byte capacity."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._used = 0
        self.stats = CacheStats()

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> CacheEntry | None:
        """Look up (and touch) an entry; records hit/miss.

        The recency touch happens exactly once per ``get``; use
        :meth:`peek` for lookups that must not disturb eviction order.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def peek(self, key: str) -> CacheEntry | None:
        """Look up an entry without touching recency or hit/miss stats."""
        return self._entries.get(key)

    def try_put(self, entry: CacheEntry) -> bool:
        """Insert an entry, evicting LRU victims to fit.

        An entry larger than the whole cache is rejected (counted in
        ``stats.rejected``) and returns False, leaving the cache state —
        including any existing entry under the same key and the
        ``used_bytes`` accounting — untouched.
        """
        if entry.size_bytes < 0:
            raise ValueError("negative entry size")
        if entry.size_bytes > self.capacity_bytes:
            self.stats.rejected += 1
            return False
        old = self._entries.pop(entry.key, None)
        if old is not None:
            self._used -= old.size_bytes
        while self._used + entry.size_bytes > self.capacity_bytes:
            _victim_key, victim = self._entries.popitem(last=False)
            self._used -= victim.size_bytes
            self.stats.evictions += 1
        self._entries[entry.key] = entry
        self._used += entry.size_bytes
        self.stats.inserted_bytes += entry.size_bytes
        return True

    def put(self, entry: CacheEntry) -> None:
        """Insert an entry, raising on entries larger than the capacity."""
        if not self.try_put(entry):
            raise ValueError(
                f"entry of {entry.size_bytes} B exceeds cache capacity {self.capacity_bytes} B"
            )

    def clear(self) -> None:
        self._entries.clear()
        self._used = 0
