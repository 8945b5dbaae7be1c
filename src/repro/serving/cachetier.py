"""The shared gencache tier: one generation cache for N forked workers.

The per-process :class:`~repro.gencache.GenerationCache` already earns
the paper's amortisation inside one worker; across a pre-fork fleet each
worker would regenerate what its siblings already paid for. This module
hoists the cache into the arbiter: a lightweight cache server spoken to
over the repo's own HTTP/2 stack under the reserved
``sww-cache.internal`` authority (PROTOCOL.md §7.1), so a hit — or an in-flight generation — in
worker A saves the full generation cost in worker B.

Wire protocol (all under the reserved authority). A generation travels
as its UTF-8 ``text`` followed by its ``payload`` — an image's body is
its PNG — with the rest in headers (PROTOCOL.md §7.1):

* ``GET /gencache/<digest>`` — look up one generation key digest.

  * **hit** → 200, ``x-sww-cache: hit``, the generation;
  * **miss, no flight** → 404, ``x-sww-cache: lead`` — the tier records
    a flight and the requester *leads*: it generates and publishes;
  * **miss, live flight** → the request *parks* (long-poll) until the
    leader publishes, then 200, ``x-sww-cache: coalesced`` with the
    leader's generation as it sent it. This is the gencache's
    single-flight leadership extended across process boundaries. A
    parked waiter whose leader never publishes (crashed worker) waits
    out what is left of the leader's ``flight_timeout_s``; the first
    expiry promotes exactly one waiter (404, ``x-sww-cache: lead``) and
    the rest re-park on it.

* ``PUT /gencache/<digest>`` — publish a generation: inserts into the
  cache and wakes every parked waiter. 204; 400 if it is malformed.
* ``POST /coalesced`` — account an in-process coalesced duplicate
  (a worker's own single-flight absorbed a concurrent item) so fleet
  stats match single-process accounting. 204.

Each worker speaks to the tier from its own event loop
(:class:`~repro.serving.remote.RemoteGenerationCache`). The arbiter reads
the tier's counters in-process and reports them under ``cache_tier`` in
``/debug/workers`` on its admin plane.

Accounting is exact by construction: the leader's GET counted the miss,
a published generation is handed to each parked waiter straight from the
flight (never re-looked-up, which would miscount a hit) with one
``record_coalesced`` per waiter, and hits count through the ordinary
``lookup`` path.
"""

from __future__ import annotations

import asyncio
import logging
import math
from dataclasses import dataclass

from repro.gencache.store import DEFAULT_GENCACHE_BYTES, CachedGeneration, GenerationCache
from repro.serving.h2util import MiniH2Server, MiniRequest, MiniResponse

logger = logging.getLogger("repro.serving.cachetier")

#: The reserved cache-tier authority (PROTOCOL.md §7.1); never a
#: registrable site host.
CACHE_AUTHORITY = "sww-cache.internal"

#: A flight whose leader has not published within this window is assumed
#: dead; one parked waiter is promoted to leader.
DEFAULT_FLIGHT_TIMEOUT_S = 60.0

_BYTES = "application/octet-stream"
_OUTCOME = b"x-sww-cache"
_TEXT_BYTES = b"x-sww-text-bytes"
_SIM_TIME = b"x-sww-sim-time-s"
_ENERGY = b"x-sww-energy-wh"
_GENERATION_HEADERS = (_TEXT_BYTES, _SIM_TIME, _ENERGY)


@dataclass(frozen=True)
class _DigestKey:
    """Key shim for the tier-side cache, which addresses by digest only."""

    digest: str


def sim_headers(sim_time_s: float, energy_wh: float) -> list[tuple[bytes, bytes]]:
    """The two float headers: a generation's cold cost, or a coalesce's saving."""
    return [(_SIM_TIME, repr(sim_time_s).encode()), (_ENERGY, repr(energy_wh).encode())]


def encode_generation(record: CachedGeneration) -> tuple[list[tuple[bytes, bytes]], bytes]:
    """The headers and body ``record`` travels as."""
    prefix = record.text.encode("utf-8")
    length = (_TEXT_BYTES, str(len(prefix)).encode())
    return [length, *sim_headers(record.sim_time_s, record.energy_wh)], prefix + record.payload


def read_sim_headers(headers) -> tuple[float, float]:
    """The two float headers; ValueError unless both are there, finite and non-negative."""
    fields = dict(headers)
    values = tuple(float(fields.get(name, b"").decode("ascii")) for name in (_SIM_TIME, _ENERGY))
    if not all(math.isfinite(value) and value >= 0.0 for value in values):
        raise ValueError(f"bad simulated cost {values}")
    return values


def decode_generation(key, headers, body: bytes) -> CachedGeneration:
    """The inverse of :func:`encode_generation`; ValueError on any malformed part."""
    sim_time_s, energy_wh = read_sim_headers(headers)
    length = dict(headers).get(_TEXT_BYTES, b"")
    if not length.isdigit() or int(length) > len(body):
        raise ValueError(f"bad {_TEXT_BYTES.decode()}: {length!r} for a {len(body)}-byte body")
    cut = int(length)
    return CachedGeneration(key, body[cut:], body[:cut].decode("utf-8"), sim_time_s, energy_wh)


class _Flight:
    """One in-flight generation: a leader somewhere, waiters parked here."""

    __slots__ = ("published", "record", "reply", "deadline")

    def __init__(self, timeout_s: float) -> None:
        self.published = asyncio.Event()
        #: Set on publish: the leader's generation, and the answer every
        #: parked waiter gets (its body and generation headers as sent).
        self.record: CachedGeneration | None = None
        self.reply: MiniResponse | None = None
        #: Loop time at which the leader is presumed dead. Waiters wait
        #: only what is left of it, however late they parked.
        self.deadline = asyncio.get_running_loop().time() + timeout_s


class CacheTierServer:
    """The tier's request logic; serve it with :class:`MiniH2Server`.

    Loop-confined by design: every handler runs on the arbiter's event
    loop and there is no await between reading and mutating the flight
    table, so no lock is needed around it. The underlying
    :class:`GenerationCache` keeps its own lock regardless.
    """

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_GENCACHE_BYTES,
        registry=None,
        flight_timeout_s: float = DEFAULT_FLIGHT_TIMEOUT_S,
    ) -> None:
        self.cache = GenerationCache(capacity_bytes, registry=registry)
        self.registry = registry
        self.flight_timeout_s = flight_timeout_s
        self._flights: dict[str, _Flight] = {}
        if registry is not None:
            registry.source(self)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    async def handle(self, request: MiniRequest) -> MiniResponse:
        path = request.path
        try:
            if path.startswith("/gencache/"):
                digest = path[len("/gencache/"):]
                if request.method == "GET":
                    self._count("lookup")
                    return await self._lookup(digest)
                if request.method == "PUT":
                    self._count("publish")
                    return self._publish(digest, request)
            elif path == "/coalesced" and request.method == "POST":
                self._count("coalesced")
                self.cache.record_coalesced(*read_sim_headers(request.headers))
                return MiniResponse(status=204, body=b"", content_type=_BYTES)
        except ValueError as exc:
            # Raised by the parsers, before anything changed.
            return MiniResponse(status=400, body=f"bad generation: {exc}".encode(), content_type="text/plain")
        return MiniResponse(status=404, body=b"unknown cache-tier route", content_type="text/plain")

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #

    async def _lookup(self, digest: str) -> MiniResponse:
        while True:
            # Flight check FIRST: a live flight means the entry is not yet
            # cached (publish inserts and clears the flight atomically on
            # this loop), and a parked waiter must count only ``coalesced``
            # — never a miss — to match in-process single-flight accounting.
            flight = self._flights.get(digest)
            if flight is None:
                record = self.cache.lookup(_DigestKey(digest))
                if record is not None:
                    headers, body = encode_generation(record)
                    return MiniResponse(
                        body=body, content_type=_BYTES, headers=[(_OUTCOME, b"hit"), *headers]
                    )
                # Miss (counted by lookup): this requester leads.
                self._flights[digest] = _Flight(self.flight_timeout_s)
                return MiniResponse(
                    status=404, body=b"", content_type=_BYTES, headers=[(_OUTCOME, b"lead")]
                )
            remaining = flight.deadline - asyncio.get_running_loop().time()
            try:
                await asyncio.wait_for(flight.published.wait(), max(0.0, remaining))
            except asyncio.TimeoutError:
                pass
            if flight.published.is_set():
                break
            # Leader presumed dead. The first waiter to get here drops the
            # stale flight and goes round to lead through the miss path
            # (counting the miss its parked lookup skipped); the others
            # find it replaced and park on the promoted leader's flight.
            if self._flights.get(digest) is flight:
                del self._flights[digest]
        # Hand the leader's publish straight from the flight — never
        # re-lookup, which would count a hit instead of a coalesce.
        self.cache.record_coalesced(flight.record.sim_time_s, flight.record.energy_wh)
        return flight.reply

    def _publish(self, digest: str, request: MiniRequest) -> MiniResponse:
        record = decode_generation(_DigestKey(digest), request.headers, request.body)
        self.cache.insert(
            record.key,
            payload=record.payload,
            text=record.text,
            sim_time_s=record.sim_time_s,
            energy_wh=record.energy_wh,
        )
        flight = self._flights.pop(digest, None)
        if flight is not None:
            forwarded = [(name, value) for name, value in request.headers if name in _GENERATION_HEADERS]
            flight.record = record
            flight.reply = MiniResponse(
                body=request.body, content_type=_BYTES, headers=[(_OUTCOME, b"coalesced"), *forwarded]
            )
            flight.published.set()
        return MiniResponse(status=204, body=b"", content_type=_BYTES)

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #

    def server(self) -> MiniH2Server:
        """An H2 server loop bound to this tier's request logic."""
        return MiniH2Server(self.handle, registry=self.registry)

    def _count(self, operation: str) -> None:
        if self.registry is not None and self.registry.enabled:
            self.registry.counter(
                "gencache_tier_requests_total",
                "Cache-tier requests served, by operation",
                layer="gencache",
                operation=operation,
            ).inc()

    def samples(self, out, _owner) -> None:
        """The tier's flight depth, when its registry is scraped: there
        once a lookup has led (a miss) or a generation was published."""
        stats = self.cache.stats
        if stats.misses + stats.insertions + stats.rejected:
            out.gauge(
                "gencache_tier_flights_depth",
                "Cross-worker generations currently in flight at the tier",
                len(self._flights),
                layer="gencache",
            )
