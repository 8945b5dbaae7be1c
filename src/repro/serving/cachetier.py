"""The shared gencache tier: one generation cache for N forked workers.

The per-process :class:`~repro.gencache.GenerationCache` already earns
the paper's amortisation inside one worker; across a pre-fork fleet each
worker would regenerate what its siblings already paid for. This module
hoists the cache into the arbiter: a lightweight cache server spoken to
over the repo's own HTTP/2 stack under the reserved
``sww-cache.internal`` authority (PROTOCOL.md §7.1), so a hit — or an in-flight generation — in
worker A saves the full generation cost in worker B.

Wire protocol (all under the reserved authority):

* ``GET /gencache/<digest>`` — look up one generation key digest.

  * **hit** → 200, ``x-sww-cache: hit``, body = the JSON envelope
    (base64 payload, text, cold sim seconds / energy);
  * **miss, no flight** → 404, ``x-sww-cache: lead`` — the tier records
    a flight and the requester *leads*: it generates and publishes;
  * **miss, live flight** → the request *parks* (long-poll) until the
    leader publishes, then 200, ``x-sww-cache: coalesced`` with the
    leader's envelope. This is the gencache's single-flight leadership
    extended across process boundaries. A parked waiter whose leader
    never publishes (crashed worker) waits out what is left of the
    leader's ``flight_timeout_s``; the first expiry promotes exactly one
    waiter (404, ``x-sww-cache: lead``) and the rest re-park on it.

* ``PUT /gencache/<digest>`` — publish a generated result: inserts into
  the cache and wakes every parked waiter. 204.
* ``POST /coalesced`` — account an in-process coalesced duplicate
  (a worker's own single-flight absorbed a concurrent item) so fleet
  stats match single-process accounting. 204.

The arbiter reads the tier's counters in-process and reports them under
``cache_tier`` in ``/debug/workers`` on its admin plane.

Accounting is exact by construction: the leader's GET counted the miss,
a published envelope is handed to each parked waiter straight from the
flight (never re-looked-up, which would miscount a hit) with one
``record_coalesced`` per waiter, and hits count through the ordinary
``lookup`` path.
"""

from __future__ import annotations

import asyncio
import base64
import json
import logging
from dataclasses import dataclass

from repro.gencache.store import DEFAULT_GENCACHE_BYTES, GenerationCache
from repro.serving.h2util import MiniH2Server, MiniRequest, MiniResponse

logger = logging.getLogger("repro.serving.cachetier")

#: The reserved cache-tier authority (PROTOCOL.md §7.1); never a
#: registrable site host.
CACHE_AUTHORITY = "sww-cache.internal"

#: A flight whose leader has not published within this window is assumed
#: dead; one parked waiter is promoted to leader.
DEFAULT_FLIGHT_TIMEOUT_S = 60.0

_JSON = "application/json"
_OUTCOME = b"x-sww-cache"


@dataclass(frozen=True)
class _DigestKey:
    """Key shim for the tier-side cache, which addresses by digest only."""

    digest: str


def encode_envelope(
    payload: bytes, text: str, sim_time_s: float, energy_wh: float
) -> bytes:
    """The JSON body a published generation travels as."""
    return json.dumps(
        {
            "payload": base64.b64encode(payload).decode("ascii"),
            "text": text,
            "sim_time_s": sim_time_s,
            "energy_wh": energy_wh,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")


def decode_envelope(body: bytes) -> dict:
    doc = json.loads(body.decode("utf-8"))
    doc["payload"] = base64.b64decode(doc["payload"])
    return doc


class _Flight:
    """One in-flight generation: a leader somewhere, waiters parked here."""

    __slots__ = ("published", "envelope", "deadline")

    def __init__(self, timeout_s: float) -> None:
        self.published = asyncio.Event()
        self.envelope: bytes | None = None
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

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    async def handle(self, request: MiniRequest) -> MiniResponse:
        path = request.path
        if path.startswith("/gencache/"):
            digest = path[len("/gencache/"):]
            if request.method == "GET":
                self._count("lookup")
                return await self._lookup(digest)
            if request.method == "PUT":
                self._count("publish")
                return self._publish(digest, request.body)
        elif path == "/coalesced" and request.method == "POST":
            self._count("coalesced")
            return self._coalesced(request.body)
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
                    return MiniResponse(
                        body=encode_envelope(
                            record.payload, record.text, record.sim_time_s, record.energy_wh
                        ),
                        content_type=_JSON,
                        headers=[(_OUTCOME, b"hit")],
                    )
                # Miss (counted by lookup): this requester leads.
                self._flights[digest] = _Flight(self.flight_timeout_s)
                self._gauge_flights()
                return MiniResponse(
                    status=404, body=b"", content_type=_JSON, headers=[(_OUTCOME, b"lead")]
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
        # Hand the published envelope straight from the flight — never
        # re-lookup, which would count a hit instead of a coalesce.
        envelope = flight.envelope or b"{}"
        doc = json.loads(envelope.decode("utf-8"))
        self.cache.record_coalesced(
            float(doc.get("sim_time_s", 0.0)), float(doc.get("energy_wh", 0.0))
        )
        return MiniResponse(
            body=envelope, content_type=_JSON, headers=[(_OUTCOME, b"coalesced")]
        )

    def _publish(self, digest: str, body: bytes) -> MiniResponse:
        try:
            doc = decode_envelope(body)
        except (ValueError, KeyError) as exc:
            return MiniResponse(
                status=400, body=f"bad envelope: {exc}".encode(), content_type="text/plain"
            )
        self.cache.insert(
            _DigestKey(digest),
            payload=doc["payload"],
            text=doc.get("text", ""),
            sim_time_s=float(doc.get("sim_time_s", 0.0)),
            energy_wh=float(doc.get("energy_wh", 0.0)),
        )
        flight = self._flights.pop(digest, None)
        if flight is not None:
            flight.envelope = body
            flight.published.set()
        self._gauge_flights()
        return MiniResponse(status=204, body=b"", content_type=_JSON)

    def _coalesced(self, body: bytes) -> MiniResponse:
        try:
            doc = json.loads(body.decode("utf-8"))
            saved_sim_s = float(doc["saved_sim_s"])
            saved_energy_wh = float(doc["saved_energy_wh"])
        except (ValueError, KeyError) as exc:
            return MiniResponse(
                status=400, body=f"bad coalesce record: {exc}".encode(), content_type="text/plain"
            )
        self.cache.record_coalesced(saved_sim_s, saved_energy_wh)
        return MiniResponse(status=204, body=b"", content_type=_JSON)

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

    def _gauge_flights(self) -> None:
        if self.registry is not None and self.registry.enabled:
            self.registry.gauge(
                "gencache_tier_flights_depth",
                "Cross-worker generations currently in flight at the tier",
                layer="gencache",
            ).set(len(self._flights))
