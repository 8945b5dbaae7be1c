"""Worker-side facade over the shared cache tier.

:class:`RemoteGenerationCache` speaks the cache-tier protocol
(:mod:`repro.serving.cachetier`) and presents the exact blocking
interface :class:`~repro.sww.media_generator.MediaGenerator` expects of
a :class:`~repro.gencache.GenerationCache` — ``lookup`` / ``insert`` /
``record_coalesced`` / ``hit_time_s`` — so a forked worker plugs the
tier in where the in-process cache used to sit, without the generator
learning anything changed.

Concurrency model: the facade is built on the worker's own event loop
(``runtime_factory`` runs inside it), where its one persistent
:class:`~repro.http2.endpoint.ClientConnection` to the tier lives. Each
blocking call, made from an executor thread that materialises a page,
submits its own coroutine with ``run_coroutine_threadsafe`` — calls are
*not* serialised, because a ``GET`` parked on a cross-worker flight
(long-poll) must not block a concurrent ``PUT`` for a different key on
the same connection; they multiplex as streams, and the connection is
loop-confined so no lock is needed. Made on that loop, a call would
wait on work only the loop can do, so it raises ``RuntimeError``.

Failure model: degrade, never break. A tier that is down, slow, or
resetting streams — or that answers a generation this end cannot read —
makes ``lookup`` return ``None`` (the worker generates locally, exactly
as with no cache), ``insert`` return False, and ``record_coalesced`` a
no-op. One reconnect is attempted per call.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from dataclasses import replace

from repro.gencache.store import HIT_LOOKUP_TIME_S, CachedGeneration, GenCacheStats
from repro.http2.connection import H2Connection, Role
from repro.http2.endpoint import ClientConnection, H2Response
from repro.serving.cachetier import (
    CACHE_AUTHORITY,
    DEFAULT_FLIGHT_TIMEOUT_S,
    decode_generation,
    encode_generation,
    sim_headers,
)

logger = logging.getLogger("repro.serving.remote")

#: Ordinary round-trip budget (connect + handshake + respond).
DEFAULT_CALL_TIMEOUT_S = 15.0
#: A lookup may legitimately park for a whole cross-worker flight.
_LOOKUP_TIMEOUT_S = DEFAULT_FLIGHT_TIMEOUT_S + DEFAULT_CALL_TIMEOUT_S
_USER_AGENT = (b"user-agent", b"sww-cache-client/1.0")


class RemoteGenerationCache:
    """GenerationCache-compatible client for the shared cache tier; build
    it on the event loop that is to carry its exchanges."""

    #: Simulated cost the generator charges for a (remote) hit — same
    #: in-memory-lookup constant as the local cache: the tier lives on
    #: the same host and the simulation's cost model is unchanged.
    hit_time_s = HIT_LOOKUP_TIME_S

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        #: Local view of outcomes this worker observed at the tier.
        self.stats = GenCacheStats()
        #: Calls that degraded to cache-off behaviour (tier unreachable).
        self.errors = 0
        self._stats_lock = threading.Lock()
        self._loop = asyncio.get_running_loop()
        self._client: ClientConnection | None = None
        self._connect_lock = asyncio.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Blocking facade (called from generation/executor threads)
    # ------------------------------------------------------------------ #

    def lookup(self, key) -> CachedGeneration | None:
        """Tier lookup. Hit/coalesced → a record; miss (we lead) or any
        tier failure → None (the caller generates)."""
        response = self._exchange("lookup", "GET", f"/gencache/{key.digest}", timeout=_LOOKUP_TIMEOUT_S)
        if response is None:
            return None
        if response.status != 200:
            with self._stats_lock:
                self.stats.misses += 1
            return None
        try:
            record = decode_generation(key, response.headers, response.body)
        except ValueError as exc:
            self._degraded("decode", exc)
            return None
        coalesced = dict(response.headers).get(b"x-sww-cache") == b"coalesced"
        with self._stats_lock:
            if coalesced:
                self.stats.coalesced += 1
            else:
                self.stats.hits += 1
        return replace(record, coalesced=True) if coalesced else record

    def insert(
        self,
        key,
        payload: bytes,
        text: str = "",
        sim_time_s: float = 0.0,
        energy_wh: float = 0.0,
        size_bytes: int | None = None,
    ) -> bool:
        """Publish a generated result to the tier (wakes parked waiters)."""
        headers, body = encode_generation(CachedGeneration(key, payload, text, sim_time_s, energy_wh))
        response = self._exchange("insert", "PUT", f"/gencache/{key.digest}", headers, body)
        if response is None:
            return False
        with self._stats_lock:
            if response.status == 204:
                self.stats.insertions += 1
            else:
                self.stats.rejected += 1
        return response.status == 204

    def record_coalesced(self, saved_sim_s: float, saved_energy_wh: float) -> None:
        """Forward an in-process coalesce so fleet stats stay exact."""
        headers = sim_headers(saved_sim_s, saved_energy_wh)
        if self._exchange("coalesced", "POST", "/coalesced", headers) is None:
            return
        with self._stats_lock:
            self.stats.coalesced += 1

    def close(self) -> None:
        """Close the tier connection; later calls degrade."""
        self._refuse_own_loop()
        self._closed = True
        if self._loop.is_closed():
            return
        try:
            asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop).result(5.0)
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # The exchange, on the loop the facade was built on
    # ------------------------------------------------------------------ #

    def _refuse_own_loop(self) -> None:
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            return
        if running is self._loop:
            raise RuntimeError(
                "RemoteGenerationCache blocks until its own event loop answers; "
                "call it from another thread (run_in_executor)"
            )

    def _exchange(
        self,
        operation: str,
        method: str,
        path: str,
        headers=(),
        body: bytes | None = None,
        timeout: float = DEFAULT_CALL_TIMEOUT_S,
    ) -> H2Response | None:
        """One tier round trip; None when it degraded."""
        self._refuse_own_loop()
        try:
            if self._closed or self._loop.is_closed():
                raise ConnectionError("remote cache closed")
            future = asyncio.run_coroutine_threadsafe(
                self._request(method, path, [_USER_AGENT, *headers], body), self._loop
            )
            return future.result(timeout)
        except Exception as exc:
            self._degraded(operation, exc)
            return None

    async def _request(self, method: str, path: str, headers, body: bytes | None) -> H2Response:
        try:
            return await self._attempt(method, path, headers, body)
        except (ConnectionError, OSError):
            # One reconnect per call; a second failure degrades the call.
            return await self._attempt(method, path, headers, body)

    async def _attempt(self, method: str, path: str, headers, body: bytes | None) -> H2Response:
        client = await self._ensure_client()
        try:
            return await client.request(method, path, headers, body)
        except (ConnectionError, OSError):
            if self._client is client:
                self._client = None
            await client.close()
            raise

    async def _ensure_client(self) -> ClientConnection:
        async with self._connect_lock:
            client = self._client
            if client is None or client.closed:
                client = await ClientConnection.open(
                    self.host,
                    self.port,
                    H2Connection(Role.CLIENT, gen_ability=False),
                    CACHE_AUTHORITY,
                )
                await client.settled(DEFAULT_CALL_TIMEOUT_S)
                self._client = client
            return client

    async def _shutdown(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            await client.close()

    def _degraded(self, operation: str, exc: Exception) -> None:
        with self._stats_lock:
            self.errors += 1
        logger.warning("cache tier %s degraded (%s: %s)", operation, type(exc).__name__, exc)
