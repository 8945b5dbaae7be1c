"""Worker-side facade over the shared cache tier.

:class:`RemoteGenerationCache` speaks the cache-tier protocol
(:mod:`repro.serving.cachetier`) and presents the exact blocking
interface :class:`~repro.sww.media_generator.MediaGenerator` expects of
a :class:`~repro.gencache.GenerationCache` — ``lookup`` / ``insert`` /
``record_coalesced`` / ``hit_time_s`` — so a forked worker plugs the
tier in where the in-process cache used to sit, without the generator
learning anything changed.

Concurrency model: one daemon thread runs a private event loop holding
one persistent :class:`~repro.http2.endpoint.ClientConnection` to the
tier. Every blocking call submits its own coroutine with
``run_coroutine_threadsafe`` — calls are *not* serialised, because a
``GET`` parked on a cross-worker flight (long-poll) must not block a
concurrent ``PUT`` for a different key on the same connection; they
multiplex as streams, and the connection is loop-confined so no lock is
needed.

Failure model: degrade, never break. A tier that is down, slow, or
resetting streams makes ``lookup`` return ``None`` (the worker
generates locally, exactly as with no cache), ``insert`` return False,
and ``record_coalesced`` a no-op. One reconnect is attempted per call.
"""

from __future__ import annotations

import asyncio
import logging
import threading

from repro.gencache.store import HIT_LOOKUP_TIME_S, CachedGeneration, GenCacheStats
from repro.http2.connection import H2Connection, Role
from repro.http2.endpoint import ClientConnection, H2Response
from repro.serving.cachetier import (
    CACHE_AUTHORITY,
    DEFAULT_FLIGHT_TIMEOUT_S,
    decode_envelope,
    encode_envelope,
)

logger = logging.getLogger("repro.serving.remote")

#: Ordinary round-trip budget (connect + handshake + respond).
DEFAULT_CALL_TIMEOUT_S = 15.0
#: A lookup may legitimately park for a whole cross-worker flight.
_LOOKUP_TIMEOUT_S = DEFAULT_FLIGHT_TIMEOUT_S + DEFAULT_CALL_TIMEOUT_S


class RemoteGenerationCache:
    """GenerationCache-compatible client for the shared cache tier."""

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
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._start_lock = threading.Lock()
        self._client: ClientConnection | None = None
        self._connect_lock: asyncio.Lock | None = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # Blocking facade (called from generation/executor threads)
    # ------------------------------------------------------------------ #

    def lookup(self, key) -> CachedGeneration | None:
        """Tier lookup. Hit/coalesced → a record; miss (we lead) or any
        tier failure → None (the caller generates)."""
        try:
            response = self._call(
                "GET", f"/gencache/{key.digest}", timeout=_LOOKUP_TIMEOUT_S
            )
        except Exception as exc:
            self._degraded("lookup", exc)
            return None
        if response.status != 200:
            with self._stats_lock:
                self.stats.misses += 1
            return None
        try:
            doc = decode_envelope(response.body)
        except (ValueError, KeyError) as exc:
            self._degraded("decode", exc)
            return None
        outcome = dict(response.headers).get(b"x-sww-cache", b"hit")
        with self._stats_lock:
            if outcome == b"coalesced":
                self.stats.coalesced += 1
            else:
                self.stats.hits += 1
        return CachedGeneration(
            key=key,
            payload=doc["payload"],
            text=doc.get("text", ""),
            sim_time_s=float(doc.get("sim_time_s", 0.0)),
            energy_wh=float(doc.get("energy_wh", 0.0)),
        )

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
        envelope = encode_envelope(payload, text, sim_time_s, energy_wh)
        try:
            status = self._call("PUT", f"/gencache/{key.digest}", body=envelope).status
        except Exception as exc:
            self._degraded("insert", exc)
            return False
        if status == 204:
            with self._stats_lock:
                self.stats.insertions += 1
            return True
        with self._stats_lock:
            self.stats.rejected += 1
        return False

    def record_coalesced(self, saved_sim_s: float, saved_energy_wh: float) -> None:
        """Forward an in-process coalesce so fleet stats stay exact."""
        import json

        body = json.dumps(
            {"saved_sim_s": saved_sim_s, "saved_energy_wh": saved_energy_wh},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        try:
            self._call("POST", "/coalesced", body=body)
        except Exception as exc:
            self._degraded("coalesced", exc)
            return
        with self._stats_lock:
            self.stats.coalesced += 1

    def close(self) -> None:
        """Tear down the connection and the background loop thread."""
        self._closed = True
        loop = self._loop
        if loop is None:
            return
        try:
            asyncio.run_coroutine_threadsafe(self._shutdown(), loop).result(5.0)
        except Exception:
            pass
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    # ------------------------------------------------------------------ #
    # Background loop
    # ------------------------------------------------------------------ #

    def _start(self) -> None:
        if self._loop is not None:
            return
        with self._start_lock:
            if self._loop is not None:
                return
            loop = asyncio.new_event_loop()
            thread = threading.Thread(
                target=loop.run_forever, name="sww-cache-client", daemon=True
            )
            thread.start()
            self._thread = thread
            self._loop = loop

    def _call(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        timeout: float = DEFAULT_CALL_TIMEOUT_S,
    ) -> H2Response:
        if self._closed:
            raise ConnectionError("remote cache closed")
        self._start()
        future = asyncio.run_coroutine_threadsafe(
            self._request(method, path, body), self._loop
        )
        return future.result(timeout)

    async def _request(self, method: str, path: str, body: bytes | None) -> H2Response:
        try:
            return await self._attempt(method, path, body)
        except (ConnectionError, OSError):
            # One reconnect per call; a second failure degrades the call.
            return await self._attempt(method, path, body)

    async def _attempt(self, method: str, path: str, body: bytes | None) -> H2Response:
        client = await self._ensure_client()
        try:
            return await client.request(
                method, path, [(b"user-agent", b"sww-cache-client/1.0")], body
            )
        except (ConnectionError, OSError):
            if self._client is client:
                self._client = None
            await client.close()
            raise

    async def _ensure_client(self) -> ClientConnection:
        if self._connect_lock is None:
            self._connect_lock = asyncio.Lock()
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
