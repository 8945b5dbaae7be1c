"""In-band admin plane: telemetry served over the project's own HTTP/2.

Rather than bolting a second HTTP/1 server onto the process, the
telemetry plane rides the protocol the repo already implements: requests
whose ``:authority`` is :data:`ADMIN_AUTHORITY` are routed by
:class:`~repro.sww.server.ServerSession` to the :class:`AdminPlane`
instead of the content store (PROTOCOL.md reserves the authority and the
``/debug/*`` path space). That keeps exactly one listening socket, one
negotiation path, and lets ``sww top`` / scrapers reuse the repo's
client stack — including flow control, which matters because profile and
time-series bodies routinely exceed a default stream window.

Routes:

* ``GET /metrics`` — OpenMetrics exposition of the live registry;
* ``GET /healthz`` — JSON liveness: event-loop stall state, in-flight
  streams, drain state, SLO burn verdicts;
* ``GET /debug/streams`` — per-connection scheduler state (writer
  queues, flow-control windows, stall counts);
* ``GET /debug/timeseries[?since=N]`` — the sampler ring as an
  ``sww-timeseries/1`` document (``since`` returns a delta);
* ``GET /debug/profile?seconds=N[&format=collapsed|chrome]`` — run the
  wall-clock profiler for N seconds and return the profile;
* ``GET /debug/events[?n=N][&format=jsonl|columnar]`` — the wide-event
  ring, newest N (default all) as JSONL or an ``sww-events/1`` columnar
  document;
* ``GET /incidents`` — flight-recorder bundle listing (one summary row
  per captured incident);
* ``GET /incidents/<id>`` — one full incident bundle.

Admin responses are accounted under ``obs_admin_requests_total``, *not*
``sww_requests_total``, so scraping never skews the serving metrics it
reports.
"""

from __future__ import annotations

import asyncio
import json
import logging
from urllib.parse import parse_qs, urlsplit

from repro.http2.connection import H2Connection, Role
from repro.http2.endpoint import ClientConnection
from repro.obs import MetricsRegistry, to_openmetrics
from repro.obs.profiler import WallClockProfiler
from repro.obs.slo import SLOTracker
from repro.obs.timeseries import TimeSeriesSampler
from repro.sww.server import GenerativeServer, ServedResponse

logger = logging.getLogger("repro.sww.admin")

#: The reserved authority admin requests target (PROTOCOL.md §admin).
#: Never a real site host; content requests keep their own authority.
ADMIN_AUTHORITY = "sww-admin.internal"

#: Longest profile one request may run (seconds); keeps a typo'd query
#: from pinning an executor thread for minutes.
MAX_PROFILE_SECONDS = 30.0

#: /healthz reports "degraded" when the worst recent loop stall exceeds
#: this (the concurrent scheduler's acceptance bar).
STALL_DEGRADED_S = 0.05

_JSON = "application/json"
_OPENMETRICS = "application/openmetrics-text; version=1.0.0; charset=utf-8"
_TEXT = "text/plain; charset=utf-8"


class AdminPlane:
    """Routes reserved-authority requests to telemetry handlers."""

    def __init__(
        self,
        registry: MetricsRegistry,
        sampler: TimeSeriesSampler | None = None,
        slo: SLOTracker | None = None,
        authority: str = ADMIN_AUTHORITY,
        profiler_interval_s: float = 0.005,
        events=None,
        recorder=None,
    ) -> None:
        self.registry = registry
        self.sampler = sampler
        self.slo = slo
        #: Wide-event ring served at /debug/events (None → 503).
        self.events = events
        #: Flight recorder served at /incidents (None → 503).
        self.recorder = recorder
        self.authority = authority
        self.profiler_interval_s = profiler_interval_s
        self.server: GenerativeServer | None = None
        self._stop: asyncio.Event | None = None
        self._task: asyncio.Task | None = None
        if slo is not None and sampler is not None:
            slo.attach(sampler)

    def bind(self, server: GenerativeServer) -> "AdminPlane":
        """Attach to a server (it routes admin-authority requests here)."""
        self.server = server
        server.admin = self
        return self

    def matches(self, authority: bytes | str) -> bool:
        """True when a request's ``:authority`` targets the admin plane."""
        host = authority.decode("utf-8", "replace") if isinstance(authority, bytes) else authority
        return host.rsplit(":", 1)[0] == self.authority

    # ------------------------------------------------------------------ #
    # Background sampling
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Begin ticking the sampler on the running event loop (idempotent)."""
        if self.sampler is None or (self._task is not None and not self._task.done()):
            return
        self._stop = asyncio.Event()
        self._task = asyncio.create_task(self.sampler.run(self._stop))

    async def stop(self) -> None:
        if self._stop is not None:
            self._stop.set()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #

    def respond(self, target: str) -> ServedResponse:
        """Produce the admin response for one request target.

        Blocking by design (``/debug/profile`` sleeps for its sampling
        window); the concurrent server runs this on an executor thread,
        same as content requests.
        """
        parts = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        route = parts.path
        try:
            if route == "/metrics":
                response = self._text_response(to_openmetrics(self.registry), _OPENMETRICS)
            elif route == "/healthz":
                response = self._json_response(self.healthz())
            elif route == "/debug/streams":
                response = self._json_response(self.streams_state())
            elif route == "/debug/timeseries":
                response = self._timeseries(query)
            elif route == "/debug/profile":
                response = self._profile(query)
            elif route == "/debug/events":
                response = self._events(query)
            elif route == "/incidents" or route.startswith("/incidents/"):
                response = self._incidents(route)
            else:
                body = b"unknown admin route"
                response = ServedResponse(
                    404, GenerativeServer._headers(_TEXT, len(body), status=404), body
                )
        except Exception:
            logger.exception("admin route %s failed", route)
            body = b"admin handler error"
            response = ServedResponse(
                500, GenerativeServer._headers(_TEXT, len(body), status=500), body
            )
        if self.registry.enabled:
            # Bundle ids would be unbounded label cardinality; collapse them.
            counted = "/incidents" if route.startswith("/incidents/") else route
            self.registry.counter(
                "obs_admin_requests_total",
                "Admin-plane requests served, by route",
                layer="obs",
                operation=counted,
            ).inc()
        return response

    def _timeseries(self, query: dict[str, str]) -> ServedResponse:
        if self.sampler is None:
            return self._json_response({"error": "no sampler configured"}, status=503)
        since: int | None = None
        if "since" in query:
            try:
                since = int(query["since"])
            except ValueError:
                return self._json_response({"error": "since must be an integer"}, status=400)
        return self._json_response(self.sampler.snapshot(since=since))

    def _events(self, query: dict[str, str]) -> ServedResponse:
        if self.events is None:
            return self._json_response({"error": "no event log configured"}, status=503)
        last: int | None = None
        if "n" in query:
            try:
                last = int(query["n"])
            except ValueError:
                return self._json_response({"error": "n must be an integer"}, status=400)
        fmt = query.get("format", "jsonl")
        if fmt == "jsonl":
            return self._text_response(self.events.to_jsonl(last=last), _TEXT)
        if fmt == "columnar":
            return self._json_response(self.events.to_columnar(last=last))
        return self._json_response({"error": "format must be jsonl or columnar"}, status=400)

    def _incidents(self, route: str) -> ServedResponse:
        if self.recorder is None:
            return self._json_response({"error": "no flight recorder configured"}, status=503)
        if route == "/incidents" or route == "/incidents/":
            return self._json_response(
                {"incidents": self.recorder.summaries(), "armed": sorted(self.recorder.armed())}
            )
        incident_id = route[len("/incidents/"):]
        bundle = self.recorder.get(incident_id)
        if bundle is None:
            return self._json_response({"error": f"no incident {incident_id!r}"}, status=404)
        return self._json_response(bundle)

    def _profile(self, query: dict[str, str]) -> ServedResponse:
        try:
            seconds = float(query.get("seconds", "1"))
        except ValueError:
            return self._json_response({"error": "seconds must be a number"}, status=400)
        seconds = min(max(0.0, seconds), MAX_PROFILE_SECONDS)
        fmt = query.get("format", "collapsed")
        if fmt not in ("collapsed", "chrome"):
            return self._json_response(
                {"error": "format must be collapsed or chrome"}, status=400
            )
        profiler = WallClockProfiler(
            interval_s=self.profiler_interval_s, registry=self.registry
        )
        profile = profiler.profile_for(seconds)
        if fmt == "chrome":
            return self._text_response(profile.to_chrome_trace(), _JSON)
        return self._text_response(profile.collapsed(), _TEXT)

    # ------------------------------------------------------------------ #
    # State assembly
    # ------------------------------------------------------------------ #

    def healthz(self) -> dict:
        """Liveness summary: loop stalls, in-flight work, drain, SLO burn."""
        sessions = list(self.server.sessions()) if self.server is not None else []
        max_stall = max((s.max_stall_s for s in sessions), default=0.0)
        worst_ever = self.registry.value(
            "sww_server_loop_stall_max_seconds", layer="sww", operation="loop"
        )
        inflight = sum(s.inflight for s in sessions)
        draining = sum(1 for s in sessions if s.draining)
        slo_report = self.slo.report() if self.slo is not None else {}
        slo_healthy = self.slo.healthy if self.slo is not None else True
        degraded: list[str] = []
        if max_stall > STALL_DEGRADED_S:
            degraded.append(f"event-loop stall {max_stall * 1000:.0f}ms")
        if not slo_healthy:
            degraded.extend(
                f"slo {name} burning" for name, entry in slo_report.items()
                if not entry.get("healthy", True)
            )
        return {
            "status": "degraded" if degraded else "ok",
            "degraded": degraded,
            "connections": len(sessions),
            "inflight_streams": inflight,
            "draining_connections": draining,
            "loop_stall": {
                "recent_max_s": round(max_stall, 6),
                "worst_s": round(worst_ever, 6),
            },
            "sampler_tick": self.sampler.last_tick if self.sampler is not None else None,
            "slo": slo_report,
        }

    def streams_state(self) -> dict:
        """Live per-connection scheduler state for ``/debug/streams``."""
        sessions = list(self.server.sessions()) if self.server is not None else []
        return {
            "connections": [session.debug_state() for session in sessions],
        }

    # ------------------------------------------------------------------ #
    # Response plumbing
    # ------------------------------------------------------------------ #

    @staticmethod
    def _text_response(text: str, content_type: str, status: int = 200) -> ServedResponse:
        body = text.encode("utf-8")
        return ServedResponse(
            status, GenerativeServer._headers(content_type, len(body), status=status), body
        )

    @classmethod
    def _json_response(cls, document: dict, status: int = 200) -> ServedResponse:
        return cls._text_response(
            json.dumps(document, sort_keys=True, separators=(",", ":")), _JSON, status
        )


# ---------------------------------------------------------------------- #
# Client side: one-shot admin GET over the project's HTTP/2 stack
# ---------------------------------------------------------------------- #


async def admin_fetch(
    host: str, port: int, path: str, authority: str = ADMIN_AUTHORITY
) -> tuple[int, bytes]:
    """GET one admin route over TCP; returns ``(status, body)``.

    A deliberately thin client: no generation pipeline, no SWW headers —
    one stream on a :class:`~repro.http2.endpoint.ClientConnection`, which
    returns flow-control credit as the body arrives (profile/timeseries
    bodies outgrow a default window) and raises ``ConnectionError`` if the
    server goes away mid-response.
    """
    client = await ClientConnection.open(
        host, port, H2Connection(Role.CLIENT, gen_ability=False), authority
    )
    try:
        await client.settled()
        response = await client.request("GET", path, [(b"user-agent", b"sww-admin-client/1.0")])
    finally:
        await client.close()
    return response.status, response.body


async def admin_fetch_json(
    host: str, port: int, path: str, authority: str = ADMIN_AUTHORITY
) -> dict:
    """`admin_fetch` + JSON decode; raises on non-200."""
    status, body = await admin_fetch(host, port, path, authority)
    if status != 200:
        raise RuntimeError(f"admin GET {path} returned {status}")
    return json.loads(body.decode("utf-8"))
