"""The admin plane: one route table over a process's telemetry sources.

The plane listens on its own port, apart from site content, in both
serving modes: single-process ``serve`` and the pre-fork arbiter's
master each run one :class:`~repro.serving.h2util.MiniH2Server` whose
handler is :meth:`AdminPlane.handle`. The request path never sees
admin traffic, and scrapers such as ``sww top`` reuse the repo's own
HTTP/2 client, flow control included (profile and time-series bodies
routinely exceed a default stream window).

Routes, each over one source; a route whose source the process lacks
answers 503:

* ``GET /metrics`` — OpenMetrics exposition of the registry (the
  master's is the merge of its workers' dumps and its own);
* ``GET /healthz`` — JSON liveness: event-loop stall state, in-flight
  streams, drain state and SLO burn verdicts for one process, or the
  master's per-worker verdicts;
* ``GET /debug/streams`` — per-connection scheduler state (writer
  queues, flow-control windows, stall counts);
* ``GET /debug/workers`` — the master's worker table and cache-tier stats;
* ``GET /debug/timeseries[?since=N]`` — the sampler ring as an
  ``sww-timeseries/1`` document (``since`` returns a delta);
* ``GET /debug/profile?seconds=N[&format=collapsed|chrome]`` — run the
  wall-clock profiler over this process for N seconds;
* ``GET /debug/events[?n=N][&format=jsonl|columnar]`` — the wide-event
  ring, newest N (default all) as JSONL or an ``sww-events/1`` columnar
  document;
* ``GET /incidents`` — flight-recorder bundle listing (one summary row
  per captured incident);
* ``GET /incidents/<id>`` — one full incident bundle.

Admin responses are counted under ``obs_admin_requests_total``, *not*
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
from repro.serving.h2util import MiniRequest, MiniResponse

logger = logging.getLogger("repro.sww.admin")

#: Longest profile one request may run (seconds); keeps a typo'd query
#: from pinning an executor thread for minutes.
MAX_PROFILE_SECONDS = 30.0

#: Sampling interval of the ``/debug/profile`` profiler (seconds).
PROFILER_INTERVAL_S = 0.005

#: /healthz reports "degraded" when the worst recent loop stall exceeds
#: this (the concurrent scheduler's acceptance bar).
STALL_DEGRADED_S = 0.05

_JSON = "application/json"
_OPENMETRICS = "application/openmetrics-text; version=1.0.0; charset=utf-8"
_TEXT = "text/plain; charset=utf-8"


class AdminPlane:
    """Answers admin routes from the telemetry sources it was given.

    ``registry`` is the registry ``/metrics`` exposes, or a zero-argument
    callable that builds one per scrape (the master's merge); admin
    requests are counted in it when it is a live registry. ``sampler``
    answers ``/debug/timeseries`` (``snapshot(since=)``), ``events``
    answers ``/debug/events`` (``to_jsonl``/``to_columnar``), ``recorder``
    answers ``/incidents``. ``server`` is the
    :class:`~repro.sww.server.GenerativeServer` whose sessions feed
    ``/healthz`` and ``/debug/streams``; ``fleet`` is the master, whose
    ``healthz()`` and ``workers_state()`` documents answer ``/healthz``
    and ``/debug/workers`` instead.
    """

    def __init__(
        self,
        registry,
        sampler: TimeSeriesSampler | None = None,
        slo: SLOTracker | None = None,
        events=None,
        recorder=None,
        server=None,
        fleet=None,
    ) -> None:
        self.registry = registry
        self.sampler = sampler
        self.slo = slo
        self.events = events
        self.recorder = recorder
        self.server = server
        self.fleet = fleet
        if slo is not None and sampler is not None:
            slo.attach(sampler)

    async def handle(self, request: MiniRequest) -> MiniResponse:
        """The :class:`~repro.serving.h2util.MiniH2Server` handler:
        :meth:`respond` runs on the loop's executor, because
        ``/debug/profile`` blocks its thread for the sampling window."""
        return await asyncio.get_running_loop().run_in_executor(None, self.respond, request.path)

    def respond(self, target: str) -> MiniResponse:
        """Produce the admin response for one request target (blocking)."""
        parts = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        route = parts.path
        try:
            if route == "/metrics":
                response = self._text_response(to_openmetrics(self._registry()), _OPENMETRICS)
            elif route == "/healthz":
                response = self._json_response(
                    self.fleet.healthz() if self.fleet is not None else self.healthz()
                )
            elif route == "/debug/streams":
                response = self._streams()
            elif route == "/debug/workers":
                response = self._workers()
            elif route == "/debug/timeseries":
                response = self._timeseries(query)
            elif route == "/debug/profile":
                response = self._profile(query)
            elif route == "/debug/events":
                response = self._events(query)
            elif route == "/incidents" or route.startswith("/incidents/"):
                response = self._incidents(route)
            else:
                response = self._text_response("unknown admin route", _TEXT, status=404)
        except Exception:
            logger.exception("admin route %s failed", route)
            response = self._text_response("admin handler error", _TEXT, status=500)
        live = self._live_registry()
        if live is not None and live.enabled:
            # Bundle ids would be unbounded label cardinality; collapse them.
            counted = "/incidents" if route.startswith("/incidents/") else route
            live.counter(
                "obs_admin_requests_total",
                "Admin-plane requests served, by route",
                layer="obs",
                operation=counted,
            ).inc()
        return response

    def _registry(self) -> MetricsRegistry:
        return self.registry() if callable(self.registry) else self.registry

    def _live_registry(self) -> MetricsRegistry | None:
        """The process's own registry; None when ``/metrics`` is built per scrape."""
        return None if callable(self.registry) else self.registry

    def _streams(self) -> MiniResponse:
        if self.server is None:
            return self._json_response({"error": "no server configured"}, status=503)
        return self._json_response(self.streams_state())

    def _workers(self) -> MiniResponse:
        if self.fleet is None:
            return self._json_response({"error": "no worker fleet"}, status=503)
        return self._json_response(self.fleet.workers_state())

    def _timeseries(self, query: dict[str, str]) -> MiniResponse:
        if self.sampler is None:
            return self._json_response({"error": "no sampler configured"}, status=503)
        since: int | None = None
        if "since" in query:
            try:
                since = int(query["since"])
            except ValueError:
                return self._json_response({"error": "since must be an integer"}, status=400)
        return self._json_response(self.sampler.snapshot(since=since))

    def _events(self, query: dict[str, str]) -> MiniResponse:
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

    def _incidents(self, route: str) -> MiniResponse:
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

    def _profile(self, query: dict[str, str]) -> MiniResponse:
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
        profiler = WallClockProfiler(interval_s=PROFILER_INTERVAL_S, registry=self._live_registry())
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
        return {"connections": [session.debug_state() for session in self.server.sessions()]}

    # ------------------------------------------------------------------ #
    # Response plumbing
    # ------------------------------------------------------------------ #

    @staticmethod
    def _text_response(text: str, content_type: str, status: int = 200) -> MiniResponse:
        return MiniResponse(status=status, body=text.encode("utf-8"), content_type=content_type)

    @classmethod
    def _json_response(cls, document: dict, status: int = 200) -> MiniResponse:
        return cls._text_response(json.dumps(document, sort_keys=True, default=str), _JSON, status)


# ---------------------------------------------------------------------- #
# Client side: one-shot admin GET over the project's HTTP/2 stack
# ---------------------------------------------------------------------- #


async def admin_fetch(host: str, port: int, path: str) -> tuple[int, bytes]:
    """GET one admin route over TCP; returns ``(status, body)``.

    A deliberately thin client: no generation pipeline, no SWW headers —
    one stream on a :class:`~repro.http2.endpoint.ClientConnection`, which
    returns flow-control credit as the body arrives (profile/timeseries
    bodies outgrow a default window) and raises ``ConnectionError`` if the
    server goes away mid-response.
    """
    client = await ClientConnection.open(
        host, port, H2Connection(Role.CLIENT, gen_ability=False), f"{host}:{port}"
    )
    try:
        await client.settled()
        response = await client.request("GET", path, [(b"user-agent", b"sww-admin-client/1.0")])
    finally:
        await client.close()
    return response.status, response.body


async def admin_fetch_json(host: str, port: int, path: str) -> dict:
    """`admin_fetch` + JSON decode; raises on non-200."""
    status, body = await admin_fetch(host, port, path)
    if status != 200:
        raise RuntimeError(f"admin GET {path} returned {status}")
    return json.loads(body.decode("utf-8"))
