"""The admin plane: its telemetry routes, its own TCP listener beside
the content port, and the one-shot admin client."""

import asyncio
import json

from repro.obs import (
    EventLog,
    FlightRecorder,
    MetricsRegistry,
    SLOTracker,
    TimeSeriesSampler,
)
from repro.http2.connection import H2Connection, Role
from repro.http2.endpoint import ClientConnection
from repro.serving.h2util import MiniH2Server
from repro.sww.admin import AdminPlane, admin_fetch, admin_fetch_json
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.devices import LAPTOP
from repro.workloads import build_travel_blog


def _store() -> SiteStore:
    page = build_travel_blog()
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    return store


def _plane(with_sampler=True, with_slo=False):
    registry = MetricsRegistry()
    sampler = TimeSeriesSampler(registry, interval_s=1.0) if with_sampler else None
    slo = SLOTracker(registry) if with_slo else None
    return registry, sampler, AdminPlane(registry, sampler=sampler, slo=slo)


def _json_body(response) -> dict:
    assert response.status == 200, response.body
    return json.loads(response.body.decode("utf-8"))


class TestRoutes:
    def test_metrics_is_openmetrics(self):
        registry, _sampler, plane = _plane()
        registry.counter("sww_requests_total", layer="sww").inc(3)
        response = plane.respond("/metrics")
        assert response.status == 200
        assert response.content_type.startswith("application/openmetrics-text")
        text = response.body.decode("utf-8")
        assert 'sww_requests_total{layer="sww"} 3' in text
        assert text.rstrip().endswith("# EOF")

    def test_healthz_shape_without_server(self):
        _reg, _sampler, plane = _plane()
        body = _json_body(plane.respond("/healthz"))
        assert body["status"] == "ok"
        assert body["connections"] == 0
        assert body["inflight_streams"] == 0
        assert "loop_stall" in body and "slo" in body

    def test_healthz_includes_slo_report(self):
        registry, sampler, _ = _plane()
        slo = SLOTracker(registry)
        plane = AdminPlane(registry, sampler=sampler, slo=slo)
        registry.histogram("sww_request_seconds", layer="sww").observe(0.01)
        sampler.tick()  # attach() means the tick also evaluates
        body = _json_body(plane.respond("/healthz"))
        assert "request-latency" in body["slo"]
        assert body["slo"]["request-latency"]["healthy"] is True

    def test_debug_streams_empty_without_connections(self):
        registry = MetricsRegistry()
        plane = AdminPlane(registry, server=GenerativeServer(_store(), registry=registry))
        assert _json_body(plane.respond("/debug/streams")) == {"connections": []}

    def test_routes_without_their_source_answer_503(self):
        _reg, _sampler, plane = _plane()
        assert plane.respond("/debug/streams").status == 503
        assert plane.respond("/debug/workers").status == 503

    def test_timeseries_snapshot_and_delta(self):
        registry, sampler, plane = _plane()
        registry.counter("sww_requests_total", layer="sww").inc()
        sampler.tick()
        sampler.tick()
        full = _json_body(plane.respond("/debug/timeseries"))
        assert full["format"] == "sww-timeseries/1"
        assert full["ticks"] == [0, 1]
        delta = _json_body(plane.respond("/debug/timeseries?since=0"))
        assert delta["ticks"] == [1]

    def test_timeseries_rejects_bad_since(self):
        _reg, _sampler, plane = _plane()
        assert plane.respond("/debug/timeseries?since=soon").status == 400

    def test_timeseries_unavailable_without_sampler(self):
        _reg, _none, plane = _plane(with_sampler=False)
        assert plane.respond("/debug/timeseries").status == 503

    def test_profile_collapsed_nonempty(self):
        _reg, _sampler, plane = _plane()
        response = plane.respond("/debug/profile?seconds=0")
        assert response.status == 200
        text = response.body.decode("utf-8")
        # At least the calling thread's stack, in collapsed format.
        assert text.strip()
        assert text.splitlines()[0].rsplit(" ", 1)[1].isdigit()

    def test_profile_chrome_format(self):
        _reg, _sampler, plane = _plane()
        response = plane.respond("/debug/profile?seconds=0&format=chrome")
        document = json.loads(response.body.decode("utf-8"))
        assert "traceEvents" in document

    def test_profile_rejects_bad_query(self):
        _reg, _sampler, plane = _plane()
        assert plane.respond("/debug/profile?seconds=abc").status == 400
        assert plane.respond("/debug/profile?format=svg").status == 400

    def test_unknown_route_404(self):
        _reg, _sampler, plane = _plane()
        assert plane.respond("/nope").status == 404

    def test_admin_traffic_counted_separately(self):
        registry, _sampler, plane = _plane()
        plane.respond("/healthz")
        plane.respond("/healthz")
        assert (
            registry.value(
                "obs_admin_requests_total", layer="obs", operation="/healthz"
            )
            == 2.0
        )
        assert not registry.total("sww_requests_total")

    def test_handler_error_returns_500(self):
        registry, _sampler, plane = _plane()
        plane.healthz = lambda: (_ for _ in ()).throw(RuntimeError("boom"))
        assert plane.respond("/healthz").status == 500


class TestEventAndIncidentRoutes:
    def _plane_with_events(self):
        registry = MetricsRegistry()
        events = EventLog(registry=registry)
        events.begin("server.request", path="/a").finish(status=200)
        events.begin("server.request", path="/b").finish(status=500, error="ValueError")
        recorder = FlightRecorder(registry=registry, events=events)
        plane = AdminPlane(registry, events=events, recorder=recorder)
        return registry, events, recorder, plane

    def test_debug_events_defaults_to_jsonl(self):
        _reg, _events, _rec, plane = self._plane_with_events()
        response = plane.respond("/debug/events")
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        lines = [json.loads(line) for line in response.body.decode().splitlines()]
        assert [line["path"] for line in lines] == ["/a", "/b"]

    def test_debug_events_columnar_and_trim(self):
        _reg, _events, _rec, plane = self._plane_with_events()
        body = _json_body(plane.respond("/debug/events?format=columnar&n=1"))
        assert body["format"] == "sww-events/1"
        assert body["count"] == 1
        assert body["columns"]["path"] == ["/b"]

    def test_debug_events_rejects_bad_query(self):
        _reg, _events, _rec, plane = self._plane_with_events()
        assert plane.respond("/debug/events?n=soon").status == 400
        assert plane.respond("/debug/events?format=xml").status == 400

    def test_debug_events_unavailable_without_log(self):
        _reg, _sampler, plane = _plane()
        assert plane.respond("/debug/events").status == 503

    def test_incidents_listing_and_bundle(self):
        _reg, _events, recorder, plane = self._plane_with_events()
        recorder.note("generation-failure", "ValueError on /b")
        listing = _json_body(plane.respond("/incidents"))
        assert [row["incident"] for row in listing["incidents"]] == ["incident-1"]
        assert "generation-failure" not in listing["armed"]
        bundle = _json_body(plane.respond("/incidents/incident-1"))
        assert bundle["format"] == "sww-incident/1"
        assert bundle["trigger"]["kind"] == "generation-failure"

    def test_unknown_incident_404(self):
        _reg, _events, _rec, plane = self._plane_with_events()
        assert plane.respond("/incidents/incident-99").status == 404

    def test_incidents_unavailable_without_recorder(self):
        _reg, _sampler, plane = _plane()
        assert plane.respond("/incidents").status == 503

    def test_incident_detail_counted_under_collapsed_route(self):
        registry, _events, recorder, plane = self._plane_with_events()
        recorder.note("loop-stall", "synthetic")
        plane.respond("/incidents")
        plane.respond("/incidents/incident-1")
        assert (
            registry.value(
                "obs_admin_requests_total", layer="obs", operation="/incidents"
            )
            == 2.0
        )


class TestOverTcp:
    def _serve(self, scenario):
        """Run ``scenario(registry, plane, port, admin_port)`` against a
        server on ``port`` and its admin plane on ``admin_port``."""
        async def runner():
            registry = MetricsRegistry()
            sampler = TimeSeriesSampler(registry, interval_s=0.05)
            slo = SLOTracker(registry)
            store = _store()
            server = GenerativeServer(store, registry=registry)
            plane = AdminPlane(registry, sampler=sampler, slo=slo, server=server)
            listener = await server.serve_forever("127.0.0.1", 0)
            admin_listener = await MiniH2Server(plane.handle, registry=registry).serve()
            port = listener.sockets[0].getsockname()[1]
            admin_port = admin_listener.sockets[0].getsockname()[1]
            try:
                return await asyncio.wait_for(
                    scenario(registry, plane, port, admin_port), timeout=30
                )
            finally:
                for each in (listener, admin_listener):
                    each.close()
                    await each.wait_closed()

        return asyncio.run(runner())

    @staticmethod
    async def _connected(port):
        """An idle content connection, settled."""
        client = await ClientConnection.open(
            "127.0.0.1", port, H2Connection(Role.CLIENT), "127.0.0.1"
        )
        await client.settled()
        return client

    def test_metrics_scrape_over_tcp(self):
        async def scenario(registry, plane, port, admin_port):
            client = GenerativeClient(device=LAPTOP)
            result = await client.fetch_tcp("127.0.0.1", port, "/blog/ridgeline-hike")
            assert result.status == 200
            status, body = await admin_fetch("127.0.0.1", admin_port, "/metrics")
            return status, body.decode("utf-8")

        status, text = self._serve(scenario)
        assert status == 200
        # The content request above is visible in the scraped exposition.
        assert 'sww_requests_total{layer="sww"' in text
        assert "sww_request_seconds" in text

    def test_healthz_sees_live_connections(self):
        async def scenario(registry, plane, port, admin_port):
            client = await self._connected(port)
            try:
                return await admin_fetch_json("127.0.0.1", admin_port, "/healthz")
            finally:
                await client.close()

        body = self._serve(scenario)
        assert body["status"] in ("ok", "degraded")
        # The open content connection is live; the admin one is not a session.
        assert body["connections"] == 1

    def test_debug_streams_reports_scheduler_state(self):
        async def scenario(registry, plane, port, admin_port):
            client = await self._connected(port)
            try:
                return await admin_fetch_json("127.0.0.1", admin_port, "/debug/streams")
            finally:
                await client.close()

        body = self._serve(scenario)
        assert len(body["connections"]) == 1, "the content connection should be visible"
        state = body["connections"][0]
        assert "connection_window" in state
        assert "inflight_tasks" in state
        assert state["draining"] is False

    def test_timeseries_polling_over_tcp(self):
        async def scenario(registry, plane, port, admin_port):
            sampling = asyncio.create_task(plane.sampler.run())
            await asyncio.sleep(0.2)  # a few 50 ms sampler ticks
            full = await admin_fetch_json("127.0.0.1", admin_port, "/debug/timeseries")
            since = full["tick"]
            delta = await admin_fetch_json(
                "127.0.0.1", admin_port, f"/debug/timeseries?since={since}"
            )
            sampling.cancel()
            return full, delta

        full, delta = self._serve(scenario)
        assert full["tick"] >= 2
        assert all(t > full["tick"] for t in delta["ticks"])

    def test_admin_requests_do_not_inflate_serving_metrics(self):
        async def scenario(registry, plane, port, admin_port):
            await admin_fetch_json("127.0.0.1", admin_port, "/healthz")
            await admin_fetch_json("127.0.0.1", admin_port, "/healthz")
            return (
                registry.total("sww_requests_total"),
                registry.value(
                    "obs_admin_requests_total", layer="obs", operation="/healthz"
                ),
            )

        served, admin = self._serve(scenario)
        assert not served
        assert admin == 2.0

    def test_content_port_serves_only_content(self):
        """The request path knows nothing but requests: an admin route on the
        content connection is a site miss, counted and logged as one."""
        registry = MetricsRegistry()
        events = EventLog()
        server = GenerativeServer(_store(), registry=registry, events=events)
        client = GenerativeClient(device=LAPTOP)
        pair = connect_in_memory(client, server)

        async def healthz():
            future = pair.client.submit(client.request_headers("/healthz", "sww-admin.internal"))
            await pair.client.flush()
            return await future

        response = pair.run(healthz())
        assert response.status == 404
        assert registry.value("sww_requests_total", layer="sww", operation="not-found") == 1
        assert [event.to_dict()["path"] for event in events.events()] == ["/healthz"]

    def test_large_profile_body_crosses_flow_control_windows(self):
        async def scenario(registry, plane, port, admin_port):
            status, body = await admin_fetch(
                "127.0.0.1", admin_port, "/debug/profile?seconds=0.5&format=chrome"
            )
            return status, body

        status, body = self._serve(scenario)
        assert status == 200
        document = json.loads(body.decode("utf-8"))
        assert document["traceEvents"]

    def test_content_requests_unaffected_by_admin_plane(self):
        async def scenario(registry, plane, port, admin_port):
            client = GenerativeClient(device=LAPTOP)
            result = await client.fetch_tcp("127.0.0.1", port, "/blog/ridgeline-hike")
            return result

        result = self._serve(scenario)
        assert result.status == 200
        assert result.sww_mode
