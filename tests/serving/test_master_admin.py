"""The master answers through the same admin plane as one process, over
its merged sources, and its documents keep their exact bytes."""

import hashlib
from types import SimpleNamespace

import pytest

from repro.obs import MetricsRegistry, TimeSeriesSampler, dump_registry
from repro.serving import arbiter as arbiter_module
from repro.serving.arbiter import Arbiter, ArbiterConfig
from repro.serving.supervisor import Worker

#: sha256 of each route's body for the shipments below, with the clock
#: stopped: scrapers read these documents, so their bytes are pinned.
DIGESTS = {
    "/metrics": "5637afb6a914ee3c9362c34a746b4786829a2a9fd8c408025b57c0dcad4c6908",
    "/healthz": "b848de4d4c578a76ed15b92a9c204050279274fb61569ff4ce248e0fdc043e9f",
    "/debug/workers": "6e3c305616af5d6ecb755442ced5811c59678e74b8dbf5654af94299b324c464",
    "/debug/timeseries": "b240dfb85a2a40ac2ba56c35dd08ad9a1ac72f2a4283e68fa59a3ad793d246fd",
    "/debug/events": "58124d81174687155dad2f924faee119acb9768eba936a5ac1bf0492e24c45d1",
}


def _shipments(worker: int):
    """One worker's registry dump, timeseries delta and wide events."""
    registry = MetricsRegistry()
    registry.counter("sww_requests_total", "Requests", layer="sww", operation="generative").inc(3 + worker)
    registry.histogram("sww_request_seconds", "lat", layer="sww", operation="serve").observe(0.01 * (worker + 1))
    registry.gauge("sww_server_inflight_streams", "x", layer="sww", operation="serve").set(worker)
    sampler = TimeSeriesSampler(registry, interval_s=1.0)
    sampler.tick()
    sampler.tick()
    events = [
        {"event": "server.request", "seq": seq, "worker": 100 + worker, "path": path,
         "status": 200, "duration_s": 0.25}
        for seq, path in ((1, "/a"), (2, "/b"))
    ]
    return dump_registry(registry), sampler.snapshot(), events


@pytest.fixture
def master(monkeypatch):
    monkeypatch.setattr(arbiter_module, "time", SimpleNamespace(monotonic=lambda: 1000.0))
    master = Arbiter(ArbiterConfig(), runtime_factory=None)
    master.cache_address = ("127.0.0.1", 4242)
    master._started_at = 990.0
    master.registry.counter("serving_heartbeats_total", "hb", layer="serving", operation="heartbeat").inc(4)
    # Both records first: the supervisor spawns for any worker it misses.
    for worker in (1, 0):
        master.supervisor.workers[100 + worker] = Worker(
            worker_id=worker, pid=100 + worker, generation=0, spawned_at=995.0, last_heartbeat=998.5
        )
    for worker in (1, 0):
        dump, snapshot, events = _shipments(worker)
        for frame in (
            {"type": "hello"},
            {"type": "heartbeat", "requests": 5, "inflight": 1, "connections": 2, "generation_sim_s": 1.5},
            {"type": "metrics", "dump": dump},
            {"type": "timeseries", "snapshot": snapshot},
            {"type": "events", "events": list(reversed(events))},
        ):
            master._handle_frame(100 + worker, frame)
    master._departed_dumps.append(_shipments(7)[0])
    return master


def test_merged_documents_keep_their_bytes(master):
    # Twice: a scrape must not count itself into the next one.
    for _ in range(2):
        for path, digest in DIGESTS.items():
            response = master.admin.respond(path)
            assert response.status == 200, path
            assert hashlib.sha256(response.body).hexdigest() == digest, path


def test_routes_without_a_fleet_source_answer_503(master):
    assert master.admin.respond("/incidents").status == 503
    assert master.admin.respond("/debug/streams").status == 503
    assert master.admin.respond("/debug/events?format=columnar&n=1").status == 200
    profile = master.admin.respond("/debug/profile?seconds=0")
    assert profile.status == 200 and profile.body.strip()
