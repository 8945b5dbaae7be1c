"""Telemetry plane overhead — the PR-6 observability acceptance gate.

The same 8-client load as ``test_server_concurrency`` runs twice through
the concurrent scheduler: once with just the metrics registry (the PR-5
baseline) and once with the full telemetry plane live — time-series
sampler ticking, SLO tracker evaluating per tick, the wall-clock profiler
sampling every thread, and an admin client polling ``/metrics``,
``/healthz`` and ``/debug/timeseries`` on the admin listener throughout.

The acceptance bar: the full plane costs at most 5 % of throughput
(pages per simulated generation second). The run also writes the
artifacts CI uploads — ``benchmarks/artifacts/profile.collapsed`` (the
flamegraph input) and ``benchmarks/artifacts/timeseries.json`` (the
sww-timeseries/1 ring at the end of the load).
"""

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor

from _shared import ARTIFACT_DIR, print_table, record_bench
from test_server_concurrency import (
    BATCH_WAIT_S,
    CLIENTS,
    EXECUTOR_THREADS,
    MAX_BATCH,
    PAGES,
    PAGES_PER_CLIENT,
    build_site,
)

from repro.batching import BatchingEngine
from repro.devices import LAPTOP, WORKSTATION
from repro.obs import (
    EventLog,
    FlightRecorder,
    IdSource,
    MetricsRegistry,
    SLOTracker,
    TailSampler,
    TimeSeriesSampler,
    Tracer,
    WallClockProfiler,
    bundle_signature,
)
from repro.serving.h2util import MiniH2Server
from repro.sww.admin import AdminPlane, admin_fetch, admin_fetch_json
from repro.sww.client import GenerativeClient
from repro.sww.server import GenerativeServer

#: Throughput with the full plane must stay within 5 % of the baseline.
OVERHEAD_GATE = 0.95

SAMPLE_INTERVAL_S = 0.2
POLL_INTERVAL_S = 0.25


def run_load(telemetry: bool):
    """The 8-client concurrent load, with or without the telemetry plane.

    The full plane now includes the wide-event log (one event per request
    through server, engine and clients) and an armed flight recorder
    polling its triggers on every sampler tick — both must fit inside the
    same 5 % overhead gate.
    """
    registry = MetricsRegistry()
    events = EventLog(capacity=8192, registry=registry) if telemetry else None
    engine = BatchingEngine(
        WORKSTATION,
        max_batch=MAX_BATCH,
        max_wait_s=BATCH_WAIT_S,
        registry=registry,
        events=events,
    )
    paths = sorted(build_site().pages)
    lanes = [
        paths[i * PAGES_PER_CLIENT : (i + 1) * PAGES_PER_CLIENT] for i in range(CLIENTS)
    ]
    profiler = WallClockProfiler(interval_s=0.005, registry=registry)
    captured: dict = {"admin_polls": 0}

    async def scenario():
        asyncio.get_running_loop().set_default_executor(ThreadPoolExecutor(EXECUTOR_THREADS))
        server = GenerativeServer(
            build_site(),
            gen_ability=True,
            engine=engine,
            registry=registry,
            events=events,
        )
        plane = None
        recorder = None
        if telemetry:
            sampler = TimeSeriesSampler(registry, interval_s=SAMPLE_INTERVAL_S)
            slo = SLOTracker(registry)
            # AdminPlane attaches the SLO evaluator to the sampler; the
            # recorder attaches after it so each tick evaluates burn rates
            # before the armed triggers read them.
            plane = AdminPlane(
                registry, sampler=sampler, slo=slo, events=events, server=server
            )
            recorder = FlightRecorder(
                registry=registry, events=events, slo=slo, server=server
            ).attach(sampler)
            plane.recorder = recorder
            server.recorder = recorder
            captured["recorder"] = recorder
        listener = await server.serve_forever("127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        admin_listener = sampling = poll_task = None
        try:
            if plane is not None:
                admin_listener = await MiniH2Server(plane.handle, registry=registry).serve()
                admin_port = admin_listener.sockets[0].getsockname()[1]
                sampling = asyncio.create_task(sampler.run())
                profiler.start()

                async def poll_forever():
                    while True:
                        await admin_fetch_json("127.0.0.1", admin_port, "/debug/timeseries")
                        await admin_fetch_json("127.0.0.1", admin_port, "/healthz")
                        await admin_fetch_json(
                            "127.0.0.1", admin_port, "/debug/events?format=columnar&n=64"
                        )
                        await admin_fetch_json("127.0.0.1", admin_port, "/incidents")
                        status, _body = await admin_fetch("127.0.0.1", admin_port, "/metrics")
                        assert status == 200
                        captured["admin_polls"] += 1
                        await asyncio.sleep(POLL_INTERVAL_S)

                poll_task = asyncio.create_task(poll_forever())

            clients = [
                GenerativeClient(device=LAPTOP, gen_ability=False)
                for _ in range(CLIENTS)
            ]

            async def run_client(lane: int):
                return await clients[lane].fetch_many_tcp("127.0.0.1", port, lanes[lane])

            start = time.perf_counter()
            per_client = await asyncio.wait_for(
                asyncio.gather(*(run_client(i) for i in range(CLIENTS))), timeout=600
            )
            wall_s = time.perf_counter() - start

            if plane is not None:
                # One tick and one poll after the load so the artifacts
                # cover it however short the load was: the background
                # sampler's second tick is only due SAMPLE_INTERVAL_S in,
                # and the loaded phase is about that long.
                plane.sampler.tick()
                captured["timeseries"] = await admin_fetch_json(
                    "127.0.0.1", admin_port, "/debug/timeseries"
                )
                captured["healthz"] = await admin_fetch_json(
                    "127.0.0.1", admin_port, "/healthz"
                )
            return wall_s, per_client
        finally:
            for task in (poll_task, sampling):
                if task is not None:
                    task.cancel()
                    await asyncio.wait([task])
            for each in (listener, admin_listener):
                if each is not None:
                    each.close()
                    await each.wait_closed()

    try:
        wall_s, per_client = asyncio.run(scenario())
    finally:
        engine.close()
    if telemetry:
        captured["profile"] = profiler.stop()

    pages: dict[str, str] = {}
    for results in per_client:
        for result in results:
            assert result.status == 200, result.path
            pages[result.path] = result.received_html
    sim_s = registry.histogram(
        "sww_generation_seconds", layer="sww", operation="materialise"
    ).sum
    if events is not None:
        captured["events_jsonl"] = events.to_jsonl()
        captured["events_recorded"] = len(events.events()) + events.dropped
        captured["open_events"] = events.open_count
    return {
        "wall_s": wall_s,
        "sim_s": sim_s,
        "pages": pages,
        "pages_per_sim_s": PAGES / sim_s,
        "registry": registry,
        **captured,
    }


def run_both():
    baseline = run_load(telemetry=False)
    telemetry = run_load(telemetry=True)
    return baseline, telemetry


def test_telemetry_plane_overhead(benchmark):
    baseline, telemetry = benchmark.pedantic(run_both, rounds=1, iterations=1)

    assert len(baseline["pages"]) == len(telemetry["pages"]) == PAGES
    # Telemetry must be invisible in the payload.
    assert telemetry["pages"] == baseline["pages"]

    ratio = telemetry["pages_per_sim_s"] / baseline["pages_per_sim_s"]
    profile = telemetry["profile"]

    print_table(
        f"Telemetry plane: {CLIENTS} clients x {PAGES_PER_CLIENT} pages under full observation",
        ["metric", "registry only", "full plane"],
        [
            ["wall time", f"{baseline['wall_s']:.2f} s", f"{telemetry['wall_s']:.2f} s"],
            ["simulated generation", f"{baseline['sim_s']:.1f} s", f"{telemetry['sim_s']:.1f} s"],
            ["pages / simulated s", f"{baseline['pages_per_sim_s']:.4f}", f"{telemetry['pages_per_sim_s']:.4f}"],
            ["throughput retained", "-", f"{ratio:.1%}"],
            ["admin polls", "-", telemetry["admin_polls"]],
            ["sampler ticks", "-", telemetry["timeseries"]["tick"] + 1],
            ["profiler samples", "-", profile.sample_count],
            ["health status", "-", telemetry["healthz"]["status"]],
            ["wide events", "-", telemetry["events_recorded"]],
            ["incidents fired", "-", len(telemetry["recorder"].incidents())],
        ],
    )

    # The plane observed the load: ticks advanced, the admin endpoint
    # answered mid-run, the profiler saw more than one thread.
    assert telemetry["admin_polls"] >= 1
    assert telemetry["timeseries"]["tick"] >= 1
    assert profile.sample_count > 0
    assert "sww_request_seconds" in json.dumps(telemetry["timeseries"])

    # Every request that began a wide event finished it — no leaked ring
    # entries — and every page fetch is represented at least once.
    assert telemetry["open_events"] == 0
    assert telemetry["events_recorded"] >= PAGES

    # Artifacts for CI: flamegraph input, the timeseries ring, and the
    # wide-event log (one JSON object per request).
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    collapsed = profile.collapsed()
    assert collapsed.strip(), "collapsed profile must not be empty"
    (ARTIFACT_DIR / "profile.collapsed").write_text(collapsed)
    (ARTIFACT_DIR / "timeseries.json").write_text(
        json.dumps(telemetry["timeseries"], sort_keys=True, indent=2) + "\n"
    )
    (ARTIFACT_DIR / "events.jsonl").write_text(telemetry["events_jsonl"])

    # The 5% throughput gate (also enforced in CI against
    # BENCH_server_concurrency.json's concurrent_8 scenario).
    assert ratio >= OVERHEAD_GATE, (
        f"telemetry plane cost {1 - ratio:.1%} of throughput (gate: 5%)"
    )

    record_bench(
        "telemetry",
        "registry_only",
        wall_time_s=baseline["wall_s"],
        generation_sim_s=round(baseline["sim_s"], 3),
        pages=PAGES,
        pages_per_sim_s=round(baseline["pages_per_sim_s"], 6),
    )
    record_bench(
        "telemetry",
        "full_plane",
        wall_time_s=telemetry["wall_s"],
        generation_sim_s=round(telemetry["sim_s"], 3),
        pages=PAGES,
        pages_per_sim_s=round(telemetry["pages_per_sim_s"], 6),
        throughput_retained=round(ratio, 4),
        admin_polls=telemetry["admin_polls"],
        profiler_samples=profile.sample_count,
        sampler_ticks=telemetry["timeseries"]["tick"] + 1,
        clients=CLIENTS,
        wide_events=telemetry["events_recorded"],
        open_events=telemetry["open_events"],
        incidents=len(telemetry["recorder"].incidents()),
    )


# --------------------------------------------------------------------- #
# Deterministic incident capture
# --------------------------------------------------------------------- #

#: Fixed (path, status) request tape for the injected incident: 4 bad of
#: 5 is a 0.8 bad-fraction over the 5% request-latency budget — burn 16x,
#: comfortably over the 14.4x fast-window alert.
INCIDENT_TAPE = [
    ("/blog/a", 200),
    ("/blog/slow", 500),
    ("/blog/slow", 500),
    ("/blog/slow", 500),
    ("/blog/slow", 500),
]

INCIDENT_SEED = 42


def capture_fast_burn(seed: int) -> dict:
    """Drive a fixed workload into an SLO fast burn; return the bundle.

    Everything identity-bearing is seeded (trace/span ids via IdSource)
    or scripted (the request tape), so two captures at the same seed must
    produce byte-identical signature projections — wall-clock durations
    are excluded by :func:`bundle_signature`.
    """
    registry = MetricsRegistry()
    events = EventLog(registry=registry)
    tracer = Tracer(
        ids=IdSource(seed),
        tail=TailSampler(
            capacity=64, slow_k=8, baseline_rate=1.0, ids=IdSource(seed)
        ),
    )
    sampler = TimeSeriesSampler(registry, interval_s=1.0)
    slo = SLOTracker(registry)
    slo.attach(sampler)
    recorder = FlightRecorder(
        registry=registry, events=events, tracer=tracer, slo=slo
    ).attach(sampler)

    latency = registry.histogram("sww_request_seconds", layer="sww")
    sampler.tick()  # baseline tick: burn windows measure from here
    for path, status in INCIDENT_TAPE:
        record = events.begin(
            "server.request", path=path, transport="memory", serve_mode="generative"
        )
        with record.bind(), tracer.span("server.stream", page=path):
            # Over the 5 s request-latency threshold on failures: each bad
            # request spends fast-window error budget.
            latency.observe(9.0 if status == 500 else 0.01)
        if status == 500:
            record.finish(status=status, error="TimeoutError")
        else:
            record.finish(status=status)
    before = set(recorder.armed())
    sampler.tick()  # evaluates burn, then the armed trigger reads it
    fired = before - set(recorder.armed())
    incidents = recorder.incidents()
    assert events.open_count == 0
    return {"fired": fired, "incidents": incidents, "slo": slo.report()}


def test_injected_fast_burn_produces_a_deterministic_bundle():
    first = capture_fast_burn(INCIDENT_SEED)
    second = capture_fast_burn(INCIDENT_SEED)

    # The injected burn fires exactly the fast-burn trigger, once.
    assert first["fired"] == {"slo-fast-burn"}
    assert len(first["incidents"]) == 1
    bundle = first["incidents"][0]
    assert bundle["trigger"]["kind"] == "slo-fast-burn"
    assert "request-latency" in bundle["trigger"]["detail"]
    assert first["slo"]["request-latency"]["windows"]["fast"] >= 14.4
    # The bundle carries the request tape as wide events.
    assert [e["path"] for e in bundle["events"]] == [p for p, _ in INCIDENT_TAPE]

    # Same seed, same tape → same signature, across independent stacks.
    sig_first = bundle_signature(bundle)
    sig_second = bundle_signature(second["incidents"][0])
    assert sig_first == sig_second

    # Export the bundle the way `sww incidents export` would, so CI can
    # pick it up alongside events.jsonl.
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    (ARTIFACT_DIR / f"{bundle['incident']}.json").write_text(
        json.dumps(bundle, sort_keys=True, indent=2) + "\n"
    )

    record_bench(
        "telemetry",
        "injected_fast_burn",
        trigger=bundle["trigger"]["kind"],
        fast_burn=first["slo"]["request-latency"]["windows"]["fast"],
        bundle_events=len(bundle["events"]),
        bundle_traces=len(bundle["traces"]),
        bundle_signature=sig_first,
        deterministic=sig_first == sig_second,
    )
