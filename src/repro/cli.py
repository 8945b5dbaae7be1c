"""Command-line tools for the SWW reproduction.

The subcommands mirror the workflows a site operator or researcher runs:

* ``sww serve``   — start the generative server on TCP (§5.1).
* ``sww fetch``   — run the generative client flow against a server and
  render the page to stdout (§5.2).
* ``sww convert`` — convert a traditional HTML file to SWW form (§4.2)
  and report the compression achieved.
* ``sww demo``    — run a built-in corpus page end-to-end in-process and
  print the experiment summary (no network needed).
* ``sww report``  — measure the paper's headline numbers live and print a
  paper-vs-measured table.
* ``sww stats``   — run a demo flow with metrics enabled and dump the
  collected registry (Prometheus/OpenMetrics text, JSON lines, or a table);
  ``--watch`` polls a live server's admin plane instead.
* ``sww top``     — live terminal view of a running server's telemetry
  plane (throughput, latency quantiles, cache hit rate, SLO burn).
* ``sww incidents`` — list, show or export the flight recorder's captured
  incident bundles (from a live server's admin plane, or offline from a
  directory of bundle JSON artifacts with ``--from-artifacts``).
* ``sww trace``   — run one fetch with per-process tracers (client, server
  and optionally CDN edge + origin), stitch the ``traceparent``-linked
  fragments into one distributed trace, and print/export it
  (``--export`` writes Chrome trace-event JSON for Perfetto).

``fetch`` and ``demo`` accept ``--trace`` to print the nested span tree of
the flow they ran. Installed as the ``sww`` console script; also runnable
via ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.devices import DEVICES, get_device
from repro.obs import (
    IdSource,
    MetricsRegistry,
    Tracer,
    logging_setup,
    render_metrics_table,
    render_span_tree,
    stitch_spans,
    to_chrome_trace,
    to_jsonl,
    to_openmetrics,
    to_prometheus,
)
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.workloads import (
    build_harbour_gallery,
    build_news_article,
    build_travel_blog,
    build_uniform_pages,
    build_wikimedia_landscape_page,
)
from repro.workloads.corpus import populate_traditional_assets

PAGES = {
    "wikimedia": build_wikimedia_landscape_page,
    "travel-blog": build_travel_blog,
    "news": build_news_article,
    "gallery": build_harbour_gallery,
}


def _add_gencache_flags(cmd: argparse.ArgumentParser) -> None:
    from repro.gencache import DEFAULT_GENCACHE_BYTES

    cmd.add_argument(
        "--gencache-bytes",
        type=int,
        default=DEFAULT_GENCACHE_BYTES,
        metavar="N",
        help="capacity of the content-addressed generation cache "
             f"(default {DEFAULT_GENCACHE_BYTES})",
    )


def _make_gencache(args: argparse.Namespace, registry: MetricsRegistry | None = None):
    """Build the shared generation cache the flags describe."""
    from repro.gencache import GenerationCache

    return GenerationCache(args.gencache_bytes, registry=registry)


def _add_batching_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--max-batch",
        type=int,
        default=1,
        metavar="B",
        help="micro-batch window size for generation (1 = batching off, the "
             "paper's solo behaviour; >1 enables the repro.batching engine)",
    )


def _make_engine(args: argparse.Namespace, device, registry=None, tracer=None):
    """Build the micro-batching engine the flags describe (or None)."""
    if args.max_batch <= 1:
        return None
    from repro.batching import BatchingEngine

    return BatchingEngine(
        device,
        max_batch=args.max_batch,
        registry=registry,
        tracer=tracer,
    )


def _build_store(page_names: list[str]) -> SiteStore:
    store = SiteStore()
    for name in page_names:
        # "uniform:N" expands to N distinct equal-cost single-image pages
        # (the worker-scaling benchmark's unit of parallel work).
        if name.startswith("uniform:"):
            try:
                count = int(name.split(":", 1)[1])
            except ValueError:
                raise SystemExit(f"bad page spec {name!r}; want uniform:<count>")
            for page in build_uniform_pages(count):
                store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
                populate_traditional_assets(store, page)
            continue
        try:
            page = PAGES[name]()
        except KeyError:
            raise SystemExit(f"unknown page {name!r}; available: {sorted(PAGES)}")
        store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
        populate_traditional_assets(store, page)
    return store


def _build_server(
    args: argparse.Namespace, store: SiteStore, device, worker_id=None, gencache=None
):
    """The one telemetry + server wiring ``serve`` runs, in the single
    process and in each forked worker alike: registry, event log, tracer
    and engine all report into the same place. Returns (server, sampler).
    """
    from repro.obs import EventLog, TailSampler, TimeSeriesSampler

    registry = MetricsRegistry()
    events = EventLog(registry=registry, worker_id=worker_id)
    tracer = Tracer(registry=registry, tail=TailSampler(registry=registry))
    sampler = TimeSeriesSampler(registry, interval_s=args.sample_interval)
    server = GenerativeServer(
        store,
        device=device,
        gen_ability=not args.no_gen_ability,
        push_assets=args.push,
        registry=registry,
        tracer=tracer,
        gencache=gencache if gencache is not None else _make_gencache(args, registry),
        engine=_make_engine(args, device, registry=registry, tracer=tracer),
        events=events,
        max_concurrent_streams=args.max_concurrent_streams,
    )
    return server, sampler


def cmd_serve(args: argparse.Namespace) -> int:
    if args.workers > 1:
        return _serve_multiworker(args)
    from repro.obs import FlightRecorder, SLOTracker
    from repro.serving.h2util import MiniH2Server
    from repro.sww.admin import AdminPlane

    store = _build_store(args.pages)
    server, sampler = _build_server(args, store, get_device(args.device))
    registry, events = server.registry, server.events
    slo = SLOTracker(registry)
    recorder = FlightRecorder(
        registry=registry, events=events, tracer=server.tracer, slo=slo
    ).attach(sampler)
    admin = AdminPlane(
        registry, sampler=sampler, slo=slo, events=events, recorder=recorder, server=server
    )
    server.recorder = recorder
    recorder.server = server

    async def run() -> None:
        listener = await server.serve_forever(args.host, args.port)
        admin_listener = await MiniH2Server(admin.handle, registry=registry).serve(
            host=args.host, port=args.admin_port
        )
        sampling = asyncio.create_task(sampler.run())
        port = listener.sockets[0].getsockname()[1]
        admin_port = admin_listener.sockets[0].getsockname()[1]
        paths = ", ".join(sorted(store.pages))
        print(f"sww generative server on {args.host}:{port} (device={args.device}, "
              f"gen_ability={server.gen_ability}); pages: {paths}", flush=True)
        print(f"telemetry plane on {args.host}:{admin_port} "
              "(/metrics /healthz /debug/streams /debug/timeseries /debug/profile "
              "/debug/events /incidents); "
              f"watch live with: sww top --port {admin_port}", flush=True)
        try:
            async with listener, admin_listener:
                await listener.serve_forever()
        finally:
            sampling.cancel()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _serve_multiworker(args: argparse.Namespace) -> int:
    """``serve --workers N``: a pre-fork arbiter masters N serving workers.

    The store is built once pre-fork (read-only after construction, so
    copy-on-write shares it); everything stateful — registry, event log,
    sampler, server, cache facade — is built per worker inside
    ``runtime_factory``, which runs in the child after fork.
    """
    import os

    from repro.serving import Arbiter, ArbiterConfig, RemoteGenerationCache

    store = _build_store(args.pages)
    device = get_device(args.device)

    def runtime_factory(cache_address):
        # Key the event stream by pid: merged jsonl orders by
        # (worker, seq) and respawned workers never collide.
        return _build_server(
            args, store, device, worker_id=os.getpid(),
            gencache=RemoteGenerationCache(*cache_address),
        )

    config = ArbiterConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        worker_timeout_s=args.worker_timeout,
        heartbeat_interval_s=args.heartbeat_interval,
        max_requests=args.max_requests,
        connection_limit=args.worker_connections,
        admin_port=args.admin_port,
        cache_capacity_bytes=args.gencache_bytes,
    )
    try:
        return Arbiter(config, runtime_factory).run()
    except KeyboardInterrupt:
        return 0


def cmd_fetch(args: argparse.Namespace) -> int:
    tracer = Tracer() if args.trace else None
    device = get_device(args.device)
    engine = _make_engine(args, device, tracer=tracer)
    client = GenerativeClient(
        device=device,
        gen_ability=not args.no_gen_ability,
        tracer=tracer,
        gencache=_make_gencache(args),
        engine=engine,
    )

    async def run():
        return await client.fetch_tcp(args.host, args.port, args.path)

    result = asyncio.run(run())
    print(f"status {result.status}; served as "
          f"{'SWW prompts' if result.sww_mode else 'traditional HTML'}; "
          f"{result.wire_bytes:,} bytes on the wire")
    if result.report:
        print(f"generated {result.report.generated_images} images and "
              f"{result.report.generated_texts} texts locally in "
              f"{result.generation_time_s:.1f} simulated s "
              f"({result.generation_energy_wh:.3f} Wh)")
        if result.report.cache_hits or result.report.coalesced:
            print(f"generation cache answered {result.report.cache_hits} items "
                  f"({result.report.coalesced} coalesced in flight)")
    if engine is not None:
        stats = engine.stats
        print(f"micro-batching: {stats.requests} requests in {stats.batches} batches "
              f"(mean {stats.mean_batch:.1f}, max {stats.largest_batch}; "
              f"saved {stats.saved_sim_s:.1f} simulated s)")
        engine.close()
    if tracer is not None:
        print()
        print(render_span_tree(tracer))
    print()
    print(result.rendered)
    return 0 if result.status == 200 else 1


def cmd_convert(args: argparse.Namespace) -> int:
    from repro.html import parse_html, serialize
    from repro.sww.cms import ContentManagementSystem
    from repro.sww.conversion import PageConverter, PromptInverter

    if args.input == "-":
        source = sys.stdin.read()
    else:
        with open(args.input, encoding="utf-8") as handle:
            source = handle.read()
    document = parse_html(source)
    cms = (
        ContentManagementSystem.for_template(args.template)
        if args.template
        else ContentManagementSystem()
    )
    converter = PageConverter(inverter=PromptInverter(fidelity=args.fidelity), cms=cms)
    report = converter.convert(document, topic=args.topic)
    converted = serialize(document)
    if args.output == "-":
        sys.stdout.write(converted)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(converted)
    print(
        f"converted {report.converted_images} images and {report.converted_texts} "
        f"text blocks ({report.kept_unique} kept unique); compression "
        f"{report.account.ratio:.1f}x on converted content",
        file=sys.stderr,
    )
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    page = PAGES[args.page]()
    tracer = Tracer() if args.trace else None
    gencache = _make_gencache(args)
    device = get_device(args.device)
    engine = _make_engine(args, device, tracer=tracer)
    server = GenerativeServer(_build_store([args.page]), tracer=tracer)
    client = GenerativeClient(device=device, tracer=tracer, gencache=gencache, engine=engine)
    pair = connect_in_memory(client, server)
    result = client.fetch_via_pair(pair, page.path)
    account = page.account
    print(f"page: {page.title}")
    print(f"original content : {account.original_total:,} B")
    print(f"SWW wire bytes   : {result.wire_bytes:,} B")
    if account.metadata:
        print(f"compression      : {account.ratio:.1f}x on generatable content")
    if result.report:
        print(f"generated        : {result.report.generated_images} images, "
              f"{result.report.generated_texts} texts on the {args.device}")
        print(f"generation cost  : {result.generation_time_s:.1f} simulated s, "
              f"{result.generation_energy_wh:.3f} Wh (cold)")
    if result.report:
        # A second fetch of the same page: every item now hits the cache.
        # The cold line above is untouched; warm cost is reported beside it.
        warm = client.fetch_via_pair(connect_in_memory(client, server), page.path)
        if warm.report:
            print(f"warm re-fetch    : {warm.generation_time_s:.3f} simulated s, "
                  f"{warm.report.cache_hits}/{warm.report.generated_total} items from cache "
                  f"(saved {gencache.stats.saved_sim_seconds:.1f} s)")
    if engine is not None:
        stats = engine.stats
        print(f"micro-batching   : {stats.requests} requests in {stats.batches} batches "
              f"(mean {stats.mean_batch:.1f}, saved {stats.saved_sim_s:.1f} simulated s)")
        engine.close()
    if tracer is not None:
        print()
        print(render_span_tree(stitch_spans(tracer.roots())))
    if args.render:
        print()
        print(result.rendered)
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Simulate the geo-distributed edge fleet under open-loop load."""
    import json

    from repro.cdn.fleet import EdgeFleet, FleetConfig, build_fleet_catalog
    from repro.cdn.placement import HashRing
    from repro.cdn.router import FleetRouter
    from repro.workloads.session import OpenLoopSession
    from repro.workloads.traffic import default_regions

    config = FleetConfig(
        edges=args.edges,
        gencache_bytes=int(args.gencache_mib * 1024 * 1024),
        gen_lanes=args.lanes,
        max_backlog_s=args.max_backlog,
    )
    catalog = build_fleet_catalog(args.catalog)
    ring = HashRing(config.edge_names(), config.vnodes)
    regions = default_regions(args.regions, rate_per_s=args.rate)
    router = FleetRouter(regions, ring)
    fleet = EdgeFleet(catalog, config, router, ring=ring)
    session = OpenLoopSession(fleet, regions, args.duration, seed=args.seed)

    passes = [session.run() for _ in range(max(1, args.passes))]
    final = passes[-1]

    if args.json:
        payload = {
            "config": {
                "edges": args.edges,
                "regions": args.regions,
                "rate_per_s": args.rate,
                "duration_s": args.duration,
                "catalog_items": args.catalog,
                "gencache_mib": args.gencache_mib,
                "passes": len(passes),
                "seed": args.seed,
            },
            "passes": [p.summary() for p in passes],
            "fleet": fleet.debug_state(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    label = "warm" if len(passes) > 1 else "cold"
    summary = final.summary()
    print(f"fleet: {args.edges} edges, {args.regions} regions @ {args.rate:.1f} req/s each, "
          f"{args.duration:.0f} s tape x {len(passes)} pass(es)")
    print(f"requests         : {summary['requests']:,} ({label} pass shown)")
    print(f"fleet hit rate   : {100 * summary['fleet_hit_rate']:.1f}% "
          f"(edge+peer+coalesced, one outcome per request)")
    for tier in ("edge", "peer", "coalesced", "generated", "origin"):
        stats = summary["tiers"].get(tier)
        if stats:
            print(f"  {tier:<14} : {stats['count']:>6,}  "
                  f"p50 {stats['p50_s'] * 1000:7.1f} ms  p99 {stats['p99_s'] * 1000:8.1f} ms")
    offload = summary["origin_offload"]
    offload_text = "inf (no origin bytes)" if offload is None else f"{offload:.1f}x"
    print(f"origin offload   : {offload_text} "
          f"({summary['origin_bytes']:,} B from origin vs {summary['egress_bytes']:,} B egress)")
    print(f"latency          : p50 {summary['p50_s'] * 1000:.1f} ms, "
          f"p99 {summary['p99_s'] * 1000:.1f} ms, "
          f"mean queue {summary['mean_queue_s'] * 1000:.1f} ms")
    print(f"generation       : {summary['generation_sim_s']:.1f} simulated s, "
          f"{summary['generation_energy_wh']:.2f} Wh this pass; "
          f"saved {fleet.ledger.saved_sim_seconds:.1f} s / "
          f"{fleet.ledger.saved_energy_wh:.2f} Wh total")
    state = fleet.debug_state()
    busiest = max(state["edges"].items(), key=lambda kv: kv[1]["generations"])
    print(f"edges            : busiest {busiest[0]} with {busiest[1]['generations']} generations; "
          f"shield collapsed {state['shield_coalesced']} pulls, "
          f"{state['origin_media_pulls']} media / {state['origin_prompt_pulls']} prompt origin pulls")
    return 0


def _top_frame(snap: dict, health: dict, window_ticks: int) -> str:
    """Render one `sww top` frame from a timeseries snapshot + healthz."""
    from repro.obs import snapshot_last, snapshot_quantile, snapshot_rate

    def fmt(value, spec=".1f", suffix=""):
        return "-" if value is None else f"{value:{spec}}{suffix}"

    def delta_ratio(numerator: str, denominator: str):
        num = snapshot_rate(snap, numerator, window_ticks)
        den = snapshot_rate(snap, denominator, window_ticks)
        return None if not den else (num or 0.0) / den

    hits = snapshot_last(snap, "gencache_hits_total") or 0.0
    misses = snapshot_last(snap, "gencache_misses_total") or 0.0
    lookups = hits + misses
    loop = health.get("loop_stall", {})
    lines = [
        f"sww top — tick {snap.get('tick', -1)} "
        f"(interval {snap.get('interval_s', 0):g}s, window {window_ticks} ticks) "
        f"— status {health.get('status', '?')}",
        "",
        f"  requests    {fmt(snapshot_rate(snap, 'sww_requests_total', window_ticks), '.2f', '/s')}"
        f"   inflight {fmt(snapshot_last(snap, 'sww_server_inflight_streams'), '.0f')}"
        f"   connections {health.get('connections', 0)}",
        f"  latency     p50 {fmt(snapshot_quantile(snap, 'sww_request_seconds', 0.5, window_ticks), '.3f', 's')}"
        f"   p99 {fmt(snapshot_quantile(snap, 'sww_request_seconds', 0.99, window_ticks), '.3f', 's')}",
        f"  loop stall  recent {loop.get('recent_max_s', 0) * 1000:.1f}ms"
        f"   worst {loop.get('worst_s', 0) * 1000:.1f}ms",
        f"  gencache    hit rate {fmt(hits / lookups if lookups else None, '.0%')}"
        f"   ({hits:.0f} hits / {misses:.0f} misses)",
        f"  batching    occupancy {fmt(delta_ratio('batching_requests_total', 'batching_batches_total'), '.2f')}"
        f"   queue {fmt(snapshot_last(snap, 'batching_queue_wait_seconds'), '.2f', 's-sum')}",
        f"  writer      stalls {fmt(snapshot_last(snap, 'http2_writer_stalls_total'), '.0f')}"
        f"   ({fmt(snapshot_rate(snap, 'http2_writer_stalls_total', window_ticks), '.2f', '/s')})"
        f"   buffered {fmt(snapshot_last(snap, 'http2_writer_buffered_bytes'), '.0f', 'B')}",
    ]
    slo = health.get("slo", {})
    for name, entry in sorted(slo.items()):
        windows = entry.get("windows", {})
        burns = "  ".join(f"{label} {burn:g}x" for label, burn in sorted(windows.items()))
        flag = "" if entry.get("healthy", True) else "  ** BURNING **"
        budget = entry.get("budget_remaining")
        budget_text = f"  budget {budget:.0%}" if budget is not None else ""
        lines.append(f"  slo         {name}: {burns or 'no data'}{budget_text}{flag}")
    return "\n".join(lines)


#: Watch loops (`sww top`, `sww stats --watch`) tolerate transient admin
#: outages (server restart, connection reset) once they have connected:
#: a failed poll prints a reconnecting row and retries with linear
#: backoff, giving up after this many consecutive failures. A failure
#: before the *first* successful poll stays fatal — that is a wrong
#: host/port, not a blip.
WATCH_MAX_RETRIES = 5
WATCH_BACKOFF_S = 0.5


class _WatchGaveUp(Exception):
    """The watch loop exhausted its reconnect attempts."""


async def _watch_poll(poll, host: str, port: int, ever_connected: bool):
    """One watch-loop poll; retries transient failures with backoff."""
    attempt = 0
    while True:
        try:
            return await poll()
        except (ConnectionError, OSError) as exc:
            if not ever_connected:
                print(f"cannot reach {host}:{port}: {exc}", file=sys.stderr)
                raise _WatchGaveUp from exc
            attempt += 1
            if attempt > WATCH_MAX_RETRIES:
                print(
                    f"cannot reach {host}:{port} after {WATCH_MAX_RETRIES} retries: {exc}",
                    file=sys.stderr,
                )
                raise _WatchGaveUp from exc
            print(
                f"  reconnecting to {host}:{port} "
                f"(attempt {attempt}/{WATCH_MAX_RETRIES}): {exc}",
                file=sys.stderr,
                flush=True,
            )
            await asyncio.sleep(WATCH_BACKOFF_S * attempt)


def cmd_top(args: argparse.Namespace) -> int:
    """Live terminal view of a running server's telemetry plane."""
    from repro.sww.admin import admin_fetch_json

    window_ticks = max(1, round(args.window / args.interval))

    async def run() -> int:
        iteration = 0
        connected = False
        while True:
            try:
                snap = await _watch_poll(
                    lambda: admin_fetch_json(args.host, args.port, "/debug/timeseries"),
                    args.host, args.port, connected,
                )
                health = await _watch_poll(
                    lambda: admin_fetch_json(args.host, args.port, "/healthz"),
                    args.host, args.port, connected,
                )
            except _WatchGaveUp:
                return 1
            connected = True
            frame = _top_frame(snap, health, window_ticks)
            if sys.stdout.isatty():
                print("\x1b[2J\x1b[H" + frame, flush=True)
            else:
                print(frame + "\n", flush=True)
            iteration += 1
            if args.iterations and iteration >= args.iterations:
                return 0
            await asyncio.sleep(args.interval)

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _stats_watch(args: argparse.Namespace) -> int:
    """`sww stats --watch`: poll a live server's /metrics exposition."""
    from repro.sww.admin import admin_fetch

    async def run() -> int:
        iteration = 0
        connected = False
        while True:
            try:
                status, body = await _watch_poll(
                    lambda: admin_fetch(args.host, args.port, "/metrics"),
                    args.host, args.port, connected,
                )
            except _WatchGaveUp:
                return 1
            connected = True
            if status != 200:
                print(f"/metrics returned {status}", file=sys.stderr)
                return 1
            print(body.decode("utf-8").rstrip("\n"), flush=True)
            iteration += 1
            if args.iterations and iteration >= args.iterations:
                return 0
            await asyncio.sleep(args.interval)

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Exercise one demo page with metrics enabled and dump the registry.

    Runs a capable-client fetch and a naive-client fetch against the same
    in-process server so the dump covers the negotiation, generation,
    fallback and HTTP/2 framing metric families. With ``--watch`` it
    instead polls a live server's admin plane for its exposition.
    """
    if args.watch:
        return _stats_watch(args)
    page = PAGES[args.page]()
    registry = MetricsRegistry()
    tracer = Tracer(ids=IdSource(1))
    store = _build_store([args.page])
    print(f"measuring one capable and one naive fetch of {page.path}...", file=sys.stderr)
    # One cache shared by the capable client and the server's fallback
    # path: the naive fetch's server-side materialisation reuses what the
    # capable client already generated, so the gencache_* families show
    # real cross-layer hits.
    gencache = _make_gencache(args, registry)
    device = get_device(args.device)
    engine = _make_engine(args, device, registry=registry, tracer=tracer)
    server = GenerativeServer(store, registry=registry, tracer=tracer, gencache=gencache)
    capable = GenerativeClient(
        device=device, registry=registry, tracer=tracer, gencache=gencache, engine=engine
    )
    capable.fetch_via_pair(connect_in_memory(capable, server), page.path)
    naive = GenerativeClient(
        device=device, gen_ability=False, registry=registry, tracer=tracer
    )
    naive.fetch_via_pair(connect_in_memory(naive, server), page.path)
    if engine is not None:
        engine.close()  # drain so the batching_* families are settled
    if args.format == "prom":
        output = to_prometheus(registry)
    elif args.format == "openmetrics":
        output = to_openmetrics(registry)
    elif args.format == "jsonl":
        output = to_jsonl(registry)
    else:
        output = render_metrics_table(registry)
    print(output.rstrip("\n"))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """One fetch, traced across simulated process boundaries.

    Client and server (and, with ``--cdn``, edge and origin) each get
    their *own* tracer — four ring buffers standing in for four
    processes. Causality crosses the wire only through the
    ``traceparent`` request header, so the stitched output demonstrates
    the propagation path end to end. Seeded id sources keep trace/span
    ids identical run to run.
    """
    path = args.path or PAGES[args.page]().path
    registry = MetricsRegistry()
    client_tracer = Tracer(ids=IdSource(args.seed), sample_rate=args.sample_rate, registry=registry)
    server_tracer = Tracer(ids=IdSource(args.seed + 1), registry=registry)

    server = GenerativeServer(
        _build_store([args.page]), registry=registry, tracer=server_tracer, push_assets=True
    )

    print(f"tracing a generative and a naive fetch of {path}...", file=sys.stderr)
    capable = GenerativeClient(device=get_device(args.device), registry=registry, tracer=client_tracer)
    capable.fetch_via_pair(connect_in_memory(capable, server), path)
    # The naive fetch exercises the negotiation-fallback and server-push
    # paths: the server materialises the page (genai spans land server-side)
    # and pushes the generated media.
    naive = GenerativeClient(
        device=get_device(args.device), gen_ability=False, registry=registry, tracer=client_tracer
    )
    naive.fetch_via_pair(connect_in_memory(naive, server), path)

    tracers = [client_tracer, server_tracer]
    if args.cdn:
        from repro.cdn.edge import CatalogItem, EdgeNode, OriginCatalog
        from repro.media.jpeg_model import jpeg_size
        from repro.obs import encode_traceparent

        edge_tracer = Tracer(ids=IdSource(args.seed + 2), registry=registry)
        origin_tracer = Tracer(ids=IdSource(args.seed + 3), registry=registry)
        catalog = OriginCatalog(tracer=origin_tracer)
        key = "/media/alpine-meadow-512.jpg"
        catalog.add(
            CatalogItem(
                key=key,
                prompt="a sunlit alpine meadow below a glacier tongue",
                width=512,
                height=512,
                media_bytes=jpeg_size(512, 512),
            )
        )
        edge = EdgeNode(
            catalog,
            cache_capacity_bytes=1 << 20,
            mode="prompt",
            registry=registry,
            tracer=edge_tracer,
        )
        # Two user requests: the first misses (edge→origin hop with the
        # re-injected traceparent, then on-edge generation), the second hits.
        for _ in range(2):
            with client_tracer.span("client.fetch", key=key, transport="cdn") as span:
                edge.serve(key, traceparent=encode_traceparent(span.context))
        tracers += [edge_tracer, origin_tracer]

    stitched = stitch_spans([root for tracer in tracers for root in tracer.roots()])
    for root in stitched:
        print(f"\ntrace {root.trace_id}")
        print(render_span_tree([root]))

    exemplars = [
        (name, inst, exemplar)
        for name, kind, _help, instruments in registry.collect()
        if kind == "histogram"
        for inst in instruments
        for exemplar in inst.exemplars()
    ]
    if exemplars:
        print("\nexemplars (histogram bucket -> trace):")
        for name, inst, (bound, trace_id, value) in exemplars:
            labels = " ".join(f"{k}={v}" for k, v in inst.labels)
            print(f"  {name}{{{labels}}} le={bound:g}: {value:.3f} @ trace {trace_id}")

    if args.export:
        with open(args.export, "w", encoding="utf-8") as handle:
            handle.write(to_chrome_trace(stitched))
        print(f"\nwrote Chrome trace-event JSON to {args.export} "
              "(open at https://ui.perfetto.dev or chrome://tracing)", file=sys.stderr)
    return 0


def _incident_rows(bundles: list[dict]) -> str:
    """One aligned row per incident bundle for `sww incidents list`."""
    lines = []
    for bundle in bundles:
        trigger = bundle.get("trigger", {})
        detail = trigger.get("detail") or "-"
        lines.append(
            f"{bundle.get('incident', '?'):<14} {trigger.get('kind', '?'):<20} "
            f"events={len(bundle.get('events', [])):<5} "
            f"traces={len(bundle.get('traces', [])):<4} {detail}"
        )
    return "\n".join(lines)


def _load_artifact_bundles(directory: str) -> list[dict]:
    """Offline mode: read `<dir>/*.json` incident bundles (CI artifacts)."""
    import json
    from pathlib import Path

    from repro.obs import BUNDLE_FORMAT

    bundles = []
    root = Path(directory)
    if not root.is_dir():
        raise SystemExit(f"no artifact directory {directory!r}")
    for path in sorted(root.glob("*.json")):
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if isinstance(document, dict) and document.get("format") == BUNDLE_FORMAT:
            bundles.append(document)
    return bundles


def cmd_incidents(args: argparse.Namespace) -> int:
    """`sww incidents list|show|export` — flight-recorder bundles.

    Live mode polls a running server's admin plane; ``--from-artifacts``
    reads bundle JSON files from a directory instead (the shape CI's
    failure-export step and the benchmark artifacts write), so bundles
    remain inspectable after the process that captured them is gone.
    """
    import json

    if args.from_artifacts is not None:
        bundles = _load_artifact_bundles(args.from_artifacts)
    else:
        from repro.sww.admin import admin_fetch, admin_fetch_json

        async def fetch_all() -> list[dict]:
            status, body = await admin_fetch(args.host, args.port, "/incidents")
            if status == 503:
                # No flight recorder behind this plane: the arbiter's master.
                print(f"{args.host}:{args.port} keeps no flight recorder", file=sys.stderr)
                return []
            if status != 200:
                raise RuntimeError(f"admin GET /incidents returned {status}")
            listing = json.loads(body)
            return [
                await admin_fetch_json(
                    args.host, args.port, f"/incidents/{row['incident']}"
                )
                for row in listing.get("incidents", [])
            ]

        try:
            bundles = asyncio.run(fetch_all())
        except (ConnectionError, OSError, RuntimeError) as exc:
            print(f"cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
            return 1
    if args.action == "list":
        if not bundles:
            print("no incidents captured")
            return 0
        print(_incident_rows(bundles))
        return 0
    if args.action == "show":
        if not args.incident:
            raise SystemExit("incidents show requires an incident id")
        for bundle in bundles:
            if bundle.get("incident") == args.incident:
                print(json.dumps(bundle, sort_keys=True, indent=2))
                return 0
        print(f"no incident {args.incident!r}", file=sys.stderr)
        return 1
    # export
    from pathlib import Path

    target = Path(args.dir)
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for bundle in bundles:
        path = target / f"{bundle.get('incident', 'incident')}.json"
        path.write_text(json.dumps(bundle, sort_keys=True, indent=2) + "\n")
        written.append(path)
    print(f"exported {len(written)} incident bundle(s) to {target}")
    for path in written:
        print(f"  {path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.report import format_report, run_headline_experiments

    print("running the headline experiments (simulated time; ~10 s wall)...", file=sys.stderr)
    print(format_report(run_headline_experiments()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sww", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=["debug", "info", "warning", "error"],
        help="threshold for the repro.* logger hierarchy",
    )
    parser.add_argument(
        "--log-format",
        default="text",
        choices=["text", "json"],
        help="log line shape: classic text, or one JSON object per line "
             "(field names shared with the wide-event schema)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="start the generative server on TCP")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8443)
    serve.add_argument("--device", default="workstation", choices=sorted(DEVICES))
    serve.add_argument("--pages", nargs="+", default=list(PAGES), metavar="PAGE")
    serve.add_argument("--no-gen-ability", action="store_true", help="run as a naive HTTP/2 server")
    serve.add_argument("--push", action="store_true", help="server-push generated assets to naive clients")
    serve.add_argument(
        "--sample-interval",
        type=float,
        default=1.0,
        metavar="S",
        help="time-series sampler tick interval in seconds (default 1.0)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="pre-fork N serving workers under an arbiter (1 = the "
             "single-process path, unchanged)",
    )
    serve.add_argument(
        "--worker-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="SIGKILL a worker whose heartbeat is older than this (default 30)",
    )
    serve.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        metavar="S",
        help="worker heartbeat/telemetry shipping interval (default 1.0)",
    )
    serve.add_argument(
        "--max-requests",
        type=int,
        default=0,
        metavar="N",
        help="gracefully recycle a worker after N requests plus up to 10%% "
             "deterministic jitter (0 = never)",
    )
    serve.add_argument(
        "--worker-connections",
        type=int,
        default=0,
        metavar="N",
        help="cap concurrently held connections per worker; 1 makes the "
             "shared-socket accept least-loaded (0 = unlimited)",
    )
    serve.add_argument(
        "--admin-port",
        type=int,
        default=0,
        metavar="PORT",
        help="admin plane port, apart from the serving port (0 = ephemeral)",
    )
    serve.add_argument(
        "--max-concurrent-streams",
        type=int,
        default=None,
        metavar="N",
        help="advertise and enforce SETTINGS_MAX_CONCURRENT_STREAMS; "
             "excess streams are refused with REFUSED_STREAM "
             "(default: unlimited)",
    )
    _add_gencache_flags(serve)
    _add_batching_flags(serve)
    serve.set_defaults(func=cmd_serve)

    top = sub.add_parser(
        "top", help="live terminal view of a running server's telemetry plane"
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=8443,
                     help="the admin port serve printed (both modes)")
    top.add_argument("--interval", type=float, default=2.0, metavar="S",
                     help="refresh interval in seconds (default 2.0)")
    top.add_argument("--window", type=float, default=10.0, metavar="S",
                     help="trailing window for rates/quantiles (default 10.0)")
    top.add_argument("--iterations", type=int, default=0, metavar="N",
                     help="stop after N frames (0 = run until interrupted)")
    top.set_defaults(func=cmd_top)

    fetch = sub.add_parser("fetch", help="fetch a page with the generative client")
    fetch.add_argument("path")
    fetch.add_argument("--host", default="127.0.0.1")
    fetch.add_argument("--port", type=int, default=8443)
    fetch.add_argument("--device", default="laptop", choices=sorted(DEVICES))
    fetch.add_argument("--no-gen-ability", action="store_true", help="fetch as a naive client")
    fetch.add_argument("--trace", action="store_true", help="print the span tree of the fetch")
    _add_gencache_flags(fetch)
    _add_batching_flags(fetch)
    fetch.set_defaults(func=cmd_fetch)

    convert = sub.add_parser("convert", help="convert a traditional HTML file to SWW form")
    convert.add_argument("input", help="input HTML file, or - for stdin")
    convert.add_argument("output", help="output HTML file, or - for stdout")
    convert.add_argument("--fidelity", type=float, default=0.85)
    convert.add_argument("--topic", default="technology")
    convert.add_argument("--template", default=None, help="CMS template (blog/company/gallery/news)")
    convert.set_defaults(func=cmd_convert)

    demo = sub.add_parser("demo", help="run a corpus page end-to-end in-process")
    demo.add_argument("--page", default="travel-blog", choices=sorted(PAGES))
    demo.add_argument("--device", default="laptop", choices=sorted(DEVICES))
    demo.add_argument("--render", action="store_true", help="print the rendered page")
    demo.add_argument("--trace", action="store_true", help="print the span tree of the flow")
    _add_gencache_flags(demo)
    _add_batching_flags(demo)
    demo.set_defaults(func=cmd_demo)

    report = sub.add_parser("report", help="measure the paper's headline numbers live")
    report.set_defaults(func=cmd_report)

    fleet = sub.add_parser(
        "fleet", help="simulate the geo-distributed edge fleet under open-loop load"
    )
    fleet.add_argument("--edges", type=int, default=4, metavar="N",
                       help="edge count on the consistent-hash ring (default 4)")
    fleet.add_argument("--regions", type=int, default=8, metavar="N",
                       help="user regions, each homed on an edge (default 8)")
    fleet.add_argument("--rate", type=float, default=2.0, metavar="R",
                       help="open-loop Poisson arrivals per second per region (default 2.0)")
    fleet.add_argument("--duration", type=float, default=60.0, metavar="S",
                       help="simulated seconds of tape per pass (default 60)")
    fleet.add_argument("--catalog", type=int, default=240, metavar="N",
                       help="origin catalog size in items (default 240)")
    fleet.add_argument("--gencache-mib", type=float, default=24.0, metavar="MIB",
                       help="generation-cache capacity per edge (default 24 MiB)")
    fleet.add_argument("--lanes", type=int, default=1, metavar="N",
                       help="concurrent generation lanes per edge (default 1)")
    fleet.add_argument("--max-backlog", type=float, default=5.0, metavar="S",
                       help="queue backlog before the bounded-load walk spills and "
                            "the origin fallback engages (default 5.0)")
    fleet.add_argument("--passes", type=int, default=2, metavar="N",
                       help="tape replays; pass 2+ measures warm caches (default 2)")
    fleet.add_argument("--seed", type=int, default=0, help="workload seed")
    fleet.add_argument("--json", action="store_true", help="emit JSON instead of the summary")
    fleet.set_defaults(func=cmd_fleet)

    incidents = sub.add_parser(
        "incidents", help="list, show or export flight-recorder incident bundles"
    )
    incidents.add_argument("action", choices=["list", "show", "export"])
    incidents.add_argument("incident", nargs="?", default=None,
                           help="incident id (required for show)")
    incidents.add_argument("--host", default="127.0.0.1")
    incidents.add_argument("--port", type=int, default=8443,
                           help="the admin port serve printed (both modes)")
    incidents.add_argument("--from-artifacts", metavar="DIR", default=None,
                           help="read bundle JSON files from DIR instead of a live "
                                "server (CI / benchmark artifacts)")
    incidents.add_argument("--dir", default="incidents", metavar="DIR",
                           help="output directory for export (default ./incidents)")
    incidents.set_defaults(func=cmd_incidents)

    stats = sub.add_parser("stats", help="run a demo flow with metrics on and dump the registry")
    stats.add_argument("--page", default="travel-blog", choices=sorted(PAGES))
    stats.add_argument("--device", default="laptop", choices=sorted(DEVICES))
    stats.add_argument("--format", default="prom", choices=["prom", "openmetrics", "jsonl", "table"],
                       help="output format: Prometheus text, OpenMetrics text (with "
                            "exemplars), JSON lines, or aligned table")
    stats.add_argument("--watch", action="store_true",
                       help="poll a live server's /metrics exposition instead of "
                            "running the in-process demo flow")
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--port", type=int, default=8443,
                       help="the admin port serve printed (both modes)")
    stats.add_argument("--interval", type=float, default=2.0, metavar="S",
                       help="refresh interval for --watch (default 2.0)")
    stats.add_argument("--iterations", type=int, default=0, metavar="N",
                       help="stop --watch after N polls (0 = run until interrupted)")
    _add_gencache_flags(stats)
    _add_batching_flags(stats)
    stats.set_defaults(func=cmd_stats)

    trace = sub.add_parser(
        "trace", help="run a traced fetch and print the stitched cross-process trace"
    )
    trace.add_argument("path", nargs="?", default=None,
                       help="page path to fetch (default: the --page demo page's path)")
    trace.add_argument("--page", default="travel-blog", choices=sorted(PAGES))
    trace.add_argument("--device", default="laptop", choices=sorted(DEVICES))
    trace.add_argument("--cdn", action="store_true",
                       help="also trace a client->edge->origin CDN flow (prompt-mode edge)")
    trace.add_argument("--seed", type=int, default=0,
                       help="id-source seed; trace/span ids are deterministic per seed")
    trace.add_argument("--sample-rate", type=float, default=1.0,
                       help="head-based sampling probability for client-started traces")
    trace.add_argument("--export", metavar="FILE", default=None,
                       help="write the stitched trace as Chrome trace-event JSON (Perfetto-loadable)")
    trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_format == "json":
        from repro.obs import JSON_LOG_FORMAT

        logging_setup(args.log_level, fmt=JSON_LOG_FORMAT)
    else:
        logging_setup(args.log_level)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
