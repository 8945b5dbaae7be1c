"""The five benchmark workloads: their request tapes, their load shapes,
their output checks and how each is measured.

Every workload makes its inputs from the seed; the server under test only
ever sees requests. Everything here is wall-clock, CPU-seconds, bytes or
counts — no simulated-time quantity is reported.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import threading
import time
from collections.abc import Awaitable, Callable
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

from repro._util.rng import DeterministicRNG
from repro.cdn.fleet import TIERS, EdgeFleet, FleetConfig, build_fleet_catalog
from repro.cdn.placement import HashRing
from repro.cdn.router import FleetRouter
from repro.devices import LAPTOP
from repro.http2.errors import H2Error
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.workloads.corpus import (
    build_harbour_gallery,
    build_news_article,
    build_uniform_pages,
    build_wikimedia_landscape_page,
    populate_traditional_assets,
)
from repro.workloads.session import OpenLoopSession
from repro.workloads.traffic import default_regions, poisson_arrivals, zipf_requests

from h2client import FetchError, RawConnection
from server import HOST, ProcSample, ServerProcess, read_proc

#: An op that has not finished by then is abandoned and counted failed.
OP_TIMEOUT_S = 10.0

#: What one op returned: (outputs verified, response body bytes).
OpResult = tuple[bool, int]
Op = Callable[[object], Awaitable[OpResult]]
#: Opens the root span of one op in the traced replay; ``None`` untraced.
SpanOp = Callable[..., object]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --------------------------------------------------------------------- #
# What a run records
# --------------------------------------------------------------------- #


@dataclass
class Measurement:
    """Raw numbers of one measured phase; ``metrics.py`` names them."""

    limit_ms: float
    attempted: int = 0
    failed: int = 0
    #: Ops finished correct within ``limit_ms`` of their start (or due) time.
    within_limit: int = 0
    #: Ops each completion stands for (1, or a fleet pass's request count).
    weights: list[int] = field(default_factory=list)
    #: Wall milliseconds per op of each completion.
    latencies_ms: list[float] = field(default_factory=list)
    end_times: list[float] = field(default_factory=list)
    payload_bytes: int = 0
    begin: float = 0.0
    end: float = 0.0
    #: CPU seconds by process role over the measured phase.
    master_cpu_s: float = 0.0
    worker_cpu_s: list[float] = field(default_factory=list)
    client_cpu_s: float = 0.0
    #: Σ resident memory (server tree + this process) after ``mark_ops``.
    rss_at_mark_kb: int = 0
    mark_reached: bool = False
    #: Server-tree resident memory when measurement began and ended.
    server_rss_begin_kb: int = 0
    server_rss_end_kb: int = 0
    connect_ms: list[float] = field(default_factory=list)
    #: How late the open-loop generator fired each request.
    late_ms: list[float] = field(default_factory=list)
    #: Share of the tape's requests that were the first for their page.
    first_touch_ratio: float = 0.0

    @property
    def ops(self) -> int:
        return sum(self.weights)

    @property
    def wall_s(self) -> float:
        return self.end - self.begin


class OpLog:
    """Collects op outcomes into a :class:`Measurement` while load runs."""

    def __init__(self, measurement: Measurement, mark_ops: int, sample_rss_kb: Callable[[], int]) -> None:
        self.m = measurement
        self._mark_ops = mark_ops
        self._sample_rss_kb = sample_rss_kb

    def add(self, begin: float, end: float, result: OpResult | None, weight: int = 1) -> None:
        """One attempt standing for ``weight`` ops; ``result`` None means
        it raised or timed out."""
        m = self.m
        m.attempted += weight
        if result is None or not result[0]:
            m.failed += weight
            return
        per_op_ms = (end - begin) * 1000.0 / weight
        m.weights.append(weight)
        m.latencies_ms.append(per_op_ms)
        m.end_times.append(end)
        m.payload_bytes += result[1]
        if per_op_ms <= m.limit_ms:
            m.within_limit += weight
        if not m.mark_reached and len(m.weights) >= self._mark_ops:
            m.mark_reached = True
            m.rss_at_mark_kb = self._sample_rss_kb()

    def finish(self) -> None:
        """A run too short to reach the mark samples memory at its end."""
        if not self.m.mark_reached:
            self.m.rss_at_mark_kb = self._sample_rss_kb()


async def attempt(op: Op, item: object) -> OpResult | None:
    """Run one op under the per-op timeout; None when it failed."""
    try:
        async with asyncio.timeout(OP_TIMEOUT_S):
            return await op(item)
    except (FetchError, H2Error, OSError, TimeoutError, EOFError):
        return None


async def closed_loop(ops: list[Op], item: object, log: OpLog | None, stop: Callable[[int], bool]) -> None:
    """Each lane sends its next request only once the previous completed.

    ``stop`` sees how many ops have been started so far.
    """
    started = 0

    async def lane(op: Op) -> None:
        nonlocal started
        while not stop(started):
            started += 1
            begin = perf_counter()
            result = await attempt(op, item)
            if log is not None:
                log.add(begin, perf_counter(), result)

    await asyncio.gather(*(lane(op) for op in ops))


async def open_loop(ops: list[Op], tape: list[tuple[float, object]], log: OpLog) -> None:
    """Requests fire on the tape's schedule whatever the server does.

    ``len(ops)`` connections at most are open at once; a request that is
    due while all are busy waits, and that wait is part of its latency
    because every op is timed from its due time.
    """
    queue: asyncio.Queue = asyncio.Queue()
    origin = perf_counter()

    async def slot(op: Op) -> None:
        while (entry := await queue.get()) is not None:
            due, item = entry
            result = await attempt(op, item)
            log.add(due, perf_counter(), result)

    slots = [asyncio.create_task(slot(op)) for op in ops]
    for due_s, item in tape:
        due = origin + due_s
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        log.m.late_ms.append(max(0.0, (perf_counter() - due) * 1000.0))
        queue.put_nowait((due, item))
    for _ in slots:
        queue.put_nowait(None)
    await asyncio.gather(*slots)


def _rss_kb(samples: dict[int, ProcSample]) -> int:
    return sum(sample.rss_kb for sample in samples.values())


def _own_rss_kb() -> int:
    own = read_proc(os.getpid())
    return own.rss_kb if own is not None else 0


# --------------------------------------------------------------------- #
# The server in the bench process, for the traced replay
# --------------------------------------------------------------------- #


class InProcessServer:
    """``sww serve`` — the CLI's own wiring and defaults — on a thread of
    this process, so seam spans of both ends land in one recorder."""

    def __init__(self, pages: str) -> None:
        self.pages = pages
        self.port = 0
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._listener: asyncio.AbstractServer | None = None
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._serve, name="bench-inprocess-server", daemon=True)

    def _serve(self) -> None:
        from repro import cli

        original = GenerativeServer.serve_forever

        async def capture(server, host, port):
            # The CLI keeps its listener to itself; note it as it is made
            # so stop() can close it from the bench's thread.
            GenerativeServer.serve_forever = original
            listener = await original(server, host, port)
            self._loop = asyncio.get_running_loop()
            self._listener = listener
            self.port = listener.sockets[0].getsockname()[1]
            self._ready.set()
            return listener

        GenerativeServer.serve_forever = capture
        try:
            cli.main(["serve", "--host", HOST, "--port", "0", "--pages", self.pages])
        except asyncio.CancelledError:
            pass  # stop() closed the listener under serve_forever
        except Exception as exc:  # start() re-raises it on the bench's thread
            self._error = exc
        finally:
            GenerativeServer.serve_forever = original
            self._ready.set()

    def start(self) -> None:
        self._thread.start()
        self._ready.wait(60.0)
        if self._error is not None or not self.port:
            raise RuntimeError("in-process server failed to start") from self._error

    def stop(self) -> None:
        # The client has just closed its connections; let the server's
        # handlers see EOF and finish, or the loop's teardown cancels them
        # mid-close and logs a traceback per connection.
        time.sleep(0.1)
        if self._loop is not None and self._listener is not None:
            self._loop.call_soon_threadsafe(self._listener.close)
        self._thread.join(10.0)
        if self._thread.is_alive():
            raise RuntimeError("in-process server thread did not stop")


# --------------------------------------------------------------------- #
# Workloads over loopback TCP
# --------------------------------------------------------------------- #


_PAGE_BUILDERS = {
    "news": build_news_article,
    "wikimedia": build_wikimedia_landscape_page,
    "gallery": build_harbour_gallery,
}


def reference_server(pages: str) -> GenerativeServer:
    """An in-process server over the same corpus ``serve --pages`` loads,
    built from the public corpus builders; the source of expected bytes."""
    if pages.startswith("uniform:"):
        built = build_uniform_pages(int(pages.split(":", 1)[1]))
    else:
        built = [_PAGE_BUILDERS[pages]()]
    store = SiteStore()
    for page in built:
        store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
        populate_traditional_assets(store, page)
    return GenerativeServer(store)


async def _nothing_to_close() -> None:
    return None


class TcpWorkload:
    """A workload that drives the real ``sww serve`` over loopback."""

    name = ""
    why = ""
    pages = ""
    workers = 1
    limit_ms = 0.0
    is_open_loop = False
    #: Ops before measurement begins (caches fill, lazy set-up finishes).
    warmup_ops = 0
    #: Completed measured ops after which resident memory is sampled — a
    #: fixed amount of work, so the figure compares across hosts and runs.
    mark_ops = 1
    #: Ops of the in-process replay (after ``replay_warmup_ops`` untimed).
    replay_ops = 1
    replay_warmup_ops = 0

    def __init__(self) -> None:
        self.server: ServerProcess | None = None
        self._reference: GenerativeServer | None = None
        #: Request → sha256 of the bytes it must return.
        self._expected: dict[str, str] = {}
        #: TCP connect → SETTINGS acknowledged, per raw connection opened.
        self._connect_ms: list[float] = []

    # -- what subclasses define --------------------------------------- #

    def item(self, seed: int) -> object:
        """The closed loop's request (the same for every op), which is
        also the request the set-up's readiness check makes."""
        raise NotImplementedError

    def tape(self, seed: int, seconds: float) -> list[tuple[float, object]]:
        """The open loop's ``(due second, request)`` schedule."""
        raise NotImplementedError

    def prepare(self, seed: int, seconds: float) -> None:
        """Build the expected outputs the ops check against."""
        raise NotImplementedError

    async def lanes(self, port: int) -> tuple[list[Op], Callable[[], Awaitable[None]]]:
        """One op callable per concurrent lane, and a closer for what
        they share."""
        raise NotImplementedError

    # -- reference bytes ----------------------------------------------- #

    @property
    def reference(self) -> GenerativeServer:
        if self._reference is None:
            self._reference = reference_server(self.pages)
        return self._reference

    def expect_naive(self, path: str) -> None:
        """Record what a naive client must receive for ``path``."""
        if path in self._expected:
            return
        response = self.reference.handle_request(path, client_gen_ability=False)
        if response.status != 200:
            raise ValueError(f"reference has no {path}")
        self._expected[path] = sha256(response.body)

    async def _open(self, port: int) -> RawConnection:
        conn = await RawConnection(HOST, port).open()
        self._connect_ms.append(conn.connect_ms)
        return conn

    async def _get_verified(self, conn: RawConnection, path: str) -> OpResult:
        status, body = await conn.get(path)
        return status == 200 and sha256(body) == self._expected[path], len(body)

    # -- lifecycle ------------------------------------------------------ #

    def setup(self, seed: int) -> float:
        """Launch the server; seconds until its first verified 200."""
        self.teardown()
        server = ServerProcess(self.pages, self.workers)
        server.start()
        self.server = server
        try:
            asyncio.run(self._first_op(seed))
        except BaseException:
            self.teardown()
            raise
        return perf_counter() - server.launched_at

    async def _first_op(self, seed: int) -> None:
        ops, close = await self.lanes(self.server.port)
        try:
            result = await attempt(ops[0], self.item(seed))
        finally:
            await close()
        if result is None or not result[0]:
            raise RuntimeError(f"{self.name}: the first response did not verify")

    def teardown(self) -> None:
        if self.server is not None:
            server, self.server = self.server, None
            server.stop()

    # -- measurement ---------------------------------------------------- #

    def measure(self, seed: int, seconds: float) -> Measurement:
        return asyncio.run(self._measure(seed, seconds))

    async def _measure(self, seed: int, seconds: float) -> Measurement:
        server = self.server
        m = Measurement(limit_ms=self.limit_ms)
        self._connect_ms.clear()
        ops, close = await self.lanes(server.port)
        try:
            if self.warmup_ops:
                await closed_loop(ops, self.item(seed), None, lambda started: started >= self.warmup_ops)
            log = OpLog(m, self.mark_ops, lambda: _rss_kb(server.sample()) + _own_rss_kb())
            before = server.sample()
            cpu_before = time.process_time()
            m.begin = perf_counter()
            if self.is_open_loop:
                tape = self.tape(seed, seconds)
                m.first_touch_ratio = len({item for _, item in tape}) / len(tape)
                await open_loop(ops, tape, log)
            else:
                deadline = m.begin + seconds
                await closed_loop(ops, self.item(seed), log, lambda _started: perf_counter() >= deadline)
            m.end = perf_counter()
            m.client_cpu_s = time.process_time() - cpu_before
            after = server.sample()
            log.finish()
        finally:
            await close()
        m.connect_ms = list(self._connect_ms)
        m.server_rss_begin_kb = _rss_kb(before)
        m.server_rss_end_kb = _rss_kb(after)
        for pid, sample in after.items():
            spent = sample.cpu_s - (before[pid].cpu_s if pid in before else 0.0)
            if pid == server.pid:
                m.master_cpu_s = spent
            else:
                m.worker_cpu_s.append(spent)
        return m

    # -- in-process replay (traced run) --------------------------------- #

    def replay(self, seed: int, seconds: float, trace: Callable[[], object] | None) -> list[float]:
        """Replay the first ops one at a time against a server in this
        process; wall milliseconds of each. ``trace``, when given, is a
        context manager that installs the seams and yields the recorder's
        per-op span opener."""
        server = InProcessServer(self.pages)
        server.start()
        try:
            with trace() if trace is not None else nullcontext() as span_op:
                return asyncio.run(self._replay(seed, seconds, server.port, span_op))
        finally:
            server.stop()

    async def _replay(self, seed: int, seconds: float, port: int, span_op: SpanOp | None) -> list[float]:
        if self.is_open_loop:
            items = [item for _, item in self.tape(seed, seconds)[: self.replay_ops]]
        else:
            items = [self.item(seed)] * self.replay_ops
        ops, close = await self.lanes(port)
        op = ops[0]
        latencies = []
        try:
            for _ in range(self.replay_warmup_ops):
                await attempt(op, items[0])
            for item in items:
                with span_op() if span_op is not None else nullcontext():
                    begin = perf_counter()
                    result = await attempt(op, item)
                    latencies.append((perf_counter() - begin) * 1000.0)
                if result is None or not result[0]:
                    raise RuntimeError(f"{self.name}: a replayed op did not verify")
        finally:
            await close()
        return latencies


class HitsSmall(TcpWorkload):
    name = "hits_small"
    why = (
        "smallest message, page-memo hit: per-request cost of http2 (hpack, frames, "
        "connection), sww.server dispatch and obs dominates; nothing is generated"
    )
    pages = "news"
    limit_ms = 20.0
    warmup_ops = 500
    mark_ops = 8000
    replay_ops = 300
    replay_warmup_ops = 20
    path = "/news/transit-corridor"
    connections = 2
    streams_per_connection = 4

    def prepare(self, seed: int, seconds: float) -> None:
        self.expect_naive(self.path)

    def item(self, seed: int) -> object:
        return self.path

    async def lanes(self, port: int):
        conns = [await self._open(port) for _ in range(self.connections)]

        def lane(conn: RawConnection) -> Op:
            return lambda path: self._get_verified(conn, path)

        async def close() -> None:
            for conn in conns:
                await conn.close()

        return [lane(conn) for conn in conns for _ in range(self.streams_per_connection)], close


class PageloadTraditional(TcpWorkload):
    name = "pageload_traditional"
    why = (
        "the paper's baseline page load, 1.4 MB over 50 streams of a fresh connection: bytes, "
        "multiplexing, flow control, the priority writer and connection set-up dominate"
    )
    pages = "wikimedia"
    limit_ms = 250.0
    warmup_ops = 20
    mark_ops = 100
    replay_ops = 10
    replay_warmup_ops = 1
    page_path = "/wiki/search/landscape"
    loaders = 2

    def prepare(self, seed: int, seconds: float) -> None:
        self.expect_naive(self.page_path)
        for path, asset in self.reference.store.assets.items():
            if path.startswith("/thumbs/"):
                self._expected[path] = sha256(asset.data)

    def item(self, seed: int) -> object:
        # The order the 49 image streams open in is the one input the
        # seed varies here; the bytes fetched are the same for every seed.
        thumbs = sorted(path for path in self._expected if path != self.page_path)
        DeterministicRNG("bench-thumbnail-order", seed).shuffle(thumbs)
        return tuple(thumbs)

    async def lanes(self, port: int):
        async def op(thumbs: tuple[str, ...]) -> OpResult:
            conn = await self._open(port)
            try:
                results = [await self._get_verified(conn, self.page_path)]
                results += await asyncio.gather(*(self._get_verified(conn, path) for path in thumbs))
            finally:
                await conn.close()
            return all(ok for ok, _ in results), sum(size for _, size in results)

        return [op] * self.loaders, _nothing_to_close


class PageloadGenerative(TcpWorkload):
    name = "pageload_generative"
    why = (
        "the paper's headline path, prompts in and six images generated on the client with no "
        "cache: genai.image, media.png and html do the work, http2 almost none"
    )
    pages = "gallery"
    limit_ms = 400.0
    warmup_ops = 5
    mark_ops = 20
    replay_ops = 8
    replay_warmup_ops = 1
    path = "/gallery/harbour"

    @staticmethod
    def _digest(result) -> str:
        """One hash over the rewritten page and every generated asset."""
        digest = hashlib.sha256(result.final_html.encode("utf-8"))
        assets = result.report.assets if result.report is not None else {}
        for path in sorted(assets):
            digest.update(path.encode("utf-8"))
            digest.update(assets[path])
        return digest.hexdigest()

    @staticmethod
    def _client() -> GenerativeClient:
        return GenerativeClient(device=LAPTOP, gen_ability=True)

    def prepare(self, seed: int, seconds: float) -> None:
        client = self._client()
        pair = connect_in_memory(client, self.reference)
        self._expected[self.path] = self._digest(client.fetch_via_pair(pair, self.path))

    def item(self, seed: int) -> object:
        return self.path

    async def lanes(self, port: int):
        client = self._client()

        async def op(path: str) -> OpResult:
            result = await client.fetch_tcp(HOST, port, path)
            ok = result.status == 200 and result.sww_mode and self._digest(result) == self._expected[path]
            return ok, result.wire_bytes

        return [op], _nothing_to_close


class ZipfViewsW2(TcpWorkload):
    name = "zipf_views_w2"
    why = (
        "independent users on an open loop against two workers: the only path through serving "
        "(arbiter, workers) and the shared cache tier, with gencache writes beside reads"
    )
    pages = "uniform:120"
    workers = 2
    limit_ms = 250.0
    is_open_loop = True
    replay_ops = 100
    #: Low enough that the two connections are seldom both busy: at 50/s
    #: the 60-100 ms first-touch views held both for 58 % of the time and
    #: the median was queueing in the load generator, not the server.
    rate_per_s = 25.0
    zipf_exponent = 1.1
    connections = 2

    def _catalog(self) -> list[str]:
        """Page paths in popularity-rank order (the order they were built in)."""
        return list(self.reference.store.pages)

    def item(self, seed: int) -> object:
        return self._catalog()[0]

    def tape(self, seed: int, seconds: float) -> list[tuple[float, object]]:
        """A Poisson process conditioned on its count, so every seed offers
        exactly ``rate × seconds`` views: the first N+1 arrivals of a longer
        draw, rescaled so the N+1th falls at ``seconds``."""
        count = max(1, round(self.rate_per_s * seconds))
        horizon = 2.0 * seconds + 1.0
        arrivals = poisson_arrivals(self.rate_per_s, horizon, seed)
        while len(arrivals) <= count:  # a draw this sparse is vanishingly rare
            horizon *= 2.0
            arrivals = poisson_arrivals(self.rate_per_s, horizon, seed)
        scale = seconds / arrivals[count]
        paths = zipf_requests(self._catalog(), count, exponent=self.zipf_exponent, seed=seed)
        return [(arrivals[i] * scale, paths[i]) for i in range(count)]

    def prepare(self, seed: int, seconds: float) -> None:
        # Generates each distinct page of the tape once in this process;
        # done before set-up so it never competes with a timed server.
        self.expect_naive(self.item(seed))
        for _, path in self.tape(seed, seconds):
            self.expect_naive(path)

    async def lanes(self, port: int):
        client = GenerativeClient(device=LAPTOP, gen_ability=False)

        async def op(path: str) -> OpResult:
            result = await client.fetch_tcp(HOST, port, path)
            body = result.received_html.encode("utf-8")
            ok = result.status == 200 and not result.sww_mode and sha256(body) == self._expected[path]
            return ok, result.wire_bytes

        return [op] * self.connections, _nothing_to_close


# --------------------------------------------------------------------- #
# The offline workload
# --------------------------------------------------------------------- #


class FleetReplay:
    name = "fleet_replay"
    why = (
        "offline, in-process replay of an open-loop tape over the 16-edge fleet: sole consumer "
        "of cdn, workloads.session and the sim clocks; no sockets, http2 or genai"
    )
    #: Wall milliseconds per simulated request; a pass averaging more misses.
    limit_ms = 0.1
    edges = 16
    regions = 16
    region_rate_per_s = 2.0
    catalog_items = 240
    media_bytes = 750_000
    artifacts_per_edge = 32
    #: Simulated seconds of tape per pass (≈19 000 requests).
    tape_s = 600.0
    #: Warm passes after which resident memory is sampled.
    mark_ops = 2

    def __init__(self) -> None:
        self.session: OpenLoopSession | None = None
        self._requests_per_pass = 0
        self._warm_outcome: tuple | None = None

    def prepare(self, seed: int, seconds: float) -> None:
        """Nothing to precompute: the checks are the ledger and pass identity."""

    def new_session(self, seed: int) -> OpenLoopSession:
        """The ``BENCH_fleet.json`` 16-edge configuration over a seeded tape."""
        config = FleetConfig(edges=self.edges, gencache_bytes=self.artifacts_per_edge * self.media_bytes)
        catalog = build_fleet_catalog(self.catalog_items, media_bytes=self.media_bytes)
        ring = HashRing(config.edge_names(), config.vnodes)
        regions = default_regions(self.regions, rate_per_s=self.region_rate_per_s)
        fleet = EdgeFleet(catalog, config, FleetRouter(regions, ring), ring=ring)
        return OpenLoopSession(fleet, regions, self.tape_s, seed=seed)

    def setup(self, seed: int) -> float:
        """Fleet build plus the cold pass; seconds."""
        begin = perf_counter()
        self.session = self.new_session(seed)
        cold = self.session.run()
        elapsed = perf_counter() - begin
        self._check_ledger(cold)
        self._requests_per_pass = cold.requests
        # The pass after the cold one still settles the caches; from the
        # next on, every pass over the tape returns identical statistics.
        self._check_ledger(self.session.run())
        self._warm_outcome = None
        return elapsed

    def teardown(self) -> None:
        self.session = None

    @staticmethod
    def _check_ledger(stats) -> None:
        """Every request lands in exactly one tier outcome."""
        if set(stats.tiers) - set(TIERS) or sum(t.count for t in stats.tiers.values()) != stats.requests:
            raise RuntimeError("fleet ledger broken: tier outcomes do not sum to requests")

    @staticmethod
    def _outcome(stats) -> tuple:
        """What a pass decided, in exact counts and bytes only: the
        simulated-seconds aggregates drift in their last digits as the
        fleet's clock advances and are not compared."""
        tiers = tuple(sorted((tier, t.count) for tier, t in stats.tiers.items()))
        return (stats.requests, tiers, stats.egress_bytes, stats.peer_bytes, stats.shield_bytes, stats.origin_bytes)

    def _warm_pass(self, span_op: SpanOp | None = None) -> tuple[float, float, OpResult]:
        """One verified pass: its begin, end and ``(ok, bytes delivered)``."""
        with span_op(self._requests_per_pass) if span_op is not None else nullcontext():
            begin = perf_counter()
            stats = self.session.run()
            end = perf_counter()
        self._check_ledger(stats)
        outcome = self._outcome(stats)
        if self._warm_outcome is None:
            self._warm_outcome = outcome
        return begin, end, (outcome == self._warm_outcome, stats.egress_bytes)

    def measure(self, seed: int, seconds: float) -> Measurement:
        m = Measurement(limit_ms=self.limit_ms)
        log = OpLog(m, self.mark_ops, _own_rss_kb)
        cpu_before = time.process_time()
        m.begin = perf_counter()
        deadline = m.begin + seconds
        while perf_counter() < deadline:
            begin, end, result = self._warm_pass()
            log.add(begin, end, result, weight=self._requests_per_pass)
        m.end = perf_counter()
        m.client_cpu_s = time.process_time() - cpu_before
        log.finish()
        return m

    def replay(self, seed: int, seconds: float, trace: Callable[[], object] | None) -> list[float]:
        """One warm pass on a fresh fleet; wall milliseconds per request."""
        self.setup(seed)
        try:
            with trace() if trace is not None else nullcontext() as span_op:
                begin, end, (same, _) = self._warm_pass(span_op)
        finally:
            self.teardown()
        if not same:
            raise RuntimeError("fleet_replay: a replayed pass did not verify")
        return [(end - begin) * 1000.0 / self._requests_per_pass]


WORKLOADS = {
    cls.name: cls
    for cls in (HitsSmall, PageloadTraditional, PageloadGenerative, ZipfViewsW2, FleetReplay)
}
