"""Server concurrency benchmark — the PR-5 stream scheduler headline.

Eight naive clients hit one generative server at the same instant, two
pages each over a single multiplexed connection per client. Both
scenarios run the one task-per-stream scheduler (request logic on
executor threads, responses through the flow-control writer); the
benchmark builds its own reference arm. The **serial** scenario gives
the shared :class:`~repro.batching.BatchingEngine` a window of one
(``max_batch=1``), so the sixteen materialisations each pay a solo
generation — the simulated cost of the seed server that handled one
request at a time (the name is kept because ``ci.yml`` reads it; its
wall-clock fields are context, not a baseline: nothing blocks the loop
in either arm). In the **concurrent** scenario the sixteen in-flight
materialisations meet in a window of eight, where amortisation
``(1 + α·(B−1))/B`` takes over.

The throughput comparison is on *simulated* generation seconds — the
deterministic quantity batching governs — with wall time and per-client
completion latency recorded for context. Responses must be byte-identical
between the scenarios, and the event-loop stall probe must stay under the
50 ms acceptance bar (``BENCH_server_concurrency.json``, CI-gated at ≥ 2×
pages per simulated second).
"""

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor

from _shared import print_table, record_bench

from repro.batching import BatchingEngine
from repro.devices import LAPTOP, WORKSTATION
from repro.obs import MetricsRegistry
from repro.sww.client import GenerativeClient
from repro.sww.content import GeneratedContent
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.workloads.corpus import _element_html

CLIENTS = 8
PAGES_PER_CLIENT = 2
PAGES = CLIENTS * PAGES_PER_CLIENT
MAX_BATCH = 8
BATCH_WAIT_S = 0.05
STALL_BAR_S = 0.05
#: Threads of the loop's default executor, which runs every
#: materialisation (and, in the telemetry benchmark, every admin poll).
#: asyncio sizes it from the host's CPU count, and the batch window fills
#: with as many requests as there are threads, so the simulated fields
#: would follow the host: one thread per page, plus one for an admin poll.
EXECUTOR_THREADS = PAGES + 1

_THEMES = (
    "harbour", "alpine", "orchard", "citadel", "lagoon", "mesa", "fjord", "steppe",
    "dune", "taiga", "atoll", "canyon", "glacier", "delta", "heath", "karst",
)


def build_page(theme: str, index: int) -> PageResource:
    """One 192×192 image per page: identical sizes keep every page in the
    same engine batch slot, so concurrency is the only grouping variable."""
    div = _element_html(
        GeneratedContent.image(
            f"a {theme} landscape at dusk, wide shot",
            name=f"conc-{theme}-{index:02d}",
            width=192,
            height=192,
        )
    )
    html = (
        f"<!DOCTYPE html><html><head><title>{theme.title()}</title></head>"
        f"<body><h1>{theme.title()}</h1>{div}</body></html>"
    )
    return PageResource(f"/scene/{theme}", html)


def build_site() -> SiteStore:
    store = SiteStore()
    for index, theme in enumerate(_THEMES):
        store.add_page(build_page(theme, index))
    return store


def run_scenario(max_batch: int):
    """Fire all eight clients simultaneously; return the measurements."""
    registry = MetricsRegistry()
    engine = BatchingEngine(
        WORKSTATION, max_batch=max_batch, max_wait_s=BATCH_WAIT_S, registry=registry
    )
    paths = sorted(build_site().pages)
    lanes = [paths[i * PAGES_PER_CLIENT : (i + 1) * PAGES_PER_CLIENT] for i in range(CLIENTS)]

    async def scenario():
        asyncio.get_running_loop().set_default_executor(ThreadPoolExecutor(EXECUTOR_THREADS))
        server = GenerativeServer(
            build_site(), gen_ability=True, engine=engine, registry=registry
        )
        listener = await server.serve_forever("127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        try:
            clients = [GenerativeClient(device=LAPTOP, gen_ability=False) for _ in range(CLIENTS)]

            async def run_client(lane: int):
                begin = time.perf_counter()
                results = await clients[lane].fetch_many_tcp("127.0.0.1", port, lanes[lane])
                return time.perf_counter() - begin, results

            start = time.perf_counter()
            per_client = await asyncio.wait_for(
                asyncio.gather(*(run_client(i) for i in range(CLIENTS))), timeout=600
            )
            wall_s = time.perf_counter() - start
            return wall_s, per_client
        finally:
            listener.close()
            await listener.wait_closed()

    try:
        wall_s, per_client = asyncio.run(scenario())
    finally:
        engine.close()

    latencies = sorted(latency for latency, _results in per_client)
    pages: dict[str, str] = {}
    for _latency, results in per_client:
        for result in results:
            assert result.status == 200, result.path
            pages[result.path] = result.received_html
    sim_s = registry.histogram(
        "sww_generation_seconds", layer="sww", operation="materialise"
    ).sum
    max_stall_s = registry.gauge(
        "sww_server_loop_stall_max_seconds", layer="sww", operation="loop"
    ).value
    return {
        "wall_s": wall_s,
        "sim_s": sim_s,
        "pages": pages,
        "latency_p50_s": latencies[len(latencies) // 2],
        "latency_max_s": latencies[-1],
        "max_stall_s": max_stall_s,
        "stats": engine.stats,
    }


def run_both():
    serial = run_scenario(max_batch=1)
    concurrent = run_scenario(max_batch=MAX_BATCH)
    return serial, concurrent


def test_concurrent_scheduler_vs_serial(benchmark):
    serial, concurrent = benchmark.pedantic(run_both, rounds=1, iterations=1)

    assert len(serial["pages"]) == len(concurrent["pages"]) == PAGES
    serial_rate = PAGES / serial["sim_s"]
    concurrent_rate = PAGES / concurrent["sim_s"]
    speedup = concurrent_rate / serial_rate

    print_table(
        f"Stream scheduler: {CLIENTS} clients x {PAGES_PER_CLIENT} pages, one socket each",
        ["metric", "serial (window 1)", f"concurrent (window {MAX_BATCH})"],
        [
            ["wall time", f"{serial['wall_s']:.2f} s", f"{concurrent['wall_s']:.2f} s"],
            ["simulated generation", f"{serial['sim_s']:.1f} s", f"{concurrent['sim_s']:.1f} s"],
            ["pages / simulated s", f"{serial_rate:.4f}", f"{concurrent_rate:.4f}"],
            ["throughput speedup", "-", f"{speedup:.2f}x"],
            ["client latency p50", f"{serial['latency_p50_s']:.2f} s", f"{concurrent['latency_p50_s']:.2f} s"],
            ["client latency max", f"{serial['latency_max_s']:.2f} s", f"{concurrent['latency_max_s']:.2f} s"],
            ["worst loop stall", f"{serial['max_stall_s'] * 1000:.1f} ms", f"{concurrent['max_stall_s'] * 1000:.1f} ms"],
            ["largest batch", serial["stats"].largest_batch, concurrent["stats"].largest_batch],
            ["mean batch", f"{serial['stats'].mean_batch:.1f}", f"{concurrent['stats'].mean_batch:.1f}"],
        ],
    )

    # Byte-identical pages: the scheduler must be invisible in the payload.
    assert concurrent["pages"] == serial["pages"]
    # A window of one can never form a batch; the scheduler's overlapping
    # streams must actually meet in the window of eight.
    assert serial["stats"].largest_batch == 1
    assert concurrent["stats"].largest_batch >= 4
    # The acceptance bars: ≥ 2× pages per simulated second at concurrency
    # 8, with the event loop never blocked past 50 ms.
    assert speedup >= 2.0, f"concurrent speedup {speedup:.2f}x below the 2x gate"
    assert concurrent["max_stall_s"] < STALL_BAR_S, (
        f"event loop stalled {concurrent['max_stall_s'] * 1000:.1f} ms under concurrency"
    )

    record_bench(
        "server_concurrency",
        "serial",
        wall_time_s=serial["wall_s"],
        generation_sim_s=round(serial["sim_s"], 3),
        pages=PAGES,
        pages_per_sim_s=round(serial_rate, 6),
        latency_p50_s=round(serial["latency_p50_s"], 4),
        latency_max_s=round(serial["latency_max_s"], 4),
        max_loop_stall_s=round(serial["max_stall_s"], 4),
        largest_batch=serial["stats"].largest_batch,
    )
    record_bench(
        "server_concurrency",
        "concurrent_8",
        wall_time_s=concurrent["wall_s"],
        generation_sim_s=round(concurrent["sim_s"], 3),
        pages=PAGES,
        pages_per_sim_s=round(concurrent_rate, 6),
        speedup=round(speedup, 3),
        latency_p50_s=round(concurrent["latency_p50_s"], 4),
        latency_max_s=round(concurrent["latency_max_s"], 4),
        max_loop_stall_s=round(concurrent["max_stall_s"], 4),
        largest_batch=concurrent["stats"].largest_batch,
        mean_batch=round(concurrent["stats"].mean_batch, 3),
        clients=CLIENTS,
        max_batch=MAX_BATCH,
    )


def simulated_fields(run: dict) -> tuple:
    """What CI compares exactly: the run's simulated quantities."""
    return round(run["sim_s"], 3), run["stats"].largest_batch, round(run["stats"].mean_batch, 3)


def test_simulated_fields_do_not_follow_the_cpu_count(monkeypatch):
    fields = []
    for cpus in (2, 8):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        fields.append(simulated_fields(run_scenario(max_batch=MAX_BATCH)))
    assert fields[0] == fields[1]


# --------------------------------------------------------------------- #
# Writer hot path: zero-copy chunking
# --------------------------------------------------------------------- #

CHUNKING_BODY_BYTES = 8 * 1024 * 1024
CHUNKING_ROUNDS = 3

_CHUNKING_REQUEST = [
    (b":method", b"GET"),
    (b":scheme", b"https"),
    (b":path", b"/blob"),
    (b":authority", b"bench"),
]


def _copying_take(self, limit: int) -> bytes:
    """The pre-zero-copy take: one bytes() copy per frame."""
    chunk = bytes(self.data[self.offset : self.offset + limit])
    self.offset += len(chunk)
    return chunk


def writer_chunking_seconds(body: bytes, copying: bool) -> tuple[float, int]:
    """Best-of-N time to push ``body`` through the ConnectionWriter.

    ``copying=True`` restores the old per-frame bytes() slice (plus the
    old enqueue-time copy), so the delta isolates exactly what the
    memoryview path removed. Returns (seconds, frames_sent).
    """
    from repro.http2.connection import H2Connection, Role
    from repro.http2.transport import InMemoryTransportPair
    from repro.http2.writer import ConnectionWriter, _SendQueue

    best = float("inf")
    frames = 0
    original_take = _SendQueue.take
    for round_idx in range(CHUNKING_ROUNDS):
        pair = InMemoryTransportPair(
            H2Connection(Role.CLIENT, initial_window_size=(1 << 24)),
            H2Connection(Role.SERVER),
        )
        pair.handshake()
        stream_id = pair.client.conn.get_next_available_stream_id()
        pair.client.conn.send_headers(stream_id, _CHUNKING_REQUEST, end_stream=True)
        pair.pump()
        writer = ConnectionWriter(pair.server.conn)
        pair.server.conn.send_headers(stream_id, [(b":status", b"200")])
        _SendQueue.take = _copying_take if copying else original_take
        try:
            begin = time.perf_counter()
            writer.enqueue(stream_id, bytes(body) if copying else body)
            while not writer.idle:
                writer.pump()
            elapsed = time.perf_counter() - begin
        finally:
            _SendQueue.take = original_take
        best = min(best, elapsed)
        frames = writer.frames_sent
        if round_idx == 0:
            # The fast path must be invisible on the wire.
            pair.pump()
            received = b"".join(
                bytes(e.data)
                for e in pair.client.events
                if e.__class__.__name__ == "DataReceived" and e.stream_id == stream_id
            )
            assert received == body
    return best, frames


def test_writer_chunking_zero_copy(benchmark):
    body = bytes(range(256)) * (CHUNKING_BODY_BYTES // 256)

    def run():
        copying_s, frames = writer_chunking_seconds(body, copying=True)
        zero_copy_s, frames_zc = writer_chunking_seconds(body, copying=False)
        assert frames == frames_zc
        return copying_s, zero_copy_s, frames

    copying_s, zero_copy_s, frames = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = copying_s / zero_copy_s if zero_copy_s else float("inf")

    print_table(
        f"Writer chunking: {CHUNKING_BODY_BYTES // (1024 * 1024)} MiB body, "
        f"{frames} DATA frames, best of {CHUNKING_ROUNDS}",
        ["path", "seconds", "MiB/s"],
        [
            ["per-frame copy (old)", f"{copying_s:.4f}", f"{CHUNKING_BODY_BYTES / copying_s / 2**20:.0f}"],
            ["memoryview (zero-copy)", f"{zero_copy_s:.4f}", f"{CHUNKING_BODY_BYTES / zero_copy_s / 2**20:.0f}"],
            ["speedup", f"{speedup:.2f}x", "-"],
        ],
    )

    # Wall-clock microbenchmarks are noisy in CI; gate only the sanity
    # bound (the fast path must never be meaningfully slower), and record
    # the measured delta for the trajectory.
    assert zero_copy_s <= copying_s * 1.25, (
        f"zero-copy path slower than copying path: {zero_copy_s:.4f}s vs {copying_s:.4f}s"
    )

    record_bench(
        "server_concurrency",
        "writer_chunking",
        wall_time_s=zero_copy_s,
        body_bytes=CHUNKING_BODY_BYTES,
        frames=frames,
        copying_path_s=round(copying_s, 6),
        zero_copy_path_s=round(zero_copy_s, 6),
        copy_elimination_speedup=round(speedup, 3),
    )
