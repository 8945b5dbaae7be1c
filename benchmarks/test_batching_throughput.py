"""Batching benchmark — multi-user throughput with micro-batching on/off.

Eight concurrent users replay a Zipf-skewed request stream over a small
gallery site. The **sequential** scenario is the seed behaviour: every
image generation runs solo and pays full step cost. The **batched**
scenario routes the same stream through one shared
:class:`~repro.batching.BatchingEngine` (one simulated accelerator), so
generations from concurrent pages group inside the admission window and
pay the amortised cost ``(1 + α·(B−1))/B``.

The comparison is on *simulated* pages per second — the deterministic
quantity the amortisation curve governs — with wall time recorded for
context. Output bytes are asserted identical between the scenarios, and
the CI gate requires batched throughput ≥ 2× sequential
(``BENCH_batch.json``).
"""

import time
from concurrent.futures import ThreadPoolExecutor

from _shared import print_table, record_bench

from repro.batching import BatchingEngine
from repro.devices import LAPTOP
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.content import GeneratedContent
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.workloads.corpus import _element_html
from repro.workloads.traffic import zipf_requests

USERS = 8
REQUESTS = 16
MAX_BATCH = 8
BATCH_WAIT_S = 0.05

_THEMES = ("harbour", "alpine", "orchard", "citadel")


def build_gallery_page(theme: str, index: int) -> PageResource:
    """Six distinct 256×256 image divisions, no text (text rides the
    Ollama path and never enters the engine)."""
    divs = [
        _element_html(
            GeneratedContent.image(
                f"a {theme} panorama, study {i}",
                name=f"{theme}-{index}-{i:02d}",
                width=256,
                height=256,
            )
        )
        for i in range(6)
    ]
    html = (
        f"<!DOCTYPE html><html><head><title>{theme.title()} gallery</title></head>"
        f"<body><h1>{theme.title()} gallery</h1>" + "".join(divs) + "</body></html>"
    )
    return PageResource(f"/gallery/{theme}", html)


def build_site() -> SiteStore:
    store = SiteStore()
    for index, theme in enumerate(_THEMES):
        store.add_page(build_gallery_page(theme, index))
    return store


def run_session(engine: BatchingEngine | None):
    """Replay the stream with USERS concurrent lanes; return the totals."""
    store = build_site()
    stream = list(
        zipf_requests(sorted(store.pages), REQUESTS, exponent=1.1, seed="batch-bench")
    )
    # Per-lane client and server: lanes share only the engine (and the
    # engine is the one simulated accelerator everything batches on).
    clients = [
        GenerativeClient(device=LAPTOP, engine=engine)
        for _ in range(USERS)
    ]
    servers = [GenerativeServer(build_site()) for _ in range(USERS)]
    lanes: list[list[str]] = [stream[lane::USERS] for lane in range(USERS)]

    def run_lane(lane: int):
        client, server = clients[lane], servers[lane]
        outputs = []
        for path in lanes[lane]:
            result = client.fetch_via_pair(connect_in_memory(client, server), path)
            assert result.status == 200 and result.report is not None
            outputs.append(
                (path, result.generation_time_s, dict(result.report.assets))
            )
        return outputs

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=USERS) as pool:
        per_lane = list(pool.map(run_lane, range(USERS)))
    wall_s = time.perf_counter() - start
    fetches = [entry for lane in per_lane for entry in lane]
    sim_s = sum(seconds for _path, seconds, _assets in fetches)
    assets: dict[str, dict[str, bytes]] = {}
    for path, _seconds, page_assets in fetches:
        assets.setdefault(path, page_assets)
        assert assets[path] == page_assets, f"non-deterministic bytes for {path}"
    return wall_s, sim_s, len(fetches), assets


def run_both():
    sequential = run_session(engine=None)
    engine = BatchingEngine(LAPTOP, max_batch=MAX_BATCH, max_wait_s=BATCH_WAIT_S)
    try:
        batched = run_session(engine=engine)
    finally:
        engine.close()
    return sequential, batched, engine.stats


def test_batched_throughput_vs_sequential(benchmark):
    sequential, batched, stats = benchmark.pedantic(run_both, rounds=1, iterations=1)
    seq_wall, seq_sim, seq_pages, seq_assets = sequential
    bat_wall, bat_sim, bat_pages, bat_assets = batched
    assert seq_pages == bat_pages == REQUESTS

    seq_rate = seq_pages / seq_sim
    bat_rate = bat_pages / bat_sim
    speedup = bat_rate / seq_rate

    print_table(
        f"Batching: {REQUESTS}-request Zipf stream, {USERS} concurrent users",
        ["metric", "sequential (seed)", f"batched (window {MAX_BATCH})"],
        [
            ["wall time", f"{seq_wall:.2f} s", f"{bat_wall:.2f} s"],
            ["simulated generation", f"{seq_sim:.1f} s", f"{bat_sim:.1f} s"],
            ["pages / simulated s", f"{seq_rate:.4f}", f"{bat_rate:.4f}"],
            ["throughput speedup", "-", f"{speedup:.2f}x"],
            ["batches executed", "-", stats.batches],
            ["mean batch size", "-", f"{stats.mean_batch:.1f}"],
            ["largest batch", "-", stats.largest_batch],
            ["saved simulated time", "-", f"{stats.saved_sim_s:.1f} s"],
        ],
    )

    # Identical bytes page for page: batching must never change content.
    assert bat_assets == seq_assets
    # The engine really batched (the window grouped concurrent lanes) and
    # the acceptance bar holds: ≥ 2× pages per simulated second.
    assert stats.largest_batch >= 2
    assert speedup >= 2.0, f"batched speedup {speedup:.2f}x below the 2x gate"

    record_bench(
        "batch",
        "sequential",
        wall_time_s=seq_wall,
        generation_sim_s=round(seq_sim, 3),
        pages=seq_pages,
        pages_per_sim_s=round(seq_rate, 6),
    )
    record_bench(
        "batch",
        "batched",
        wall_time_s=bat_wall,
        generation_sim_s=round(bat_sim, 3),
        pages=bat_pages,
        pages_per_sim_s=round(bat_rate, 6),
        speedup=round(speedup, 3),
        batches=stats.batches,
        mean_batch=round(stats.mean_batch, 3),
        largest_batch=stats.largest_batch,
        saved_sim_s=round(stats.saved_sim_s, 3),
        max_batch=MAX_BATCH,
        batch_wait_s=BATCH_WAIT_S,
    )
