"""E2 / Figure 2 + §6.2 — the Wikimedia "Landscape" page experiment.

Paper numbers reproduced here:

* 49 images, ≈1.4 MB of media → ≈8.92 kB of prompt metadata: 157×
  compression; with the 428 B worst-case metadata budget: 68×.
* Client-side generation: ≈310 s on the laptop (6.32 s/image), ≈49 s on
  the workstation (≈1 s/image).
* Semantic meaning conserved: CLIP-sim well above the 0.09 random floor.
"""

import numpy as np
from _shared import BENCH_REGISTRY, print_table, record_bench, serve_page, within

from repro import GenerativeClient, LAPTOP, WORKSTATION, build_wikimedia_landscape_page
from repro.media.png import decode_png
from repro.metrics.clip import clip_score
from repro.metrics.compression import WORST_CASE_IMAGE_METADATA


def fetch_on(device):
    page = build_wikimedia_landscape_page()
    client, _server, pair = serve_page(
        page,
        client=GenerativeClient(device=device, registry=BENCH_REGISTRY),
        registry=BENCH_REGISTRY,
    )
    return page, client.fetch_via_pair(pair, page.path)


def _wire_bytes_sent() -> float:
    return BENCH_REGISTRY.value("http2_wire_bytes_total", layer="http2", operation="sent")


def test_fig2_compression(benchmark):
    page = benchmark(build_wikimedia_landscape_page)
    account = page.account
    worst_case = account.items * WORST_CASE_IMAGE_METADATA

    print_table(
        "Fig. 2 / §6.2: Wikimedia landscape page — data reduction",
        ["metric", "paper", "measured"],
        [
            ["images", "49", account.items],
            ["original media", "1400 kB", f"{account.original_media / 1000:.0f} kB"],
            ["prompt metadata", "8.92 kB", f"{account.metadata / 1000:.2f} kB"],
            ["compression", "157x", f"{account.ratio:.0f}x"],
            ["worst-case metadata", "20.97 kB", f"{worst_case / 1000:.2f} kB"],
            ["worst-case compression", "68x", f"{account.original_media / worst_case:.0f}x"],
        ],
    )

    assert account.items == 49
    within(account.original_media, 1_300_000, 1_500_000, "original bytes")
    within(account.metadata, 8_200, 9_700, "metadata bytes")
    within(account.ratio, 140, 170, "compression factor")
    within(account.original_media / worst_case, 62, 74, "worst-case factor")
    record_bench(
        "fig2",
        "compression",
        compression_ratio=account.ratio,
        original_media_bytes=account.original_media,
        metadata_bytes=account.metadata,
    )


def test_fig2_laptop_generation(benchmark):
    sent_before = _wire_bytes_sent()
    page, result = benchmark.pedantic(lambda: fetch_on(LAPTOP), rounds=1, iterations=1)
    record_bench(
        "fig2",
        "laptop",
        wire_bytes=_wire_bytes_sent() - sent_before,
        generation_sim_s=round(result.generation_time_s, 3),
    )
    per_image = result.generation_time_s / page.account.items

    print_table(
        "Fig. 2 / §6.2: client-side generation on the laptop",
        ["metric", "paper", "measured"],
        [
            ["total", "~310 s", f"{result.generation_time_s:.0f} s"],
            ["per image", "6.32 s", f"{per_image:.2f} s"],
            ["energy", "-", f"{result.generation_energy_wh:.2f} Wh"],
        ],
    )
    within(result.generation_time_s, 290, 330, "laptop total")
    within(per_image, 5.9, 6.8, "laptop per-image")


def test_fig2_workstation_generation(benchmark):
    sent_before = _wire_bytes_sent()
    page, result = benchmark.pedantic(lambda: fetch_on(WORKSTATION), rounds=1, iterations=1)
    record_bench(
        "fig2",
        "workstation",
        wire_bytes=_wire_bytes_sent() - sent_before,
        generation_sim_s=round(result.generation_time_s, 3),
    )
    per_image = result.generation_time_s / page.account.items

    print_table(
        "Fig. 2 / §6.2: generation on the workstation",
        ["metric", "paper", "measured"],
        [
            ["total", "~49 s", f"{result.generation_time_s:.0f} s"],
            ["per image", "~1 s", f"{per_image:.2f} s"],
        ],
    )
    within(result.generation_time_s, 38, 55, "workstation total")
    within(per_image, 0.75, 1.15, "workstation per-image")


def test_fig2_semantic_conservation(benchmark):
    """'the semantic meaning of each picture is conserved over this
    process, though the images are not identical'."""

    def score_page():
        page, result = fetch_on(WORKSTATION)
        scores = [
            clip_score(output.item.prompt, decode_png(output.payload))
            for output in result.report.outputs
        ]
        return np.asarray(scores)

    scores = benchmark.pedantic(score_page, rounds=1, iterations=1)
    print_table(
        "Fig. 2: semantic conservation (CLIP-sim vs own prompt)",
        ["metric", "reference", "measured"],
        [
            ["mean CLIP-sim", "~0.27 (SD3 band)", f"{scores.mean():.3f}"],
            ["min CLIP-sim", "> 0.09 floor", f"{scores.min():.3f}"],
        ],
    )
    assert scores.mean() > 0.24
    assert scores.min() > 0.15  # every image clearly above the random floor
