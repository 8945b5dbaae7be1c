"""E7 / Table 2 — storage savings, generation time and energy per media type.

Paper's Table 2 (SD 3 Medium + DeepSeek-R1 8B):

    Media            Size[B]  Meta[B]  Ratio    Laptop       Workstation
    Small  256x256     8192     428     19.14    7 s/0.02Wh   1.0 s/0.04Wh
    Medium 512x512    32768     428     76.56   19 s/0.05Wh   1.7 s/0.06Wh
    Large 1024x1024  131072     428    306.24  310 s/0.90Wh   6.2 s/0.21Wh
    Text (250 words)   1250     649      1.93   32 s/0.01Wh  13.0 s/0.51Wh
"""

import pytest
from _shared import BENCH_REGISTRY, print_table, record_bench

from repro.devices import LAPTOP, WORKSTATION
from repro.genai.image import generate_image
from repro.genai.registry import DEEPSEEK_R1_8B, SD3_MEDIUM
from repro.genai.text import expand_text
from repro.media.jpeg_model import jpeg_size, text_block_size
from repro.metrics.compression import WORST_CASE_IMAGE_METADATA, compression_ratio

TEXT_METADATA_BYTES = 649  # Table 2's text metadata budget
PROMPT = "a landscape photograph of a glacier tongue above a gravel valley"
TEXT_PROMPT = "- transit corridor planning\n- funding committee review\n- construction next spring"

PAPER_ROWS = {
    "small": (8192, 428, 19.14, 7.0, 0.02, 1.0, 0.04),
    "medium": (32768, 428, 76.56, 19.0, 0.05, 1.7, 0.06),
    "large": (131072, 428, 306.24, 310.0, 0.90, 6.2, 0.21),
    "text": (1250, 649, 1.93, 32.0, 0.01, 13.0, 0.51),
}


def run_table2():
    rows = {}
    for label, side in (("small", 256), ("medium", 512), ("large", 1024)):
        size = jpeg_size(side, side)
        ratio = compression_ratio(size, WORST_CASE_IMAGE_METADATA)
        lt = generate_image(SD3_MEDIUM, LAPTOP, PROMPT, side, side, 15, registry=BENCH_REGISTRY)
        wt = generate_image(SD3_MEDIUM, WORKSTATION, PROMPT, side, side, 15, registry=BENCH_REGISTRY)
        rows[label] = (size, WORST_CASE_IMAGE_METADATA, ratio, lt.sim_time_s, lt.energy_wh, wt.sim_time_s, wt.energy_wh)
    size = text_block_size(250)
    ratio = compression_ratio(size, TEXT_METADATA_BYTES)
    lt = expand_text(DEEPSEEK_R1_8B, LAPTOP, TEXT_PROMPT, 250, "news", registry=BENCH_REGISTRY)
    wt = expand_text(DEEPSEEK_R1_8B, WORKSTATION, TEXT_PROMPT, 250, "news", registry=BENCH_REGISTRY)
    rows["text"] = (size, TEXT_METADATA_BYTES, ratio, lt.sim_time_s, lt.energy_wh, wt.sim_time_s, wt.energy_wh)
    return rows


def test_table2(benchmark):
    rows = benchmark.pedantic(run_table2, rounds=1, iterations=1)
    for label, m in rows.items():
        record_bench(
            "table2",
            label,
            compression_ratio=m[2],
            laptop_sim_s=round(m[3], 3),
            workstation_sim_s=round(m[5], 3),
        )

    print_table(
        "Table 2 (paper / measured)",
        ["media", "size B", "meta B", "ratio", "laptop s", "laptop Wh", "wk s", "wk Wh"],
        [
            [
                label,
                f"{PAPER_ROWS[label][0]} / {m[0]}",
                f"{PAPER_ROWS[label][1]} / {m[1]}",
                f"{PAPER_ROWS[label][2]} / {m[2]:.2f}",
                f"{PAPER_ROWS[label][3]} / {m[3]:.1f}",
                f"{PAPER_ROWS[label][4]} / {m[4]:.3f}",
                f"{PAPER_ROWS[label][5]} / {m[5]:.2f}",
                f"{PAPER_ROWS[label][6]} / {m[6]:.3f}",
            ]
            for label, m in rows.items()
        ],
    )

    for label, measured in rows.items():
        p = PAPER_ROWS[label]
        assert measured[0] == p[0], f"{label} media size"
        assert measured[1] == p[1], f"{label} metadata size"
        assert measured[2] == pytest.approx(p[2], abs=0.01), f"{label} ratio"
        assert measured[3] == pytest.approx(p[3], rel=0.05), f"{label} laptop time"
        assert measured[4] == pytest.approx(p[4], abs=0.012), f"{label} laptop energy"
        assert measured[5] == pytest.approx(p[5], rel=0.06), f"{label} wk time"
        assert measured[6] == pytest.approx(p[6], abs=0.02), f"{label} wk energy"

    # Shape: 'the bigger the image, the higher image compression ratio'.
    ratios = [rows[l][2] for l in ("small", "medium", "large")]
    assert ratios == sorted(ratios)


def test_wire_bytes_from_registry_cross_check():
    """The registry's wire-byte counters must agree with two independent
    accountings: the engines' own byte counters, and a by-hand total
    recomputed from the parsed frames (9-byte header + payload each)."""
    from repro.http2.frames import parse_frames
    from repro.obs import MetricsRegistry
    from repro.sww.client import GenerativeClient, connect_in_memory
    from repro.sww.server import GenerativeServer, PageResource, SiteStore
    from repro.workloads import build_news_article

    registry = MetricsRegistry()
    page = build_news_article()
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    server = GenerativeServer(store, registry=registry)
    client = GenerativeClient(device=LAPTOP, registry=registry)
    pair = connect_in_memory(client, server)

    # Capture everything both engines emit after the handshake, so the
    # request/response phase can be re-totalled frame by frame.
    captured = {"client": bytearray(), "server": bytearray()}
    for side in ("client", "server"):
        conn = getattr(pair, side).conn
        original = conn.data_to_send

        def wrapped(original=original, sink=captured[side]):
            data = original()
            sink.extend(data)
            return data

        conn.data_to_send = wrapped

    sent_before = registry.value("http2_wire_bytes_total", layer="http2", operation="sent")
    received_before = registry.value("http2_wire_bytes_total", layer="http2", operation="received")
    client.fetch_via_pair(pair, page.path)
    sent_delta = registry.value("http2_wire_bytes_total", layer="http2", operation="sent") - sent_before
    received_delta = (
        registry.value("http2_wire_bytes_total", layer="http2", operation="received")
        - received_before
    )

    # 1. Registry vs captured bytes vs a frame-by-frame hand total.
    captured_total = sum(len(buf) for buf in captured.values())
    hand_total = 0
    frame_count = 0
    for buf in captured.values():
        frames, rest = parse_frames(bytes(buf))
        assert rest == b""
        frame_count += len(frames)
        hand_total += sum(9 + len(frame.payload()) for frame in frames)
    assert sent_delta == captured_total == hand_total
    assert frame_count > 0

    # 2. Duplex symmetry: every byte one engine sent, the other received.
    assert sent_delta == received_delta

    # 3. Registry totals (handshake included) vs the engines' own counters.
    total_sent = registry.value("http2_wire_bytes_total", layer="http2", operation="sent")
    assert total_sent == pair.client.conn.bytes_sent + pair.server.conn.bytes_sent
    print_table(
        "Wire bytes, three accountings",
        ["source", "bytes"],
        [
            ["metrics registry (request phase)", int(sent_delta)],
            ["captured stream", captured_total],
            ["frame-by-frame hand total", hand_total],
        ],
    )
