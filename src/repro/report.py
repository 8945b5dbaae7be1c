"""Programmatic experiment summary (the data behind EXPERIMENTS.md).

:func:`run_headline_experiments` executes the paper's headline
measurements in-process and returns structured rows, so the CLI
(``sww report``) and any downstream tooling can regenerate the
paper-vs-measured comparison without going through pytest.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices import LAPTOP, WORKSTATION
from repro.devices.energy import transmission_energy_wh, transmission_time_s
from repro.genai.image import generate_image
from repro.genai.registry import DEEPSEEK_R1_8B, SD3_MEDIUM
from repro.genai.text import expand_text
from repro.media.jpeg_model import jpeg_size
from repro.metrics.compression import WORST_CASE_IMAGE_METADATA
from repro.obs import IdSource, MetricsRegistry, Tracer, stitch_spans
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.workloads import build_news_article, build_wikimedia_landscape_page


@dataclass(frozen=True)
class ReportRow:
    """One paper-vs-measured line."""

    experiment: str
    metric: str
    paper: str
    measured: str

    def formatted(self, widths: tuple[int, int, int, int] = (8, 34, 18, 18)) -> str:
        cells = (self.experiment, self.metric, self.paper, self.measured)
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))


def _fetch_seconds(page, device) -> float:
    """Run one generative fetch and read its generation time off the metrics
    registry (the same numbers ``sww stats`` exports), rather than
    re-deriving them from the fetch result."""
    registry = MetricsRegistry()
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    client = GenerativeClient(device=device, registry=registry)
    pair = connect_in_memory(client, GenerativeServer(store, registry=registry))
    client.fetch_via_pair(pair, page.path)
    return registry.total("genai_generation_seconds")


def run_headline_experiments() -> list[ReportRow]:
    """The Fig. 2 / E3 / Table 2 / §6.4 headline numbers, measured live."""
    rows: list[ReportRow] = []

    page = build_wikimedia_landscape_page()
    account = page.account
    rows.append(ReportRow("Fig.2", "original media", "1400 kB", f"{account.original_media / 1000:.0f} kB"))
    rows.append(ReportRow("Fig.2", "prompt metadata", "8.92 kB", f"{account.metadata / 1000:.2f} kB"))
    rows.append(ReportRow("Fig.2", "compression", "157x", f"{account.ratio:.0f}x"))
    worst = account.items * WORST_CASE_IMAGE_METADATA
    rows.append(ReportRow("Fig.2", "worst-case compression", "68x", f"{account.original_media / worst:.0f}x"))

    laptop_seconds = _fetch_seconds(page, LAPTOP)
    rows.append(ReportRow("Fig.2", "laptop generation", "~310 s", f"{laptop_seconds:.0f} s"))
    rows.append(ReportRow("Fig.2", "per image (laptop)", "6.32 s", f"{laptop_seconds / 49:.2f} s"))
    wk_seconds = _fetch_seconds(page, WORKSTATION)
    rows.append(ReportRow("Fig.2", "workstation generation", "~49 s", f"{wk_seconds:.0f} s"))

    news = build_news_article()
    rows.append(
        ReportRow(
            "E3",
            "article compression",
            "3.1x (2400->778 B)",
            f"{news.account.ratio:.2f}x ({news.account.original_text}->{news.account.metadata} B)",
        )
    )
    news_seconds = _fetch_seconds(news, LAPTOP)
    rows.append(ReportRow("E3", "laptop generation", "41.9 s", f"{news_seconds:.1f} s"))

    for label, side, paper_l, paper_w in (
        ("small", 256, "7 s", "1.0 s"),
        ("medium", 512, "19 s", "1.7 s"),
        ("large", 1024, "310 s", "6.2 s"),
    ):
        lt = generate_image(SD3_MEDIUM, LAPTOP, "x", side, side, 15).sim_time_s
        wt = generate_image(SD3_MEDIUM, WORKSTATION, "x", side, side, 15).sim_time_s
        rows.append(
            ReportRow("Table2", f"{label} image gen (laptop/wk)", f"{paper_l} / {paper_w}", f"{lt:.1f} s / {wt:.2f} s")
        )
    text = expand_text(DEEPSEEK_R1_8B, LAPTOP, "- a\n- b", 250)
    rows.append(ReportRow("Table2", "250-word text (laptop)", "32 s / 0.01 Wh", f"{text.sim_time_s:.1f} s / {text.energy_wh:.3f} Wh"))

    large = jpeg_size(1024, 1024)
    rows.append(
        ReportRow(
            "E8",
            "send vs generate (energy)",
            "2.5%",
            f"{transmission_energy_wh(large) / 0.21:.1%}",
        )
    )
    rows.append(
        ReportRow("E8", "send large image @100Mbps", "~10 ms", f"{transmission_time_s(large) * 1000:.1f} ms")
    )

    rows.extend(trace_crosscheck_rows())
    rows.extend(gencache_rows())
    rows.extend(batching_rows())
    return rows


def gencache_rows() -> list[ReportRow]:
    """Warm-scenario rows for the content-addressed generation cache.

    A *separate* experiment appended after the paper's numbers: one cold
    fetch fills a shared :class:`~repro.gencache.GenerationCache`, a
    second fetch of the same page replays against it. The cold rows above
    are measured without any cache (the paper has none), so these rows
    only ever add information — they never replace the cold figures.
    """
    from repro.gencache import GenerationCache

    page = build_news_article()
    registry = MetricsRegistry()
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    gencache = GenerationCache(registry=registry)
    client = GenerativeClient(device=LAPTOP, registry=registry, gencache=gencache)
    server = GenerativeServer(store, registry=registry)
    cold = client.fetch_via_pair(connect_in_memory(client, server), page.path)
    warm = client.fetch_via_pair(connect_in_memory(client, server), page.path)
    stats = gencache.stats
    return [
        ReportRow(
            "Warm",
            "re-fetch generation (cold vs warm)",
            "n/a (no cache)",
            f"{cold.generation_time_s:.1f} s vs {warm.generation_time_s:.3f} s",
        ),
        ReportRow(
            "Warm",
            "cache hit rate on re-fetch",
            "n/a (no cache)",
            f"{stats.hit_rate:.0%} ({stats.hits}/{stats.requests})",
        ),
        ReportRow(
            "Warm",
            "simulated seconds saved",
            "n/a (no cache)",
            f"{stats.saved_sim_seconds:.1f} s",
        ),
    ]


def batching_rows() -> list[ReportRow]:
    """Micro-batched throughput rows (repro.batching).

    Like the Warm rows, a separate experiment appended after the paper's
    numbers: the same eight distinct prompts run solo and as one 8-way
    micro-batch through ``generate_image_batch``, using the calibrated
    amortisation curve. Calling the kernel directly (rather than timing
    the engine's wall-clock window) keeps the row deterministic. Cold
    rows above never go through the engine, so they are untouched.
    """
    from repro.batching import DEFAULT_ALPHA
    from repro.genai.image import batch_step_share, generate_image_batch

    prompts = [f"batched workload scene {i}" for i in range(8)]
    solo_s = sum(
        generate_image(SD3_MEDIUM, WORKSTATION, p, 512, 512, 15).sim_time_s for p in prompts
    )
    batched = generate_image_batch(
        SD3_MEDIUM, WORKSTATION, prompts, 512, 512, 15, alpha=DEFAULT_ALPHA
    )
    batched_s = sum(result.sim_time_s for result in batched)
    share = batch_step_share(len(prompts), DEFAULT_ALPHA)
    return [
        ReportRow(
            "Batched",
            "8 images, solo vs 8-way batch (wk)",
            "n/a (no batching)",
            f"{solo_s:.1f} s vs {batched_s:.1f} s",
        ),
        ReportRow(
            "Batched",
            "throughput (images / simulated s)",
            "n/a (no batching)",
            f"{8 / solo_s:.2f} vs {8 / batched_s:.2f} ({1 / share:.1f}x)",
        ),
    ]


def trace_crosscheck_rows() -> list[ReportRow]:
    """Cross-check Table-2-grade timings against a stitched distributed trace.

    Client and server run with *separate* tracers (simulated separate
    processes) linked only by the propagated ``traceparent`` header; a
    naive-client fetch forces server-side materialisation so the genai
    work lands on the server's side of the wire. The stitched trace must
    (a) form one tree rooted at ``client.fetch`` containing
    ``server.materialise``, and (b) carry per-span simulated seconds
    (``sim_s`` attributes) summing to the registry's
    ``genai_generation_seconds`` — i.e. no generation happened outside
    the trace.
    """
    page = build_news_article()
    registry = MetricsRegistry()
    client_tracer = Tracer(ids=IdSource(1))
    server_tracer = Tracer(ids=IdSource(2))
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    server = GenerativeServer(store, registry=registry, tracer=server_tracer)
    client = GenerativeClient(
        device=LAPTOP, gen_ability=False, registry=registry, tracer=client_tracer
    )
    pair = connect_in_memory(client, server)
    client.fetch_via_pair(pair, page.path)

    stitched = stitch_spans([*client_tracer.roots(), *server_tracer.roots()])
    fetch_roots = [root for root in stitched if root.name == "client.fetch"]
    spans = [span for root in fetch_roots for _, span in root.walk()]
    one_trace = len(fetch_roots) == 1 and len({span.trace_id for span in spans}) == 1
    materialised = any(span.name == "server.materialise" for span in spans)
    span_sim_s = sum(span.attributes.get("sim_s", 0.0) for span in spans)
    registry_sim_s = registry.total("genai_generation_seconds")
    return [
        ReportRow(
            "Trace",
            "naive fetch stitches to one trace",
            "1 tree",
            f"{len(fetch_roots)} tree" + ("" if one_trace else " (id mismatch)"),
        ),
        ReportRow(
            "Trace",
            "server.materialise under client.fetch",
            "yes",
            "yes" if materialised else "no",
        ),
        ReportRow(
            "Trace",
            "stitched sim-time vs registry",
            "equal",
            f"{span_sim_s:.1f} s vs {registry_sim_s:.1f} s",
        ),
    ]


def format_report(rows: list[ReportRow]) -> str:
    header = ReportRow("exp", "metric", "paper", "measured").formatted()
    lines = [header, "-" * len(header)]
    lines.extend(row.formatted() for row in rows)
    return "\n".join(lines)
