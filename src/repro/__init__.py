"""repro — a reproduction of "The Small World Web of AI" (HotNets '25).

SWW delivers web content as *prompts* instead of media bytes: client and
server negotiate a new HTTP/2 SETTINGS parameter (``SETTINGS_GEN_ABILITY``,
0x07), after which pages carry ``generated-content`` divisions whose
metadata the client's local generative models turn into images and text.

Quickstart::

    from repro import (
        GenerativeClient, GenerativeServer, SiteStore, PageResource,
        connect_in_memory, build_wikimedia_landscape_page, LAPTOP,
    )

    page = build_wikimedia_landscape_page()
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    server = GenerativeServer(store)
    client = GenerativeClient(device=LAPTOP)
    pair = connect_in_memory(client, server)
    result = client.fetch_via_pair(pair, page.path)
    print(result.wire_bytes, "bytes over the wire;",
          result.report.generated_images, "images generated locally in",
          f"{result.generation_time_s:.0f} simulated seconds")

Subpackages: :mod:`repro.http2` (from-scratch HTTP/2 + HPACK),
:mod:`repro.html` (HTML engine), :mod:`repro.genai` (simulated generative
models), :mod:`repro.media` (PNG codec & size models), :mod:`repro.devices`
(calibrated hardware/energy models), :mod:`repro.metrics` (CLIP/SBERT/ELO
similes), :mod:`repro.sww` (the paper's system), :mod:`repro.cdn` (§2.2
scenario), :mod:`repro.workloads` (synthetic corpora), :mod:`repro.obs`
(metrics, tracing and logging — see docs/OBSERVABILITY.md),
:mod:`repro.gencache` (content-addressed generation cache and
single-flight scheduling — see docs/PERFORMANCE.md).
"""

from repro.devices import LAPTOP, WORKSTATION, MOBILE, CLOUD, get_device
from repro.genai import GenerationPipeline
from repro.genai.registry import (
    IMAGE_MODELS,
    TEXT_MODELS,
    get_image_model,
    get_text_model,
)
from repro.http2 import H2Connection, SETTINGS_GEN_ABILITY
from repro.obs import MetricsRegistry, Tracer, logging_setup
from repro.sww import (
    AssetResource,
    ContentType,
    FetchResult,
    GeneratedContent,
    GenerativeClient,
    GenerativeServer,
    MediaGenerator,
    PageProcessor,
    PageResource,
    ServeMode,
    ServePolicy,
    SiteStore,
    render_text,
)
from repro.sww.client import connect_in_memory

# Imported after repro.sww: gencache key derivation reads repro.sww.content,
# so loading it first would re-enter repro.sww mid-initialisation.
from repro.gencache import GenerationCache, GenerationKey
from repro.workloads import (
    build_news_article,
    build_travel_blog,
    build_wikimedia_landscape_page,
)

__version__ = "1.0.0"

__all__ = [
    "LAPTOP",
    "WORKSTATION",
    "MOBILE",
    "CLOUD",
    "get_device",
    "GenerationPipeline",
    "IMAGE_MODELS",
    "TEXT_MODELS",
    "get_image_model",
    "get_text_model",
    "GenerationCache",
    "GenerationKey",
    "H2Connection",
    "SETTINGS_GEN_ABILITY",
    "MetricsRegistry",
    "Tracer",
    "logging_setup",
    "GeneratedContent",
    "ContentType",
    "MediaGenerator",
    "PageProcessor",
    "GenerativeServer",
    "GenerativeClient",
    "FetchResult",
    "SiteStore",
    "PageResource",
    "AssetResource",
    "ServeMode",
    "ServePolicy",
    "render_text",
    "connect_in_memory",
    "build_wikimedia_landscape_page",
    "build_travel_blog",
    "build_news_article",
    "__version__",
]
