"""An SWW edge proxy (paper §2.2, as a working protocol component).

    "media is sent from the content provider to caching locations or edge
    servers as prompts, and only the prompts are saved at the edge. At a
    request of a user, the edge server uses the prompt to generate the
    content and sends it to the requester."

:class:`SwwEdgeProxy` is that edge server at the HTTP level (the
accounting-only view lives in :mod:`repro.cdn.edge`). It faces two ways:

* **upstream** it is an SWW *client*: it advertises GEN_ABILITY to the
  origin and receives prompt-form pages, caching them (prompt-sized);
* **downstream** it is a *server* to whoever asks: capable clients get
  the cached prompts forwarded verbatim (full SWW savings end-to-end);
  naive clients get media the proxy generates on its own hardware.

The proxy therefore preserves the storage benefit unconditionally and
degrades gracefully to §2.2's "storage only" benefit exactly when the
last hop is naive.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.profiles import DeviceProfile, WORKSTATION
from repro.genai.pipeline import GenerationPipeline
from repro.html import parse_html, serialize
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.media_generator import MediaGenerator
from repro.sww.page_processor import PageProcessor
from repro.sww.server import GenerativeServer, PageResource, ServedResponse, SiteStore


@dataclass
class ProxyStats:
    """Traffic/storage accounting for the proxy."""

    upstream_bytes: int = 0
    downstream_bytes: int = 0
    prompt_cache_bytes: int = 0
    generations: int = 0
    generation_s: float = 0.0
    generation_wh: float = 0.0
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SwwEdgeProxy:
    """Fetches prompt-form pages from an origin, serves either form."""

    def __init__(
        self,
        origin: GenerativeServer,
        device: DeviceProfile = WORKSTATION,
    ) -> None:
        self.device = device
        # Upstream the proxy is a capable client that forwards prompts
        # unexpanded (see _fetch_upstream).
        self._pair = connect_in_memory(GenerativeClient(device=device, gen_ability=True), origin)
        self._pipeline = GenerationPipeline(device)
        self._processor = PageProcessor(MediaGenerator(self._pipeline))
        #: path → SWW HTML (the prompt-sized cache).
        self._prompt_cache: dict[str, str] = {}
        #: path → materialised (html, assets) for naive downstream clients.
        self._materialised: dict[str, tuple[str, dict[str, bytes]]] = {}
        #: asset path → PNG bytes the proxy generated.
        self._asset_store: dict[str, bytes] = {}
        self.stats = ProxyStats()

    # ------------------------------------------------------------------ #
    # Upstream
    # ------------------------------------------------------------------ #

    def _fetch_upstream(self, path: str) -> str | None:
        """Pull the prompt form from the origin (cached)."""
        cached = self._prompt_cache.get(path)
        if cached is not None:
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        # Fetch WITHOUT client-side generation: raw request, raw body.
        response = self._pair.run(self._pair.client.request("GET", path))
        self.stats.upstream_bytes += len(response.body)
        if response.status != 200 or dict(response.headers).get(b"x-sww-content") != b"prompts":
            return None
        html = response.body.decode("utf-8", "replace")
        self._prompt_cache[path] = html
        self.stats.prompt_cache_bytes = sum(
            len(value.encode("utf-8")) for value in self._prompt_cache.values()
        )
        return html

    # ------------------------------------------------------------------ #
    # Downstream
    # ------------------------------------------------------------------ #

    def handle_request(self, path: str, client_gen_ability: bool) -> ServedResponse:
        """Serve one downstream GET (same shape as GenerativeServer)."""
        if path in self._asset_store:
            data = self._asset_store[path]
            response = ServedResponse(
                200,
                [(b":status", b"200"), (b"content-type", b"image/png"),
                 (b"content-length", str(len(data)).encode())],
                data,
            )
            self.stats.downstream_bytes += len(data)
            return response
        html = self._fetch_upstream(path)
        if html is None:
            body = b"not found"
            return ServedResponse(
                404, [(b":status", b"404"), (b"content-length", b"9")], body
            )
        if client_gen_ability:
            body = html.encode("utf-8")
            self.stats.downstream_bytes += len(body)
            return ServedResponse(
                200,
                [
                    (b":status", b"200"),
                    (b"content-type", b"text/html; charset=utf-8"),
                    (b"content-length", str(len(body)).encode()),
                    (b"x-sww-content", b"prompts"),
                ],
                body,
                None,
            )
        materialised = self._materialised.get(path)
        if materialised is None:
            document = parse_html(html)
            report = self._processor.process(document)
            materialised = (serialize(document), dict(report.assets))
            self._materialised[path] = materialised
            self._asset_store.update(report.assets)
            self.stats.generations += report.generated_total
            self.stats.generation_s += report.sim_time_s
            self.stats.generation_wh += report.energy_wh
        body = materialised[0].encode("utf-8")
        self.stats.downstream_bytes += len(body)
        return ServedResponse(
            200,
            [
                (b":status", b"200"),
                (b"content-type", b"text/html; charset=utf-8"),
                (b"content-length", str(len(body)).encode()),
            ],
            body,
            None,
        )


def build_origin(pages) -> GenerativeServer:
    """Convenience: an origin serving the given corpus pages in SWW form."""
    store = SiteStore()
    for page in pages:
        store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    return GenerativeServer(store)
