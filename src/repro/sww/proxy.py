"""An SWW edge proxy (paper §2.2, as a working protocol component).

    "media is sent from the content provider to caching locations or edge
    servers as prompts, and only the prompts are saved at the edge. At a
    request of a user, the edge server uses the prompt to generate the
    content and sends it to the requester."

:class:`SwwEdgeProxy` is that edge server at the HTTP level (the
accounting-only view lives in :mod:`repro.cdn.edge`). It faces two ways:

* **upstream** it is an SWW *client*: it advertises GEN_ABILITY to the
  origin over an in-memory HTTP/2 pair and stores the prompt-form pages it
  receives (prompt-sized) in its own :class:`~repro.sww.server.SiteStore`;
* **downstream** it is a :class:`~repro.sww.server.GenerativeServer` over
  that store: capable clients get the stored prompts verbatim (full SWW
  savings end-to-end); naive clients get media the edge generates on its
  own hardware, once per page, and the generated assets it then holds.

The proxy therefore preserves the storage benefit unconditionally and
degrades gracefully to §2.2's "storage only" benefit exactly when the
last hop is naive.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.profiles import DeviceProfile, WORKSTATION
from repro.sww.client import GenerativeClient, connect_in_memory
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
        # Upstream the proxy is a capable client that takes prompts
        # unexpanded (see _pull).
        self._pair = connect_in_memory(GenerativeClient(device=device, gen_ability=True), origin)
        #: Downstream: the edge's own server over the pages it has pulled.
        self.server = GenerativeServer(SiteStore(), device=device)
        self.stats = ProxyStats()

    def _pull(self, path: str) -> None:
        """Store the page's prompt form from the origin, unless held.

        A page the origin does not send as prompts is not stored, so the
        edge's server answers it 404.
        """
        pages = self.server.store.pages
        if path in pages:
            self.stats.hits += 1
            return
        self.stats.misses += 1
        # A raw request: the body stays in prompt form.
        response = self._pair.run(self._pair.client.request("GET", path))
        self.stats.upstream_bytes += len(response.body)
        if response.status != 200 or dict(response.headers).get(b"x-sww-content") != b"prompts":
            return
        self.server.store.add_page(PageResource(path, response.body.decode("utf-8", "replace")))
        self.stats.prompt_cache_bytes = sum(len(page.sww_html.encode("utf-8")) for page in pages.values())

    def handle_request(self, path: str, client_gen_ability: bool) -> ServedResponse:
        """Serve one downstream GET (same shape as GenerativeServer)."""
        if path not in self.server.store.assets:
            self._pull(path)
        response = self.server.handle_request(path, client_gen_ability)
        if response.status == 200:
            self.stats.downstream_bytes += len(response.body)
        if response.memo == "miss":
            # A response carries its page's cost, not its item count.
            self.stats.generations = self.server._generator.generated_count
            self.stats.generation_s += response.sim_time_s
            self.stats.generation_wh += response.energy_wh
        return response


def build_origin(pages) -> GenerativeServer:
    """Convenience: an origin serving the given corpus pages in SWW form."""
    store = SiteStore()
    for page in pages:
        store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    return GenerativeServer(store)
