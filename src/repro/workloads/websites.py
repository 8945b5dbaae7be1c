"""Multi-site synthetic web corpus and the §4.2 adoption model.

The paper's adoption story: content-heavy static sites (blogs, company
pages, galleries) convert to SWW — typically when their CMS is upgraded —
while news-like sites keep most content unique, and some sites never
convert at all ("such pages, however, are less likely to be cached or
frequently accessed"). This module builds a corpus of synthetic sites
across those templates and models a staged adoption sweep, so the A6
benchmark can connect per-page compression (§6.2) to web-scale savings
(§7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util.rng import DeterministicRNG
from repro.media.jpeg_model import jpeg_size, text_block_size

#: Template mix modelled on the paper's adoption discussion. ``generatable``
#: is the fraction of each site's content bytes eligible for conversion;
#: ``popularity`` weights how much traffic the template class attracts.
TEMPLATE_PROFILES: dict[str, dict] = {
    "blog": {"generatable": 0.85, "popularity": 0.25, "pages": (8, 30)},
    "company": {"generatable": 0.90, "popularity": 0.15, "pages": (5, 15)},
    "gallery": {"generatable": 0.95, "popularity": 0.20, "pages": (10, 40)},
    "news": {"generatable": 0.25, "popularity": 0.40, "pages": (30, 80)},
}


@dataclass
class SyntheticPage:
    """Byte-level model of one page: media/text items with conversion tags."""

    path: str
    media_items: list[tuple[int, bool]] = field(default_factory=list)  # (bytes, generatable)
    text_items: list[tuple[int, bool]] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return sum(b for b, _g in self.media_items) + sum(b for b, _g in self.text_items)

    def converted_bytes(self, image_metadata: int = 300, text_ratio: float = 3.0) -> int:
        """Page size after SWW conversion of its generatable items."""
        total = 0
        for size, generatable in self.media_items:
            total += image_metadata if generatable else size
        for size, generatable in self.text_items:
            total += int(size / text_ratio) if generatable else size
        return total


@dataclass
class SyntheticSite:
    """One site: a template, pages and a popularity weight."""

    name: str
    template: str
    popularity: float
    pages: list[SyntheticPage] = field(default_factory=list)
    converted: bool = False

    @property
    def total_bytes(self) -> int:
        return sum(page.total_bytes for page in self.pages)

    def stored_bytes(self) -> int:
        if not self.converted:
            return self.total_bytes
        return sum(page.converted_bytes() for page in self.pages)

    def traffic_bytes_per_view(self) -> float:
        """Mean page weight served to a (capable) visitor."""
        if not self.pages:
            return 0.0
        per_page = [page.converted_bytes() if self.converted else page.total_bytes for page in self.pages]
        return sum(per_page) / len(per_page)


def _build_page(rng: DeterministicRNG, site_name: str, index: int, generatable_fraction: float) -> SyntheticPage:
    page = SyntheticPage(path=f"/{site_name}/page-{index:03d}")
    for _ in range(rng.randint(2, 10)):
        side = rng.choice((256, 256, 512, 512, 1024))
        page.media_items.append((jpeg_size(side, side), rng.random() < generatable_fraction))
    for _ in range(rng.randint(1, 6)):
        words = rng.randint(80, 600)
        page.text_items.append((text_block_size(words), rng.random() < generatable_fraction))
    return page


def build_web_corpus(sites: int = 40, seed: str = "web") -> list[SyntheticSite]:
    """Build a mixed corpus across the four template classes."""
    if sites <= 0:
        raise ValueError("need at least one site")
    rng = DeterministicRNG("web-corpus", seed, sites)
    templates = list(TEMPLATE_PROFILES)
    weights = [TEMPLATE_PROFILES[t]["popularity"] for t in templates]
    corpus: list[SyntheticSite] = []
    for index in range(sites):
        # Weighted template pick.
        roll = rng.random() * sum(weights)
        cumulative = 0.0
        template = templates[-1]
        for name, weight in zip(templates, weights):
            cumulative += weight
            if roll < cumulative:
                template = name
                break
        profile = TEMPLATE_PROFILES[template]
        site = SyntheticSite(
            name=f"{template}-{index:03d}",
            template=template,
            popularity=rng.uniform(0.5, 1.5) * profile["popularity"],
        )
        low, high = profile["pages"]
        for page_index in range(rng.randint(low, high)):
            site.pages.append(_build_page(rng, site.name, page_index, profile["generatable"]))
        corpus.append(site)
    return corpus


@dataclass
class AdoptionSnapshot:
    """Corpus-level metrics at one adoption stage."""

    converted_sites: int
    total_sites: int
    storage_bytes: int
    baseline_storage_bytes: int
    traffic_per_view: float
    baseline_traffic_per_view: float

    @property
    def adoption_rate(self) -> float:
        return self.converted_sites / self.total_sites if self.total_sites else 0.0

    @property
    def storage_saving(self) -> float:
        return self.baseline_storage_bytes / self.storage_bytes if self.storage_bytes else float("inf")

    @property
    def traffic_saving(self) -> float:
        return self.baseline_traffic_per_view / self.traffic_per_view if self.traffic_per_view else float("inf")


def conversion_order(corpus: list[SyntheticSite]) -> list[SyntheticSite]:
    """The §4.2 adoption order: static/high-generatable templates first
    (gallery → company → blog), news last; within a class, smaller sites
    first (CMS upgrades are cheaper)."""
    return sorted(
        corpus,
        key=lambda site: (
            -TEMPLATE_PROFILES[site.template]["generatable"],
            site.total_bytes,
        ),
    )


def adoption_sweep(corpus: list[SyntheticSite], stages: list[float]) -> list[AdoptionSnapshot]:
    """Convert sites in :func:`conversion_order` and snapshot each stage.

    ``stages`` are target adoption fractions in [0, 1].
    """
    order = conversion_order(corpus)
    baseline_storage = sum(site.total_bytes for site in corpus)
    total_popularity = sum(site.popularity for site in corpus)
    baseline_traffic = (
        sum(site.traffic_bytes_per_view() * site.popularity for site in corpus) / total_popularity
    )

    snapshots: list[AdoptionSnapshot] = []
    for site in corpus:
        site.converted = False
    for stage in stages:
        if not 0.0 <= stage <= 1.0:
            raise ValueError(f"adoption stage {stage} outside [0, 1]")
        convert_count = round(stage * len(order))
        for index, site in enumerate(order):
            site.converted = index < convert_count
        storage = sum(site.stored_bytes() for site in corpus)
        traffic = (
            sum(site.traffic_bytes_per_view() * site.popularity for site in corpus)
            / total_popularity
        )
        snapshots.append(
            AdoptionSnapshot(
                converted_sites=convert_count,
                total_sites=len(corpus),
                storage_bytes=storage,
                baseline_storage_bytes=baseline_storage,
                traffic_per_view=traffic,
                baseline_traffic_per_view=baseline_traffic,
            )
        )
    return snapshots
