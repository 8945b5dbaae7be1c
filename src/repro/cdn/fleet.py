"""The geo-distributed edge fleet (ROADMAP item 2).

The single :class:`~repro.cdn.edge.EdgeNode` prices one edge's trade-offs;
the paper's §7 sustainability argument is about a *planet* of them. This
module simulates that fleet as a discrete-event system driven by the
open-loop request tape from :func:`~repro.workloads.traffic.open_loop_requests`:

* **Consistent-hash placement** — every
  :class:`~repro.gencache.key.GenerationKey` digest has a ring owner
  (:class:`~repro.cdn.placement.HashRing`), the edge whose generation
  cache is the canonical home of that artifact.
* **Home-edge routing** — each user's fetch lands on their region's home
  edge (:class:`~repro.cdn.router.FleetRouter`).
* **Cross-edge gencache peering** — a miss at the home edge probes the
  ring owner before paying generation; a peer hit ships the materialised
  media edge-to-edge (media-sized intra-CDN bytes, far cheaper than the
  steps it avoids).
* **Generation with bounded load** — misses generate at the ring owner,
  unless its backlog exceeds :attr:`FleetConfig.max_backlog_s`, in which
  case the bounded-load walk spills to the next preference node. When
  every candidate is saturated, the fleet falls back to pulling the
  materialised media from the origin — generation capacity, not
  bandwidth, is the scarce resource (PixLift / "Rethinking Image
  Compression" in PAPERS.md), and placement decides who pays it.
* **Origin shield** — all origin traffic funnels through a shield tier
  whose in-flight table collapses concurrent cross-region pulls for the
  same key into one origin transfer, and whose prompt cache absorbs
  repeat prompt fills. (Concurrent *generations* are already collapsed
  fleet-wide by the flight table, so at most one prompt pull per key is
  ever in flight.)

Accounting reuses the PR-8 cache-tier protocol: one outcome per request —
``hit`` (home or peer), ``lead`` (pays generation or an origin pull), or
``coalesced`` (parked on an in-flight generation/pull) — checked
flight-first exactly like :class:`~repro.serving.cachetier.CacheTierServer`,
with every cache probe an uncounted :meth:`~repro.gencache.GenerationCache.peek`.
A peered hit is therefore never double-counted as a home miss plus an
owner hit, and a parked waiter never counts a miss.

Time is simulated: requests must arrive in nondecreasing tape order, and
each edge's generation lanes are busy-until clocks, so queueing delay at
a saturated edge is finally a first-class, measurable quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cdn.cache import CacheEntry, EdgeCache
from repro.cdn.edge import CatalogItem, OriginCatalog
from repro.cdn.placement import HashRing
from repro.cdn.router import FleetRouter
from repro.devices.profiles import DeviceProfile, WORKSTATION
from repro.genai.registry import DEFAULT_IMAGE_MODEL, ImageModel
from repro.gencache import GenerationCache, GenerationKey, image_key
from repro.gencache.store import GenCacheStats, HIT_LOOKUP_TIME_S
from repro.obs import NULL_REGISTRY, Histogram, MetricsRegistry

#: Request outcomes, in cache-tier vocabulary order. ``edge`` and
#: ``peer`` are hits, ``coalesced`` parked on an in-flight lead, and
#: ``generated`` / ``origin`` are the two ways a lead pays for a miss.
TIERS = ("edge", "peer", "coalesced", "generated", "origin")


@dataclass(frozen=True)
class FleetConfig:
    """Shape of the simulated fleet."""

    edges: int = 4
    #: Generation-cache capacity per edge, bytes. Deliberately much
    #: smaller than catalog × media size: partitioning the keyspace
    #: across the ring is what makes the fleet's aggregate capacity
    #: cover the working set where a single edge thrashes.
    gencache_bytes: int = 32 * 1024 * 1024
    #: Prompt-cache capacity per edge (prompts are ~100× smaller).
    prompt_cache_bytes: int = 1024 * 1024
    #: Concurrent generation lanes per edge.
    gen_lanes: int = 1
    #: Queue backlog at which the bounded-load walk skips an edge; when
    #: every preference node exceeds it, the miss falls back to an
    #: origin media pull instead of queueing without bound.
    max_backlog_s: float = 5.0
    #: Virtual nodes per edge on the placement ring.
    vnodes: int = 128
    device: DeviceProfile = WORKSTATION
    model: ImageModel = DEFAULT_IMAGE_MODEL
    steps: int = 15

    def edge_names(self) -> list[str]:
        return [f"edge-{i:02d}" for i in range(self.edges)]


@dataclass(frozen=True)
class _ItemProfile:
    """Pre-computed per-item costs (the modelled, not-executed generation)."""

    item: CatalogItem
    gkey: GenerationKey
    digest: str
    gen_time_s: float
    gen_energy_wh: float
    prompt_bytes: int


@dataclass
class _Flight:
    """One in-flight lead (a generation at an edge, or an origin pull)."""

    done_s: float
    #: Edge paying the generation, or None for an origin pull.
    edge: str | None
    item: _ItemProfile
    waiters: int = 0


class SimEdge:
    """One edge's caches and generation lanes."""

    def __init__(self, name: str, config: FleetConfig, registry: MetricsRegistry) -> None:
        self.name = name
        self.gencache = GenerationCache(config.gencache_bytes, registry=registry)
        self.prompts = EdgeCache(config.prompt_cache_bytes)
        #: Busy-until clock per generation lane, simulated seconds.
        self.lanes = [0.0] * config.gen_lanes
        self.generations = 0
        self.generation_sim_s = 0.0

    def backlog_s(self, now_s: float) -> float:
        """Wait until the next free lane, from ``now_s``."""
        return max(0.0, min(self.lanes) - now_s)

    def occupy(self, start_s: float, service_s: float) -> float:
        """Claim the earliest-free lane; returns the completion time."""
        lane = self.lanes.index(min(self.lanes))
        done = max(self.lanes[lane], start_s) + service_s
        self.lanes[lane] = done
        return done


@dataclass
class FleetServeResult:
    """One request's outcome and cost breakdown."""

    key: str
    region: str
    home_edge: str
    tier: str
    #: End-to-end user-perceived latency, simulated seconds.
    latency_s: float
    #: Time spent queued behind other generations (generated tier only).
    queue_s: float = 0.0
    gen_time_s: float = 0.0
    gen_energy_wh: float = 0.0
    #: Edge that paid the generation (may differ from home under spill).
    gen_edge: str | None = None
    egress_bytes: int = 0
    peer_bytes: int = 0
    shield_bytes: int = 0
    origin_bytes: int = 0


class EdgeFleet:
    """N simulated edges behind one router, ring, and origin shield."""

    def __init__(
        self,
        catalog: OriginCatalog,
        config: FleetConfig,
        router: FleetRouter,
        ring: HashRing | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if config.edges <= 0:
            raise ValueError("fleet needs at least one edge")
        self.catalog = catalog
        self.config = config
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.ring = ring if ring is not None else HashRing(config.edge_names(), config.vnodes)
        self.router = router
        self.latency = router.latency
        self.edges: dict[str, SimEdge] = {
            name: SimEdge(name, config, self.registry) for name in self.ring.nodes
        }
        #: digest → in-flight lead; checked before any cache probe.
        self._flights: dict[str, _Flight] = {}
        #: Fleet-wide request ledger in cache-tier accounting terms.
        self.ledger = GenCacheStats()
        self.tier_counts: dict[str, int] = {tier: 0 for tier in TIERS}
        self.origin_media_pulls = 0
        self.origin_prompt_pulls = 0
        self.shield_coalesced = 0
        self.shield_prompt_hits = 0
        self._shield_prompts: set[str] = set()
        self._profiles: dict[str, _ItemProfile] = {}
        self._last_time_s = float("-inf")
        self.results_served = 0
        #: Bytes moved by channel and the requests that reached the
        #: origin: plain tallies the registry reads when it is scraped.
        self._moved = {"egress": 0, "peer": 0, "shield": 0, "origin": 0}
        self._origin_transfers = 0
        self.registry.source(self)
        #: The latency histogram per tier and the queue histogram, looked
        #: up in the registry on first use only.
        self._latency_histograms: dict[str, Histogram] = {}
        self._queue_histogram: Histogram | None = None

    # ------------------------------------------------------------------ #
    # Item cost model
    # ------------------------------------------------------------------ #

    def profile(self, key: str) -> _ItemProfile:
        """The item's digest and modelled generation cost (memoised)."""
        cached = self._profiles.get(key)
        if cached is not None:
            return cached
        item = self.catalog.get(key)
        gkey = image_key(
            self.config.model.name, item.prompt, item.width, item.height, steps=self.config.steps
        )
        seconds = self.config.steps * self.config.model.step_time(
            self.config.device, item.width, item.height
        )
        prof = _ItemProfile(
            item=item,
            gkey=gkey,
            digest=gkey.digest,
            gen_time_s=seconds,
            gen_energy_wh=self.config.device.image_energy_wh(seconds),
            prompt_bytes=item.prompt_bytes(),
        )
        self._profiles[key] = prof
        return prof

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #

    def serve(self, region: str, key: str, now_s: float) -> FleetServeResult:
        """Serve one open-loop arrival; must be called in tape order."""
        if now_s < self._last_time_s:
            raise ValueError(
                f"arrivals must be nondecreasing (got {now_s} after {self._last_time_s})"
            )
        self._last_time_s = now_s
        home = self.edges[self.router.home_edge(region)]
        user_rtt = self.router.user_rtt_s(region)
        prof = self.profile(key)
        media = prof.item.media_bytes

        # 1. Flight check FIRST (the cache-tier rule): a live lead means
        # the artifact is not ready yet, and this request parks on it —
        # counted coalesced, never a miss, never a premature cache hit.
        flight = self._flights.get(prof.digest)
        if flight is not None:
            if now_s < flight.done_s:
                flight.waiters += 1
                cross_edge = flight.edge != home.name
                result = FleetServeResult(
                    key=key,
                    region=region,
                    home_edge=home.name,
                    tier="coalesced",
                    latency_s=(flight.done_s - now_s)
                    + user_rtt
                    + (self.latency.peer_rtt_s if cross_edge else 0.0)
                    + HIT_LOOKUP_TIME_S,
                    egress_bytes=media,
                    peer_bytes=media if cross_edge else 0,
                )
                if flight.edge is None:
                    # Joined an origin pull the shield is collapsing.
                    self.shield_coalesced += 1
                    self.ledger.coalesced += 1
                else:
                    self.ledger.coalesced += 1
                    saved = max(0.0, prof.gen_time_s - HIT_LOOKUP_TIME_S)
                    self.ledger.saved_sim_seconds += saved
                    self.ledger.saved_energy_wh += prof.gen_energy_wh
                return self._finish(result)
            # The lead published before this arrival: the flight is over
            # and its artifact is in cache; fall through to the probes.
            del self._flights[prof.digest]

        # 2. Home-edge probe (uncounted peek; the ledger is the counter).
        if home.gencache.peek(prof.gkey, touch=True) is not None:
            self._record_hit(prof)
            return self._finish(
                FleetServeResult(
                    key=key,
                    region=region,
                    home_edge=home.name,
                    tier="edge",
                    latency_s=user_rtt + HIT_LOOKUP_TIME_S,
                    egress_bytes=media,
                )
            )

        # 3. Ring-owner probe: cross-edge peering before paying anything.
        owner = self.edges[self.ring.owner(prof.digest)]
        if owner.name != home.name and owner.gencache.peek(prof.gkey, touch=True) is not None:
            self._record_hit(prof)
            self._insert(home, prof)  # pull-through replica at the home edge
            return self._finish(
                FleetServeResult(
                    key=key,
                    region=region,
                    home_edge=home.name,
                    tier="peer",
                    latency_s=user_rtt + self.latency.peer_rtt_s + HIT_LOOKUP_TIME_S,
                    egress_bytes=media,
                    peer_bytes=media,
                )
            )

        # 4. Miss everywhere: this request leads.
        self.ledger.misses += 1
        backlog = {name: edge.backlog_s(now_s) for name, edge in self.edges.items()}
        site_name = self.ring.owner_bounded(prof.digest, backlog, self.config.max_backlog_s)
        if backlog[site_name] >= self.config.max_backlog_s:
            return self._finish(self._origin_pull(region, prof, home, now_s, user_rtt))
        return self._finish(self._generate(region, prof, home, self.edges[site_name], now_s, user_rtt))

    # ------------------------------------------------------------------ #
    # Lead paths
    # ------------------------------------------------------------------ #

    def _generate(
        self,
        region: str,
        prof: _ItemProfile,
        home: SimEdge,
        site: SimEdge,
        now_s: float,
        user_rtt: float,
    ) -> FleetServeResult:
        cross_edge = site.name != home.name
        prompt_latency, shield_bytes, origin_bytes = self._fetch_prompt(site, prof)
        ready = now_s + (self.latency.peer_rtt_s if cross_edge else 0.0) + prompt_latency
        done = site.occupy(ready, prof.gen_time_s)
        queue_s = done - ready - prof.gen_time_s
        site.generations += 1
        site.generation_sim_s += prof.gen_time_s
        self._flights[prof.digest] = _Flight(done_s=done, edge=site.name, item=prof)
        # The artifact lands at its canonical ring owner and the home
        # edge; inserts are safe pre-completion because the flight masks
        # every probe until ``done``.
        owner = self.edges[self.ring.owner(prof.digest)]
        for edge in {site.name, owner.name, home.name}:
            self._insert(self.edges[edge], prof)
        peer_bytes = prof.item.media_bytes if cross_edge else 0
        if owner.name not in (site.name, home.name):
            peer_bytes += prof.item.media_bytes  # ship the owner its copy
        return FleetServeResult(
            key=prof.item.key,
            region=region,
            home_edge=home.name,
            tier="generated",
            latency_s=(done - now_s) + user_rtt,
            queue_s=queue_s,
            gen_time_s=prof.gen_time_s,
            gen_energy_wh=prof.gen_energy_wh,
            gen_edge=site.name,
            egress_bytes=prof.item.media_bytes,
            peer_bytes=peer_bytes,
            shield_bytes=shield_bytes,
            origin_bytes=origin_bytes,
        )

    def _origin_pull(
        self,
        region: str,
        prof: _ItemProfile,
        home: SimEdge,
        now_s: float,
        user_rtt: float,
    ) -> FleetServeResult:
        """Generation capacity exhausted fleet-wide for this key's walk:
        pull the materialised media from the origin through the shield."""
        done = now_s + self.latency.shield_rtt_s + self.latency.origin_rtt_s
        self._flights[prof.digest] = _Flight(done_s=done, edge=None, item=prof)
        self.origin_media_pulls += 1
        self._insert(home, prof)  # pull-through: the home edge caches it
        media = prof.item.media_bytes
        return FleetServeResult(
            key=prof.item.key,
            region=region,
            home_edge=home.name,
            tier="origin",
            latency_s=(done - now_s) + user_rtt,
            egress_bytes=media,
            shield_bytes=media,
            origin_bytes=media,
        )

    def _fetch_prompt(self, site: SimEdge, prof: _ItemProfile) -> tuple[float, int, int]:
        """Prompt for a generation: edge cache → shield cache → origin.

        Returns ``(latency_s, shield_bytes, origin_bytes)``.
        """
        if site.prompts.get(prof.digest) is not None:
            return 0.0, 0, 0
        size = prof.prompt_bytes
        # try_put: a prompt larger than the whole cache just isn't kept.
        site.prompts.try_put(CacheEntry(prof.digest, size, kind="prompt"))
        if prof.digest in self._shield_prompts:
            self.shield_prompt_hits += 1
            return self.latency.shield_rtt_s, size, 0
        self._shield_prompts.add(prof.digest)
        self.origin_prompt_pulls += 1
        return self.latency.shield_rtt_s + self.latency.origin_rtt_s, size, size

    # ------------------------------------------------------------------ #
    # Accounting plumbing
    # ------------------------------------------------------------------ #

    def _record_hit(self, prof: _ItemProfile) -> None:
        self.ledger.hits += 1
        saved = max(0.0, prof.gen_time_s - HIT_LOOKUP_TIME_S)
        self.ledger.saved_sim_seconds += saved
        self.ledger.saved_energy_wh += prof.gen_energy_wh

    def _insert(self, edge: SimEdge, prof: _ItemProfile) -> None:
        """Cache the artifact at ``edge``, accounted at modelled media size
        (the §2.2 storage model; the sim never materialises pixels)."""
        edge.gencache.insert(
            prof.gkey,
            payload=b"",
            sim_time_s=prof.gen_time_s,
            energy_wh=prof.gen_energy_wh,
            size_bytes=prof.item.media_bytes,
        )

    def _finish(self, result: FleetServeResult) -> FleetServeResult:
        self.tier_counts[result.tier] += 1
        self.results_served += 1
        moved = self._moved
        moved["egress"] += result.egress_bytes
        moved["peer"] += result.peer_bytes
        moved["shield"] += result.shield_bytes
        if result.origin_bytes:
            moved["origin"] += result.origin_bytes
            self._origin_transfers += 1
        if self.registry.enabled:
            self._observe(result)
        return result

    def _observe(self, result: FleetServeResult) -> None:
        latency = self._latency_histograms.get(result.tier)
        if latency is None:
            latency = self._latency_histograms[result.tier] = self.registry.histogram(
                "cdn_fleet_latency_seconds",
                "User-perceived latency per fleet request, by serving tier",
                layer="cdn",
                operation=result.tier,
            )
        latency.observe(result.latency_s)
        if result.queue_s > 0:
            if self._queue_histogram is None:
                self._queue_histogram = self.registry.histogram(
                    "cdn_fleet_queue_seconds",
                    "Time spent queued behind other generations at an edge",
                    layer="cdn",
                )
            self._queue_histogram.observe(result.queue_s)

    def samples(self, out, _owner) -> None:
        """The fleet's tallies, when its registry is scraped."""
        for tier, count in self.tier_counts.items():
            out.counter(
                "cdn_fleet_requests_total", "Fleet requests, by serving tier", count, layer="cdn", operation=tier
            )
        out.counter(
            "cdn_fleet_origin_pulls_total", "Media/prompt transfers that reached the origin",
            self._origin_transfers, layer="cdn",
        )
        for channel, count in self._moved.items():
            out.counter(
                "cdn_fleet_bytes_total", "Bytes moved by the fleet, by channel", count, layer="cdn", operation=channel
            )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def debug_state(self, now_s: float | None = None) -> dict:
        """Topology + per-edge occupancy, for the CLI and tests."""
        now = now_s if now_s is not None else self._last_time_s
        return {
            "edges": {
                name: {
                    "backlog_s": round(edge.backlog_s(now), 6) if now > float("-inf") else 0.0,
                    "generations": edge.generations,
                    "generation_sim_s": round(edge.generation_sim_s, 6),
                    "gencache_entries": edge.gencache.entry_count,
                    "gencache_used_bytes": edge.gencache.used_bytes,
                    "prompt_entries": edge.prompts.entry_count,
                }
                for name, edge in sorted(self.edges.items())
            },
            "homes": self.router.homes(),
            "tiers": dict(self.tier_counts),
            "flights": len(self._flights),
            "origin_media_pulls": self.origin_media_pulls,
            "origin_prompt_pulls": self.origin_prompt_pulls,
            "shield_coalesced": self.shield_coalesced,
            "shield_prompt_hits": self.shield_prompt_hits,
        }


def build_fleet_catalog(
    items: int,
    media_bytes: int = 750_000,
    width: int = 256,
    height: int = 256,
    seed: object = "fleet-catalog",
) -> OriginCatalog:
    """A synthetic origin catalog of ``items`` prompt-addressable objects.

    Prompts vary by a stable suffix so every item has a distinct
    generation key; media size is the modelled JPEG-scale payload the
    §2.2 storage argument uses.
    """
    if items <= 0:
        raise ValueError("catalog needs at least one item")
    catalog = OriginCatalog()
    for i in range(items):
        catalog.add(
            CatalogItem(
                key=f"item-{i:04d}",
                prompt=f"stock media artwork {seed} variant {i:04d}",
                width=width,
                height=height,
                media_bytes=media_bytes,
            )
        )
    return catalog
