"""Browsing-session simulation: SWW economics across a whole visit.

Single-page numbers (Fig. 2, Table 2) understate two session-level
effects the system design cares about:

* the §4.1 preloaded pipeline is paid once per client, then amortised
  over every page of the session;
* the HTTP/2 connection (and its SETTINGS negotiation) is reused, so the
  SWW handshake cost is per-session, not per-page.

:class:`BrowsingSession` drives a generative client through a sequence of
page views over one connection and aggregates wire bytes, generation
time/energy, and the traditional-delivery counterfactual.

:class:`OpenLoopSession` is the fleet-scale counterpart: it replays the
open-loop per-region tape from
:func:`~repro.workloads.traffic.open_loop_requests` against an
:class:`~repro.cdn.fleet.EdgeFleet` (optionally for several passes, so
warm-cache behaviour can be measured the way the gencache benchmark
does) and aggregates per-tier latency percentiles, queueing delay, and
byte flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from repro.devices.energy import transmission_energy_wh
from repro.devices.profiles import DeviceProfile, LAPTOP
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.workloads.corpus import (
    CorpusPage,
    build_news_article,
    build_travel_blog,
    build_wikimedia_landscape_page,
    populate_traditional_assets,
)
from repro.workloads.traffic import OpenLoopRequest, RegionSpec, open_loop_requests

if TYPE_CHECKING:
    from repro.cdn.fleet import EdgeFleet, FleetServeResult


@dataclass
class PageView:
    """One page view's accounting."""

    path: str
    sww_wire_bytes: int
    traditional_bytes: int
    generation_s: float
    generation_wh: float


@dataclass
class SessionStats:
    """Aggregates for one browsing session."""

    views: list[PageView] = field(default_factory=list)
    pipeline_load_s: float = 0.0
    pipeline_load_wh: float = 0.0

    @property
    def pages(self) -> int:
        return len(self.views)

    @property
    def sww_bytes(self) -> int:
        return sum(v.sww_wire_bytes for v in self.views)

    @property
    def traditional_bytes(self) -> int:
        return sum(v.traditional_bytes for v in self.views)

    @property
    def wire_saving(self) -> float:
        return self.traditional_bytes / self.sww_bytes if self.sww_bytes else float("inf")

    @property
    def generation_s(self) -> float:
        return sum(v.generation_s for v in self.views)

    @property
    def generation_wh(self) -> float:
        return sum(v.generation_wh for v in self.views)

    @property
    def total_time_s(self) -> float:
        """Generation plus the one-time pipeline load."""
        return self.generation_s + self.pipeline_load_s

    def transmission_energy_saved_wh(self) -> float:
        """Network energy avoided by shipping prompts instead of media."""
        return transmission_energy_wh(self.traditional_bytes - self.sww_bytes)

    def net_energy_wh(self) -> float:
        """Client generation energy minus transmission energy avoided.

        Positive = the session cost more energy under SWW (the paper's
        present-day verdict); negative = SWW saved energy overall.
        """
        return (self.generation_wh + self.pipeline_load_wh) - self.transmission_energy_saved_wh()


def default_session_pages() -> list[CorpusPage]:
    """A representative visit: search results → blog post → news article."""
    return [build_wikimedia_landscape_page(), build_travel_blog(), build_news_article()]


class BrowsingSession:
    """Drives one client through a page sequence on a shared connection."""

    def __init__(
        self,
        pages: list[CorpusPage] | None = None,
        device: DeviceProfile = LAPTOP,
        server: GenerativeServer | None = None,
    ) -> None:
        self.pages = pages if pages is not None else default_session_pages()
        if not self.pages:
            raise ValueError("a session needs at least one page")
        if server is None:
            store = SiteStore()
            for page in self.pages:
                store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
                populate_traditional_assets(store, page)
            server = GenerativeServer(store)
        self.server = server
        self.client = GenerativeClient(device=device)

    def run(self) -> SessionStats:
        """Fetch every page once over a single negotiated connection."""
        stats = SessionStats(
            pipeline_load_s=self.client.pipeline.overhead_time_s,
            pipeline_load_wh=self.client.pipeline.overhead_energy_wh,
        )
        pair = connect_in_memory(self.client, self.server)
        by_path = {page.path: page for page in self.pages}
        for page in self.pages:
            result = self.client.fetch_via_pair(pair, page.path)
            traditional = by_path[page.path].account.original_total + len(
                by_path[page.path].traditional_html.encode("utf-8")
            )
            stats.views.append(
                PageView(
                    path=page.path,
                    sww_wire_bytes=result.wire_bytes,
                    traditional_bytes=traditional,
                    generation_s=result.generation_time_s,
                    generation_wh=result.generation_energy_wh,
                )
            )
        return stats


# --------------------------------------------------------------------- #
# Open-loop fleet replay
# --------------------------------------------------------------------- #


def latency_percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over raw observations (0 when empty).

    Exact over the sample, unlike the bucketed estimate the live
    timeseries plane uses — benchmarks gate on these, so they must not
    depend on histogram bucket boundaries.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


@dataclass
class TierStats:
    """One serving tier's latency/queue aggregates for a replay pass."""

    count: int = 0
    latencies: list[float] = field(default_factory=list)

    def observe(self, latency_s: float) -> None:
        self.count += 1
        self.latencies.append(latency_s)

    def p50(self) -> float:
        return latency_percentile(self.latencies, 0.50)

    def p99(self) -> float:
        return latency_percentile(self.latencies, 0.99)


@dataclass
class OpenLoopStats:
    """Aggregates for one pass of the open-loop tape over the fleet."""

    requests: int = 0
    tiers: dict[str, TierStats] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)
    queue_s: list[float] = field(default_factory=list)
    generation_sim_s: float = 0.0
    generation_energy_wh: float = 0.0
    egress_bytes: int = 0
    peer_bytes: int = 0
    shield_bytes: int = 0
    origin_bytes: int = 0

    def observe(self, result: FleetServeResult) -> None:
        self.requests += 1
        tier = self.tiers.get(result.tier)
        if tier is None:
            tier = self.tiers[result.tier] = TierStats()
        tier.observe(result.latency_s)
        self.latencies.append(result.latency_s)
        if result.queue_s > 0:
            self.queue_s.append(result.queue_s)
        self.generation_sim_s += result.gen_time_s
        self.generation_energy_wh += result.gen_energy_wh
        self.egress_bytes += result.egress_bytes
        self.peer_bytes += result.peer_bytes
        self.shield_bytes += result.shield_bytes
        self.origin_bytes += result.origin_bytes

    def tier_count(self, tier: str) -> int:
        stats = self.tiers.get(tier)
        return stats.count if stats else 0

    @property
    def fleet_hit_rate(self) -> float:
        """Share served without new origin or generation work (home +
        peer + coalesced), the benchmark's combined hit rate."""
        if not self.requests:
            return 0.0
        served = sum(self.tier_count(t) for t in ("edge", "peer", "coalesced"))
        return served / self.requests

    @property
    def origin_offload(self) -> float:
        """User egress bytes per origin byte — how much delivered traffic
        the fleet absorbs for each byte the origin still has to send."""
        return self.egress_bytes / self.origin_bytes if self.origin_bytes else float("inf")

    def p50(self) -> float:
        return latency_percentile(self.latencies, 0.50)

    def p99(self) -> float:
        return latency_percentile(self.latencies, 0.99)

    def mean_queue_s(self) -> float:
        return sum(self.queue_s) / len(self.queue_s) if self.queue_s else 0.0

    def summary(self) -> dict:
        """JSON-ready flat summary (what the CLI and benchmark print)."""
        offload = self.origin_offload
        return {
            "requests": self.requests,
            "fleet_hit_rate": round(self.fleet_hit_rate, 6),
            "origin_offload": None if offload == float("inf") else round(offload, 3),
            "p50_s": round(self.p50(), 6),
            "p99_s": round(self.p99(), 6),
            "mean_queue_s": round(self.mean_queue_s(), 6),
            "generation_sim_s": round(self.generation_sim_s, 3),
            "generation_energy_wh": round(self.generation_energy_wh, 6),
            "egress_bytes": self.egress_bytes,
            "peer_bytes": self.peer_bytes,
            "shield_bytes": self.shield_bytes,
            "origin_bytes": self.origin_bytes,
            "tiers": {
                tier: {
                    "count": stats.count,
                    "p50_s": round(stats.p50(), 6),
                    "p99_s": round(stats.p99(), 6),
                }
                for tier, stats in sorted(self.tiers.items())
            },
        }


class OpenLoopSession:
    """Replays the per-region open-loop tape against an edge fleet.

    One instance owns the workload definition (regions, catalog keys,
    duration, seed), read-only once constructed; each :meth:`run` replays
    the *same* key sequence shifted forward in simulated time, so pass 2
    measures warm-cache behaviour over an identical stream — the replay
    discipline the gencache warm benchmark established. The tape is a
    pure function of that definition, so it is drawn once, on first use.
    """

    def __init__(
        self,
        fleet: EdgeFleet,
        regions: Sequence[RegionSpec],
        duration_s: float,
        seed: object = 0,
    ) -> None:
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        self.fleet = fleet
        self._regions = tuple(regions)
        self._duration_s = duration_s
        self._seed = seed
        self._catalog_keys = sorted(fleet.catalog.items)
        self._passes = 0

    # What the memoised tape is a function of: readable, never assignable.
    regions = property(lambda self: self._regions)
    duration_s = property(lambda self: self._duration_s)
    seed = property(lambda self: self._seed)

    @cached_property
    def _base_tape(self) -> list[OpenLoopRequest]:
        return open_loop_requests(
            self._regions, self._catalog_keys, self._duration_s, seed=self._seed
        )

    def tape(self, start_s: float = 0.0) -> list[OpenLoopRequest]:
        """A fresh list of the pass's requests, shifted to start at ``start_s``."""
        if not start_s:
            return list(self._base_tape)
        return [
            OpenLoopRequest(
                time_s=r.time_s + start_s, region=r.region, user_id=r.user_id, key=r.key
            )
            for r in self._base_tape
        ]

    def run(self) -> OpenLoopStats:
        """Replay one pass; successive passes continue the fleet's clock."""
        stats = OpenLoopStats()
        start_s = self._passes * self._duration_s
        for req in self._base_tape:
            stats.observe(self.fleet.serve(req.region, req.key, req.time_s + start_s))
        self._passes += 1
        return stats
