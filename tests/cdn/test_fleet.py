"""Tests for the geo-distributed edge fleet and its request router."""

import pytest

from repro.cdn.fleet import TIERS, EdgeFleet, FleetConfig, build_fleet_catalog
from repro.cdn.placement import HashRing
from repro.cdn.router import FleetRouter, LatencyModel
from repro.gencache.store import HIT_LOOKUP_TIME_S
from repro.obs import MetricsRegistry
from repro.workloads.session import OpenLoopSession
from repro.workloads.traffic import RegionSpec, default_regions


def make_fleet(edges=3, regions=2, items=12, **config_kwargs):
    config = FleetConfig(edges=edges, **config_kwargs)
    ring = HashRing(config.edge_names(), config.vnodes)
    specs = [RegionSpec(name=f"r{i}", user_rtt_s=0.010) for i in range(regions)]
    router = FleetRouter(specs, ring)
    fleet = EdgeFleet(build_fleet_catalog(items), config, router, ring=ring)
    return fleet, router


def key_owned_by_home(fleet, router, region):
    """A catalog key whose ring owner is the region's home edge."""
    home = router.home_edge(region)
    for key in sorted(fleet.catalog.items):
        if fleet.ring.owner(fleet.profile(key).digest) == home:
            return key
    raise AssertionError("no key owned by the home edge in this catalog")


def key_owned_elsewhere(fleet, router, region):
    """A catalog key whose ring owner is NOT the region's home edge."""
    home = router.home_edge(region)
    for key in sorted(fleet.catalog.items):
        if fleet.ring.owner(fleet.profile(key).digest) != home:
            return key
    raise AssertionError("no key owned away from the home edge")


class TestRouter:
    def test_home_edges_stable_and_on_ring(self):
        fleet, router = make_fleet(edges=4, regions=6)
        for i in range(6):
            assert router.home_edge(f"r{i}") in fleet.ring.nodes

    def test_homes_covers_every_region_once(self):
        _, router = make_fleet(edges=4, regions=6)
        homed = [r for regions in router.homes().values() for r in regions]
        assert sorted(homed) == [f"r{i}" for i in range(6)]

    def test_unknown_region_raises(self):
        _, router = make_fleet()
        with pytest.raises(KeyError):
            router.home_edge("nowhere")
        with pytest.raises(KeyError):
            router.region("nowhere")

    def test_validation(self):
        ring = HashRing(["edge-a"])
        with pytest.raises(ValueError):
            FleetRouter([], ring)
        with pytest.raises(LookupError):
            FleetRouter([RegionSpec(name="r0")], HashRing())

    def test_user_rtt_comes_from_region_spec(self):
        _, router = make_fleet()
        assert router.user_rtt_s("r0") == pytest.approx(0.010)


class TestServeTiers:
    def test_cold_miss_generates_at_ring_owner(self):
        fleet, router = make_fleet()
        key = key_owned_by_home(fleet, router, "r0")
        result = fleet.serve("r0", key, 0.0)
        assert result.tier == "generated"
        assert result.gen_edge == fleet.ring.owner(fleet.profile(key).digest)
        assert result.queue_s == pytest.approx(0.0)
        assert result.gen_time_s > 0
        assert fleet.ledger.misses == 1

    def test_warm_repeat_is_home_edge_hit(self):
        fleet, router = make_fleet()
        key = key_owned_by_home(fleet, router, "r0")
        first = fleet.serve("r0", key, 0.0)
        later = first.latency_s + 1.0
        second = fleet.serve("r0", key, later)
        assert second.tier == "edge"
        assert second.latency_s == pytest.approx(0.010 + HIT_LOOKUP_TIME_S)
        assert second.origin_bytes == 0 and second.peer_bytes == 0
        assert fleet.ledger.hits == 1

    def test_peek_probes_leave_edge_cache_stats_untouched(self):
        """Fleet accounting lives in the fleet ledger; the per-edge
        GenerationCache hit/miss counters must stay zero (the
        double-counting the cache-tier protocol forbids)."""
        fleet, router = make_fleet()
        key = key_owned_by_home(fleet, router, "r0")
        fleet.serve("r0", key, 0.0)
        fleet.serve("r0", key, 10.0)
        for edge in fleet.edges.values():
            assert edge.gencache.stats.hits == 0
            assert edge.gencache.stats.misses == 0

    def test_cross_edge_peer_hit_and_pull_through(self):
        fleet, router = make_fleet(edges=3, regions=3)
        # A region whose home is NOT the key's ring owner sees a peer hit.
        region = "r0"
        key = key_owned_elsewhere(fleet, router, region)
        owner = fleet.ring.owner(fleet.profile(key).digest)
        # Generate via whichever region homes at the owner (or any other
        # region; generation always lands a copy at the ring owner).
        fleet.serve("r1", key, 0.0)
        result = fleet.serve(region, key, 10.0)
        home = router.home_edge(region)
        if home == router.home_edge("r1"):
            assert result.tier == "edge"
        else:
            assert result.tier == "peer"
            assert result.peer_bytes == result.egress_bytes > 0
            assert owner != home
            # Pull-through replica: next fetch from the same region is local.
            third = fleet.serve(region, key, 20.0)
            assert third.tier == "edge"
        # One outcome per request, never a miss recorded for the probes.
        ledger = fleet.ledger
        assert ledger.hits + ledger.misses + ledger.coalesced == fleet.results_served

    def test_concurrent_same_key_coalesces_on_flight(self):
        fleet, router = make_fleet()
        key = key_owned_by_home(fleet, router, "r0")
        lead = fleet.serve("r0", key, 0.0)
        parked = fleet.serve("r0", key, 0.01)
        assert lead.tier == "generated"
        assert parked.tier == "coalesced"
        # The waiter pays the remaining flight time, not a fresh generation.
        assert parked.latency_s < lead.latency_s
        assert fleet.ledger.coalesced == 1
        assert fleet.ledger.misses == 1  # only the lead
        assert sum(e.generations for e in fleet.edges.values()) == 1

    def test_flight_expiry_falls_through_to_cache(self):
        fleet, router = make_fleet()
        key = key_owned_by_home(fleet, router, "r0")
        lead = fleet.serve("r0", key, 0.0)
        after = fleet.serve("r0", key, lead.latency_s + 5.0)
        assert after.tier == "edge"

    def test_arrivals_must_be_nondecreasing(self):
        fleet, router = make_fleet()
        key = sorted(fleet.catalog.items)[0]
        fleet.serve("r0", key, 5.0)
        with pytest.raises(ValueError):
            fleet.serve("r0", key, 4.0)


class TestOriginShield:
    def saturated_fleet(self):
        """A single-edge fleet whose one generation lane is busy enough
        that the next miss exceeds max_backlog_s."""
        fleet, router = make_fleet(
            edges=1, regions=1, items=12, gen_lanes=1, max_backlog_s=0.9
        )
        keys = sorted(fleet.catalog.items)
        first = fleet.serve("r0", keys[0], 0.0)
        assert first.tier == "generated"  # ~0.98 s of backlog > 0.9 cap
        return fleet, keys

    def test_saturation_falls_back_to_origin_media(self):
        fleet, keys = self.saturated_fleet()
        result = fleet.serve("r0", keys[1], 0.01)
        assert result.tier == "origin"
        assert result.origin_bytes == result.egress_bytes > 0
        assert fleet.origin_media_pulls == 1
        latency = fleet.latency.shield_rtt_s + fleet.latency.origin_rtt_s
        assert result.latency_s == pytest.approx(latency + 0.010)

    def test_shield_collapses_concurrent_pulls(self):
        fleet, keys = self.saturated_fleet()
        fleet.serve("r0", keys[1], 0.01)
        joined = fleet.serve("r0", keys[1], 0.02)  # pull still in flight
        assert joined.tier == "coalesced"
        assert joined.origin_bytes == 0  # one origin transfer, not two
        assert fleet.origin_media_pulls == 1
        assert fleet.shield_coalesced == 1

    def test_origin_pull_is_cached_at_home(self):
        fleet, keys = self.saturated_fleet()
        pull = fleet.serve("r0", keys[1], 0.01)
        again = fleet.serve("r0", keys[1], pull.latency_s + 1.0)
        assert again.tier == "edge"

    def test_prompt_pulls_hit_shield_cache_after_first(self):
        fleet, router = make_fleet(edges=2, regions=2, prompt_cache_bytes=64)
        key = sorted(fleet.catalog.items)[0]
        fleet.serve("r0", key, 0.0)
        assert fleet.origin_prompt_pulls == 1
        # Tiny per-edge prompt cache forces a refetch; the shield absorbs it.
        edge = fleet.edges[router.home_edge("r0")]
        edge.prompts.clear()
        fleet._fetch_prompt(edge, fleet.profile(key))
        assert fleet.origin_prompt_pulls == 1
        assert fleet.shield_prompt_hits == 1


class TestAccountingInvariants:
    def test_one_outcome_per_request(self):
        fleet, router = make_fleet(edges=2, regions=3, items=10)
        t = 0.0
        keys = sorted(fleet.catalog.items)
        for i in range(60):
            fleet.serve(f"r{i % 3}", keys[(i * 7) % len(keys)], t)
            t += 0.05
        assert fleet.results_served == 60
        assert sum(fleet.tier_counts.values()) == 60
        ledger = fleet.ledger
        assert ledger.hits + ledger.misses + ledger.coalesced == 60

    def test_debug_state_shape(self):
        fleet, router = make_fleet()
        key = sorted(fleet.catalog.items)[0]
        fleet.serve("r0", key, 0.0)
        state = fleet.debug_state()
        assert set(state["edges"]) == set(fleet.ring.nodes)
        assert state["tiers"]["generated"] == 1
        assert state["flights"] == 1


class TestFleetMetrics:
    def test_live_registry_agrees_with_the_replay(self):
        """The cdn_fleet_* families, fed by a short open-loop tape, count
        what the session's own aggregates count."""
        registry = MetricsRegistry()
        config = FleetConfig(edges=4, gencache_bytes=16 * 750_000)
        ring = HashRing(config.edge_names(), config.vnodes)
        regions = default_regions(4, rate_per_s=2.0)
        fleet = EdgeFleet(
            build_fleet_catalog(40), config, FleetRouter(regions, ring), ring=ring, registry=registry
        )
        stats = OpenLoopSession(fleet, regions, 20.0, seed=5).run()
        assert stats.requests > 0
        assert registry.total("cdn_fleet_requests_total") == stats.requests
        families = {name: instruments for name, _kind, _help, instruments in registry.collect()}
        tiers = {dict(inst.labels)["operation"] for inst in families["cdn_fleet_requests_total"]}
        assert tiers <= set(TIERS)
        for channel, total in (
            ("egress", stats.egress_bytes),
            ("peer", stats.peer_bytes),
            ("shield", stats.shield_bytes),
            ("origin", stats.origin_bytes),
        ):
            assert registry.value("cdn_fleet_bytes_total", layer="cdn", operation=channel) == total


class TestConfigAndCatalog:
    def test_edge_names(self):
        assert FleetConfig(edges=2).edge_names() == ["edge-00", "edge-01"]

    def test_fleet_requires_edges(self):
        config = FleetConfig(edges=0)
        with pytest.raises(ValueError):
            EdgeFleet(
                build_fleet_catalog(2),
                config,
                FleetRouter([RegionSpec(name="r0")], HashRing(["edge-00"])),
            )

    def test_catalog_items_distinct_and_sized(self):
        catalog = build_fleet_catalog(5, media_bytes=1000)
        assert len(catalog.items) == 5
        prompts = {item.prompt for item in catalog.items.values()}
        assert len(prompts) == 5
        assert catalog.total_media_bytes() == 5000

    def test_catalog_validation(self):
        with pytest.raises(ValueError):
            build_fleet_catalog(0)

    def test_latency_model_defaults(self):
        latency = LatencyModel()
        assert latency.peer_rtt_s < latency.shield_rtt_s < latency.origin_rtt_s
