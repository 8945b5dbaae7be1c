"""Fleet scaling benchmark — the PR-9 geo-distributed edge fleet headline.

The same open-loop workload — 16 regions of a million simulated users
each, every region a Poisson arrival process over its own rotated Zipf
ranking of a shared 240-item catalog — hits fleets of 1, 4 and 16 edges.
Per-edge generation-cache capacity stays fixed (32 artifacts' worth), so
a single edge holds ~13% of the catalog and thrashes, while the 16-edge
ring's aggregate capacity covers the working set *because* consistent
hashing partitions ownership instead of replicating everywhere.

Each fleet replays the identical tape twice (the gencache warm-replay
discipline); the warm pass is the measured row. Gates (asserted here;
``BENCH_fleet.json`` records the numbers):

* combined edge+peer+coalesced hit rate ≥ 80% at fleet size 16;
* origin traffic at fleet 16 at most 1/5 of the single edge's (≥ 5×
  origin offload);
* warm p99 latency at fleet 16 no worse than the single edge's;
* adding a 17th edge moves ≤ 2/16 of the keyspace (the consistent-
  hashing rebalance contract).

The simulation is a discrete-event replay over deterministic seeded
streams — every number here is reproducible bit-for-bit across runs.
"""

from _shared import print_table, record_bench

from repro.cdn.fleet import EdgeFleet, FleetConfig, build_fleet_catalog
from repro.cdn.placement import HashRing, moved_share
from repro.cdn.router import FleetRouter
from repro.workloads.session import OpenLoopSession
from repro.workloads.traffic import default_regions

FLEET_SIZES = (1, 4, 16)
REGIONS = 16
RATE_PER_S = 2.0
DURATION_S = 120.0
CATALOG_ITEMS = 240
MEDIA_BYTES = 750_000
GENCACHE_ITEMS = 32  # per-edge capacity, in artifacts
SEED = 11

HIT_RATE_GATE = 0.80
OFFLOAD_GATE = 5.0
REBALANCE_KEYS = 10_000


def run_fleet(edges: int):
    """Cold + warm pass of the shared tape over an ``edges``-edge fleet."""
    config = FleetConfig(edges=edges, gencache_bytes=GENCACHE_ITEMS * MEDIA_BYTES)
    catalog = build_fleet_catalog(CATALOG_ITEMS, media_bytes=MEDIA_BYTES)
    ring = HashRing(config.edge_names(), config.vnodes)
    regions = default_regions(REGIONS, rate_per_s=RATE_PER_S)
    router = FleetRouter(regions, ring)
    fleet = EdgeFleet(catalog, config, router, ring=ring)
    session = OpenLoopSession(fleet, regions, DURATION_S, seed=SEED)
    cold = session.run()
    warm = session.run()
    return {"fleet": fleet, "cold": cold, "warm": warm}


def rebalance_share() -> float:
    """Keyspace fraction that moves when edge 17 joins the 16-edge ring."""
    keys = [f"digest-{i:05d}" for i in range(REBALANCE_KEYS)]
    before = HashRing([f"edge-{i:02d}" for i in range(16)])
    after = HashRing([f"edge-{i:02d}" for i in range(17)])
    return moved_share(before, after, keys)


def run_all():
    return {edges: run_fleet(edges) for edges in FLEET_SIZES}, rebalance_share()


def test_fleet_scaling(benchmark):
    results, moved = benchmark.pedantic(run_all, rounds=1, iterations=1)

    warm = {edges: results[edges]["warm"] for edges in FLEET_SIZES}
    single, full = warm[1], warm[16]
    # Origin offload vs a single edge: how many times less origin traffic
    # the full fleet causes on the identical warm workload.
    offload_vs_single = single.origin_bytes / max(full.origin_bytes, 1)

    print_table(
        f"Edge fleet scaling: {REGIONS} regions x {RATE_PER_S:.0f} req/s, "
        f"{DURATION_S:.0f} s tape, warm pass, {GENCACHE_ITEMS}-artifact caches",
        ["metric"] + [f"{edges} edge{'s' if edges > 1 else ''}" for edges in FLEET_SIZES],
        [
            ["requests"] + [f"{warm[e].requests:,}" for e in FLEET_SIZES],
            ["fleet hit rate"] + [f"{100 * warm[e].fleet_hit_rate:.1f}%" for e in FLEET_SIZES],
            ["  edge tier"] + [f"{warm[e].tier_count('edge'):,}" for e in FLEET_SIZES],
            ["  peer tier"] + [f"{warm[e].tier_count('peer'):,}" for e in FLEET_SIZES],
            ["  coalesced"] + [f"{warm[e].tier_count('coalesced'):,}" for e in FLEET_SIZES],
            ["  generated"] + [f"{warm[e].tier_count('generated'):,}" for e in FLEET_SIZES],
            ["  origin"] + [f"{warm[e].tier_count('origin'):,}" for e in FLEET_SIZES],
            ["p50 latency"] + [f"{warm[e].p50() * 1000:.1f} ms" for e in FLEET_SIZES],
            ["p99 latency"] + [f"{warm[e].p99() * 1000:.1f} ms" for e in FLEET_SIZES],
            ["mean queue"] + [f"{warm[e].mean_queue_s() * 1000:.0f} ms" for e in FLEET_SIZES],
            ["origin bytes"] + [f"{warm[e].origin_bytes:,}" for e in FLEET_SIZES],
            ["generation (sim)"] + [f"{warm[e].generation_sim_s:.0f} s" for e in FLEET_SIZES],
        ],
    )
    print(f"\nring rebalance: adding edge 17 moves {100 * moved:.2f}% of "
          f"{REBALANCE_KEYS:,} keys (bound {100 * 2 / 16:.2f}%)")

    # Shape: more edges must monotonically improve the warm hit rate.
    assert warm[1].fleet_hit_rate < warm[4].fleet_hit_rate < warm[16].fleet_hit_rate
    # The single edge must actually be capacity-starved for the
    # comparison to mean anything (~13% of the catalog fits).
    assert warm[1].fleet_hit_rate < 0.5
    # Peering only exists with >1 edge, and must carry real traffic.
    assert warm[1].tier_count("peer") == 0
    assert warm[16].tier_count("peer") > 0

    # The gates.
    assert full.fleet_hit_rate >= HIT_RATE_GATE, (
        f"fleet-16 combined hit rate {full.fleet_hit_rate:.3f} below {HIT_RATE_GATE}"
    )
    assert offload_vs_single >= OFFLOAD_GATE, (
        f"origin offload {offload_vs_single:.2f}x below {OFFLOAD_GATE}x"
    )
    assert full.p99() <= single.p99(), (
        f"fleet-16 p99 {full.p99():.3f}s worse than single edge {single.p99():.3f}s"
    )
    assert moved <= 2 / 16, f"rebalance moved {moved:.4f} of keys, bound {2 / 16:.4f}"

    for edges in FLEET_SIZES:
        stats = warm[edges]
        state = results[edges]["fleet"].debug_state()
        record_bench(
            "fleet",
            f"edges_{edges}",
            requests=stats.requests,
            fleet_hit_rate=round(stats.fleet_hit_rate, 6),
            tier_edge=stats.tier_count("edge"),
            tier_peer=stats.tier_count("peer"),
            tier_coalesced=stats.tier_count("coalesced"),
            tier_generated=stats.tier_count("generated"),
            tier_origin=stats.tier_count("origin"),
            latency_p50_s=round(stats.p50(), 6),
            latency_p99_s=round(stats.p99(), 6),
            mean_queue_s=round(stats.mean_queue_s(), 6),
            egress_bytes=stats.egress_bytes,
            peer_bytes=stats.peer_bytes,
            origin_bytes=stats.origin_bytes,
            generation_sim_s=round(stats.generation_sim_s, 3),
            shield_coalesced=state["shield_coalesced"],
            cold_hit_rate=round(results[edges]["cold"].fleet_hit_rate, 6),
        )
    record_bench(
        "fleet",
        "summary",
        origin_offload_vs_single=round(min(offload_vs_single, 1e9), 3),
        hit_rate_gate=HIT_RATE_GATE,
        offload_gate=OFFLOAD_GATE,
        rebalance_moved_share=round(moved, 6),
        rebalance_bound=round(2 / 16, 6),
        regions=REGIONS,
        rate_per_s=RATE_PER_S,
        duration_s=DURATION_S,
        catalog_items=CATALOG_ITEMS,
        gencache_items_per_edge=GENCACHE_ITEMS,
        seed=SEED,
    )
