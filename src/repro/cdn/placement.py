"""Cache placement under backbone constraints (paper §7, Sustainability).

    "traffic reduction on the network provides more flexibility in cache
    placement, without breaching backbone traffic constraints. While the
    main limitation to cache location was often the latency to the user,
    in SWW the network latency is a minor problem."

Two placement layers live here:

* **Site planning** (:func:`plan_placement`): candidate cache sites sit
  at different depths of the network; deeper (closer-to-user) sites give
  lower latency but filling them consumes backbone capacity proportional
  to the catalog size shipped. A greedy planner picks the deepest
  feasible site per region; with prompt-sized catalogs, far more regions
  fit deep placements within the same backbone budget — the quantitative
  form of the paper's flexibility claim.
* **Key placement** (:class:`HashRing`): once a fleet of edges exists,
  each :class:`~repro.gencache.key.GenerationKey` digest needs a stable
  owner so cross-edge peering knows where a generated artifact lives.
  The ring hashes virtual nodes onto a circle (many points per edge so
  arcs even out) and assigns each key to the first point clockwise.
  Adding an edge to an ``N``-edge ring therefore moves only ~``1/(N+1)``
  of the keys — the property the fleet benchmark gates at ``≤ 2/N``.
  The bounded-load variant (Mirrokni et al.'s consistent hashing with
  bounded loads) walks past owners that are already at capacity, so one
  viral key cannot pin a whole region's generation demand to one edge.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro._util.hashing import stable_u64


@dataclass(frozen=True)
class CandidateSite:
    """A place a cache replica could go."""

    name: str
    region: str
    #: One-way user latency when served from this site, ms.
    user_latency_ms: float
    #: Backbone bytes consumed per byte of catalog placed here (deeper
    #: sites traverse more of the backbone to fill).
    fill_cost_factor: float


@dataclass
class PlacementProblem:
    """Inputs to the planner."""

    sites: list[CandidateSite]
    catalog_bytes: int
    #: Total backbone budget for replica fills, bytes.
    backbone_budget_bytes: int

    def regions(self) -> list[str]:
        seen: list[str] = []
        for site in self.sites:
            if site.region not in seen:
                seen.append(site.region)
        return seen


@dataclass
class PlacementResult:
    """Chosen site per region plus aggregate metrics."""

    chosen: dict[str, CandidateSite]
    backbone_bytes_used: int
    regions_unserved: list[str]

    @property
    def mean_latency_ms(self) -> float:
        if not self.chosen:
            return float("inf")
        return sum(site.user_latency_ms for site in self.chosen.values()) / len(self.chosen)

    @property
    def coverage(self) -> float:
        total = len(self.chosen) + len(self.regions_unserved)
        return len(self.chosen) / total if total else 0.0


def plan_placement(problem: PlacementProblem) -> PlacementResult:
    """Coverage-first placement, then deep upgrades, within the budget.

    Pass 1 gives every region its cheapest-fill site (typically a core
    site), so no budget is burned on depth while regions go unserved.
    Pass 2 spends the remaining budget upgrading regions to their
    lowest-latency affordable site, ordered by how much latency the
    upgrade buys (largest gap first).
    """
    if problem.catalog_bytes < 0 or problem.backbone_budget_bytes < 0:
        raise ValueError("sizes cannot be negative")
    by_region: dict[str, list[CandidateSite]] = {}
    for site in problem.sites:
        by_region.setdefault(site.region, []).append(site)
    for sites in by_region.values():
        sites.sort(key=lambda s: s.user_latency_ms)  # best (deepest) first

    def fill_cost(site: CandidateSite) -> int:
        return int(problem.catalog_bytes * site.fill_cost_factor)

    chosen: dict[str, CandidateSite] = {}
    unserved: list[str] = []
    budget = problem.backbone_budget_bytes

    # Pass 1: cover every region as cheaply as possible.
    for region, sites in by_region.items():
        cheapest = min(sites, key=fill_cost)
        if fill_cost(cheapest) <= budget:
            chosen[region] = cheapest
            budget -= fill_cost(cheapest)
        else:
            unserved.append(region)

    # Pass 2: upgrade toward low latency, biggest win first.
    def upgrade_gain(region: str) -> float:
        return chosen[region].user_latency_ms - by_region[region][0].user_latency_ms

    for region in sorted(chosen, key=upgrade_gain, reverse=True):
        current = chosen[region]
        for site in by_region[region]:
            if site.user_latency_ms >= current.user_latency_ms:
                break
            extra = fill_cost(site) - fill_cost(current)
            if extra <= budget:
                chosen[region] = site
                budget -= extra
                break

    used = problem.backbone_budget_bytes - budget
    return PlacementResult(chosen=chosen, backbone_bytes_used=used, regions_unserved=unserved)


#: Virtual nodes per physical edge. More points → more even arcs →
#: lower variance in both load split and rebalancing churn.
DEFAULT_VNODES = 128

#: Keys whose walk a ring remembers; one more and it starts over empty.
_WALK_MEMO_KEYS = 4096


class HashRing:
    """Consistent-hash ring with virtual nodes and a bounded-load walk.

    Nodes are plain strings (edge names). Every node contributes
    ``vnodes`` points to the circle, each at
    ``stable_u64("ring-point", node, i)`` — process-independent, so the
    same fleet always produces the same placement (the property that
    lets a router and a cache agree without talking). Keys map to the
    first point clockwise from ``stable_u64("ring-key", key)``. A key's
    walk depends only on membership, so it is derived once per key and
    forgotten whenever a node joins or leaves.
    """

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        self.vnodes = vnodes
        #: Sorted (point, node) pairs — the circle.
        self._points: list[tuple[int, str]] = []
        self._nodes: set[str] = set()
        #: key → all nodes in clockwise order from the key (bounded memo).
        self._walks: dict[str, list[str]] = {}
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        self._walks.clear()
        for i in range(self.vnodes):
            insort(self._points, (stable_u64("ring-point", node, i), node))

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            raise KeyError(f"node {node!r} not on the ring")
        self._nodes.discard(node)
        self._walks.clear()
        self._points = [(p, n) for p, n in self._points if n != node]

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def owner(self, key: str) -> str:
        """The node owning ``key``: first ring point clockwise."""
        return self.preference(key, 1)[0]

    def preference(self, key: str, k: int) -> list[str]:
        """The first ``k`` *distinct* nodes clockwise from ``key``.

        ``preference(key, 1)[0]`` is the owner; subsequent entries are the
        natural spill/replica targets (each key gets its own, roughly
        uniform, backup order — unlike a static "next edge" rule that
        would double the successor's load).
        """
        walk = self._walks.get(key)
        if walk is not None:
            return walk[: max(k, 0)]
        if not self._points:
            raise LookupError("hash ring is empty")
        # (h,) sorts before any (h, node) pair, so this lands on the first
        # ring point at or clockwise-after the key's position.
        start = bisect_right(self._points, (stable_u64("ring-key", key),))
        seen: list[str] = []
        for i in range(len(self._points)):
            node = self._points[(start + i) % len(self._points)][1]
            if node not in seen:
                seen.append(node)
                if len(seen) == len(self._nodes):
                    break
        if len(self._walks) >= _WALK_MEMO_KEYS:
            self._walks.clear()
        self._walks[key] = seen
        return seen[: max(k, 0)]

    def owner_bounded(
        self, key: str, load: Mapping[str, float], capacity: float
    ) -> str:
        """Bounded-load owner: first node on ``key``'s preference walk
        whose current ``load`` is below ``capacity``.

        Falls back to the least-loaded node on the walk when every node
        is at or over capacity (the work has to land somewhere); ties
        break toward ring order, so the choice is deterministic.
        """
        walk = self.preference(key, len(self._nodes))
        for node in walk:
            if load.get(node, 0.0) < capacity:
                return node
        return min(walk, key=lambda node: load.get(node, 0.0))


def moved_share(before: HashRing, after: HashRing, keys: Sequence[str]) -> float:
    """Fraction of ``keys`` whose owner differs between two rings.

    The consistent-hashing contract: growing an ``N``-node ring by one
    should move ~``1/(N+1)`` of the keys; anything near ``2/N`` means the
    ring is misbehaving (the fleet benchmark's rebalancing gate).
    """
    if not keys:
        return 0.0
    return sum(1 for key in keys if before.owner(key) != after.owner(key)) / len(keys)
