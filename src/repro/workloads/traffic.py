"""Internet-scale traffic projection (paper §7).

    "Web browsing from mobile devices alone amounts for 2-3
    Exabytes/month. Reducing this number by approximately two orders of
    magnitude, as indicated in §6, will lower this number to tens of
    Petabytes/month."

:class:`TrafficModel` applies a measured page-level compression factor to
an aggregate traffic volume, splitting traffic into a compressible share
(media and generic text) and an incompressible remainder (unique content,
already-compressed streams). :func:`zipf_requests` turns a content
catalog into a concrete request-level stream with the skewed popularity
web traffic actually has, for cache/coalescing experiments.

For the geo-distributed fleet the closed-loop picture (N clients, each
waiting for its previous response) is wrong at population scale: real
users do not slow down because the edge is saturated — load keeps
arriving and queues grow. :func:`poisson_arrivals` produces a seeded
open-loop arrival process, and :func:`open_loop_requests` merges one
Poisson/Zipf stream per region (each region drawing from its own rotated
popularity ranking over a shared catalog, users sampled from populations
of millions) into a single time-ordered request tape for
:class:`~repro.cdn.fleet.EdgeFleet`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from heapq import merge
from typing import Sequence, TypeVar

from repro._util.hashing import stable_u64
from repro._util.rng import DeterministicRNG
from repro.devices.energy import EB, PB, transmission_energy_wh

_T = TypeVar("_T")

#: Telefónica / Tridens figures the paper cites (§7).
MOBILE_WEB_EB_PER_MONTH = (2.0, 3.0)


@dataclass(frozen=True)
class TrafficProjection:
    """Result of applying SWW compression to an aggregate volume."""

    original_bytes: float
    compressed_bytes: float
    compressible_share: float
    compression_factor: float

    @property
    def reduction_factor(self) -> float:
        return self.original_bytes / self.compressed_bytes if self.compressed_bytes else float("inf")

    @property
    def compressed_pb(self) -> float:
        return self.compressed_bytes / PB

    @property
    def monthly_energy_savings_mwh(self) -> float:
        """Transmission energy avoided per month at the 38 MWh/PB rate."""
        return transmission_energy_wh(self.original_bytes - self.compressed_bytes) / 1e6


class TrafficModel:
    """Aggregate web-traffic model with an SWW what-if operator."""

    def __init__(self, monthly_volume_eb: float = 2.5, compressible_share: float = 1.0) -> None:
        if monthly_volume_eb <= 0:
            raise ValueError("traffic volume must be positive")
        if not 0.0 <= compressible_share <= 1.0:
            raise ValueError("compressible share must be in [0, 1]")
        self.monthly_volume_eb = monthly_volume_eb
        self.compressible_share = compressible_share

    def project(self, compression_factor: float) -> TrafficProjection:
        """Apply a measured page compression factor to the monthly volume.

        The incompressible share (1 - compressible_share) travels
        unchanged; the rest shrinks by ``compression_factor``.
        """
        if compression_factor < 1.0:
            raise ValueError("compression factor below 1 would inflate traffic")
        original = self.monthly_volume_eb * EB
        compressible = original * self.compressible_share
        compressed = compressible / compression_factor + (original - compressible)
        return TrafficProjection(
            original_bytes=original,
            compressed_bytes=compressed,
            compressible_share=self.compressible_share,
            compression_factor=compression_factor,
        )


def zipf_requests(
    items: Sequence[_T],
    count: int,
    exponent: float = 1.1,
    seed: object = 0,
) -> list[_T]:
    """Draw a request stream over ``items`` with Zipf-like popularity.

    Item ``i`` (0-based rank) is requested with probability proportional
    to ``1 / (i + 1) ** exponent`` — the classic heavy-tailed popularity
    of web objects, which is what makes shared caches pay off. The
    stream is fully deterministic in ``(items rank order, count,
    exponent, seed)`` via :class:`DeterministicRNG`, so benchmarks replay
    identically across runs.
    """
    if count < 0:
        raise ValueError("request count must be non-negative")
    if not items and count:
        raise ValueError("cannot draw requests from an empty catalog")
    if exponent < 0:
        raise ValueError("Zipf exponent must be non-negative")
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(items))]
    cumulative: list[float] = []
    total = 0.0
    for w in weights:
        total += w
        cumulative.append(total)
    rng = DeterministicRNG("zipf-requests", seed, len(items), count, exponent)
    requests: list[_T] = []
    for _ in range(count):
        point = rng.random() * total
        # First rank whose cumulative weight exceeds the point.
        requests.append(items[min(bisect_right(cumulative, point), len(cumulative) - 1)])
    return requests


def poisson_arrivals(
    rate_per_s: float,
    duration_s: float,
    seed: object = 0,
    start_s: float = 0.0,
) -> list[float]:
    """Open-loop Poisson arrival times over ``[start_s, start_s + duration_s)``.

    Inter-arrival gaps are i.i.d. exponential with mean ``1/rate_per_s``
    (inverse-CDF over the :class:`DeterministicRNG` stream), so the
    sequence is fully determined by ``(rate, duration, seed, start)`` and
    replays identically across processes — the property the fleet
    benchmark and the pinned-sequence unit test rely on. Unlike a closed
    loop, nothing here waits for service: arrivals keep coming at the
    offered rate no matter how saturated the serving side is, which is
    what makes queueing delay visible at all.
    """
    if rate_per_s <= 0:
        raise ValueError("arrival rate must be positive")
    if duration_s < 0:
        raise ValueError("duration must be non-negative")
    rng = DeterministicRNG("poisson-arrivals", seed, rate_per_s, duration_s)
    arrivals: list[float] = []
    t = start_s
    end = start_s + duration_s
    while True:
        # max() guards log(0); 1-U keeps the draw in (0, 1].
        gap = -math.log(max(1.0 - rng.random(), 1e-300)) / rate_per_s
        t += gap
        if t >= end:
            return arrivals
        arrivals.append(t)


@dataclass(frozen=True)
class RegionSpec:
    """One geographic region's open-loop traffic profile."""

    name: str
    #: Simulated user population (drawn from uniformly per request —
    #: millions of distinct users, not N looping clients).
    users: int = 1_000_000
    #: Aggregate open-loop arrival rate for the region, requests/second.
    rate_per_s: float = 1.0
    #: Zipf popularity exponent for this region's catalog ranking.
    exponent: float = 1.1
    #: One-way user↔edge latency for users homed in this region, seconds.
    user_rtt_s: float = 0.016

    def __post_init__(self) -> None:
        if self.users <= 0:
            raise ValueError("region population must be positive")
        if self.rate_per_s <= 0:
            raise ValueError("region arrival rate must be positive")


@dataclass(frozen=True)
class OpenLoopRequest:
    """One arrival on the fleet's request tape."""

    time_s: float
    region: str
    user_id: int
    key: str


def default_regions(
    count: int,
    rate_per_s: float = 1.0,
    users: int = 1_000_000,
    exponent: float = 1.1,
) -> list[RegionSpec]:
    """``count`` regions with deterministic per-region RTT spread.

    RTTs span 8–40 ms (metro to intercontinental), seeded by region name
    so the set is stable as the fleet grows.
    """
    if count <= 0:
        raise ValueError("need at least one region")
    return [
        RegionSpec(
            name=f"region-{i:02d}",
            users=users,
            rate_per_s=rate_per_s,
            exponent=exponent,
            user_rtt_s=0.008 + 0.032 * (stable_u64("region-rtt", i) % 1000) / 1000.0,
        )
        for i in range(count)
    ]


def region_ranking(catalog: Sequence[str], region: str) -> list[str]:
    """The region's popularity ranking: the catalog rotated by a stable
    per-region offset.

    Every region sees the same global catalog but a different hot head —
    the cross-region diversity that makes one edge's cache a poor proxy
    for the whole planet, and cross-edge peering worth paying for.
    """
    if not catalog:
        return []
    offset = stable_u64("region-ranking", region) % len(catalog)
    return list(catalog[offset:]) + list(catalog[:offset])


def open_loop_requests(
    regions: Sequence[RegionSpec],
    catalog: Sequence[str],
    duration_s: float,
    seed: object = 0,
) -> list[OpenLoopRequest]:
    """The fleet's request tape: per-region Poisson/Zipf streams merged
    into one time-ordered list.

    Each region gets its own :func:`poisson_arrivals` process at its
    offered rate; each arrival draws a key from the region's rotated Zipf
    ranking and a user id uniformly from the region's population. All
    randomness flows through seeded :class:`DeterministicRNG` streams, so
    the tape is a pure function of ``(regions, catalog, duration, seed)``.
    """
    if not regions:
        raise ValueError("need at least one region")
    if not catalog:
        raise ValueError("cannot draw requests from an empty catalog")
    streams: list[list[OpenLoopRequest]] = []
    for spec in regions:
        arrivals = poisson_arrivals(spec.rate_per_s, duration_s, seed=(seed, spec.name))
        ranked = region_ranking(catalog, spec.name)
        keys = zipf_requests(
            ranked, len(arrivals), exponent=spec.exponent, seed=(seed, spec.name, "keys")
        )
        users = DeterministicRNG("open-loop-users", seed, spec.name, spec.users)
        streams.append(
            [
                OpenLoopRequest(
                    time_s=t,
                    region=spec.name,
                    user_id=users.randint(0, spec.users - 1),
                    key=key,
                )
                for t, key in zip(arrivals, keys)
            ]
        )
    return list(merge(*streams, key=lambda r: (r.time_s, r.region)))
