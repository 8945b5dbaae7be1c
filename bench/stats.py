"""Arithmetic shared by the benchmark: percentiles, the host calibration
score and span self-time.

Pure functions over plain numbers so ``bench/selftest.py`` can check them
on synthetic data without starting a server.
"""

from __future__ import annotations

import hashlib
import time
import zlib
from collections.abc import Sequence

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def host_score(rounds: int = 250) -> float:
    """Calibration loops per second on a fixed numpy + bytes workload.

    Mirrors what the system does all day — small-array float kernels,
    hashing, compression and bytes slicing — so a slower host scores
    proportionally lower. The best of ``rounds`` short rounds is the
    score: on a shared host single rounds read anywhere from 60 % to
    100 % of the ceiling from one millisecond to the next, interference
    only ever slows a round down, and only a disturbance that outlasts
    all the rounds (about a quarter of a second) moves the best.
    """
    rng = np.random.default_rng(12345)
    image = rng.random((192, 192), dtype=np.float32)
    payload = bytes(range(256)) * 256
    best = float("inf")
    for _ in range(rounds):
        begin = time.perf_counter()
        blurred = (image + np.roll(image, 1, axis=0) + np.roll(image, 1, axis=1)) / 3.0
        quantised = np.clip(blurred * 255.0, 0, 255).astype(np.uint8)
        packed = zlib.compress(quantised.tobytes(), 6)
        hashlib.sha256(packed).digest()
        view = memoryview(payload)
        buf = bytearray()
        for offset in range(0, len(payload), 256):
            buf += view[offset : offset + 256]
        best = min(best, time.perf_counter() - begin)
    return 1.0 / best


def union_length(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length covered by possibly-overlapping ``(start, end)`` pairs."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_time(start: float, end: float, children: Sequence[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval first (a task spawned
    under a span can outlive it) and overlapping children are counted
    once, so the result is never negative.
    """
    clipped = [(max(s, start), min(e, end)) for s, e in children if min(e, end) > max(s, start)]
    return (end - start) - union_length(clipped)
