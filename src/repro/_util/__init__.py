"""Shared low-level utilities: stable hashing and a deterministic RNG.

Everything in the simulation must be deterministic: pixels, prose, timing
jitter and arena outcomes are all derived from stable hashes rather than
process-level randomness, so every test and benchmark reproduces bit-for-bit.
"""

from repro._util.hashing import stable_hash, stable_u64, stable_unit
from repro._util.rng import DeterministicRNG

__all__ = [
    "stable_hash",
    "stable_u64",
    "stable_unit",
    "DeterministicRNG",
]
