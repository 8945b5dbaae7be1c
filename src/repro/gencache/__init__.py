"""Content-addressed generation caching (``repro.gencache``).

The paper's own numbers make generation the bottleneck (Table 2: up to
~310 simulated seconds for ~20 kB of prompts), and §2.2 argues the result
should be amortised across users. This subsystem provides the two
pieces and every layer wires them the same way:

* :mod:`repro.gencache.key` — a stable content-addressed identity for a
  generation: ``(model, prompt, seed, steps, width×height, content-type)``;
* :mod:`repro.gencache.store` — a byte-accounted LRU memoising outputs
  together with the simulated cost they would have re-paid.

Warm-vs-cold rule: the cache is opt-in at every layer and a disabled
cache is byte-identical to the seed behaviour, so the paper's cold
reproduction numbers are never perturbed (docs/PERFORMANCE.md).
"""

from repro.gencache.key import GenerationKey, image_key, key_for_item, text_key
from repro.gencache.store import (
    DEFAULT_GENCACHE_BYTES,
    HIT_LOOKUP_TIME_S,
    CachedGeneration,
    GenCacheStats,
    GenerationCache,
)

__all__ = [
    "CachedGeneration",
    "DEFAULT_GENCACHE_BYTES",
    "GenCacheStats",
    "GenerationCache",
    "GenerationKey",
    "HIT_LOOKUP_TIME_S",
    "image_key",
    "key_for_item",
    "text_key",
]
