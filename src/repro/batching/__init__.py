"""repro.batching — continuous micro-batching for the generation layer.

Real inference servers (Triton, vLLM) never run one request at a time
under load: requests from concurrent streams are admitted into a bounded
batching window and executed together, amortising the per-step cost of
the accelerator across the batch. This package reproduces that serving
pattern for the simulated diffusion pipeline, sitting under the client
page loop, the server materialisation fallback, and the CDN prompt-mode
edge (ROADMAP: "serves heavy traffic from millions of users, as fast as
the hardware allows").

:class:`BatchingEngine` groups compatible requests — same
``(model, device, steps, width×height, content-type)`` — inside a
``max_batch`` / ``max_wait`` window and executes each group as one
:func:`repro.genai.image.generate_image_batch` call, which renders every
item with the solo kernel. Simulated time models
GPU-style amortisation with the efficiency curve

    ``batch_time(B) = step_time × steps × (1 + α·(B−1)) / B``

where :data:`DEFAULT_ALPHA` is the marginal cost of an extra batch lane
(docs/PERFORMANCE.md documents the calibration). Per-item *bytes* are
unaffected: every batched output is byte-identical to the solo path, and
a batch of one is identical in simulated time and energy too, so the
cold Fig. 2 / Table 2 numbers never move.

The engine only batches: duplicate content keys coalesce before they
reach it, onto the media generator's flight (with a cache attached).
"""

from repro.batching.engine import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_WAIT_S,
    BatchingEngine,
    BatchSlot,
    EngineStats,
)
from repro.genai.image import batch_step_share

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_WAIT_S",
    "BatchingEngine",
    "BatchSlot",
    "EngineStats",
    "batch_step_share",
]
