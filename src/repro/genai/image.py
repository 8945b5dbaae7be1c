"""The latent-diffusion simulator.

What the real pipeline does: encode the prompt, run N denoising steps in a
latent space, decode to pixels. What this simulator preserves:

* **prompt → content**: the prompt's embedding, perturbed by
  model-dependent noise, becomes the image's *content vector*, rendered
  into the pixels so that a CLIP-style metric can recover it
  (:mod:`repro.genai.embeddings`). Higher-fidelity models add less noise,
  which is what separates SD 2.1 from SD 3/3.5 from DALL·E 3 in Table 1.
* **steps → time and quality**: generation time is
  ``steps × step_time(model, device, resolution)``; more steps slightly
  reduce residual noise (the paper: "only minor changes to CLIP score" as
  steps scale from 10 to 60).
* **resolution → time**: per-device resolution curves from
  :mod:`repro.devices.profiles`, including the laptop's 1024² blow-up.
* **device → energy**: power draw integrated over simulated time.

Every output is a real image: an (H, W, 3) uint8 array encodable to PNG.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro._util.hashing import stable_u64
from repro.devices.profiles import DeviceProfile
from repro.genai.embeddings import EMBED_DIM, GRID, embed_vector_to_blocks, text_embedding
from repro.media.png import encode_png
from repro.obs import NULL_REGISTRY, NULL_TRACER, MetricsRegistry, Tracer

DEFAULT_STEPS = 15  # Table 1 evaluates at 15 inference steps

#: Upper bound on the encode pool; below it the pool has one thread per
#: CPU, since zlib releases the GIL and more threads than cores only queue.
_ENCODE_POOL_CAP = 8
_encode_pool: ThreadPoolExecutor | None = None
_encode_pool_lock = threading.Lock()


def _forget_encode_pool() -> None:
    """Post-fork, in the child: the parent's pool threads did not survive
    ``fork()``, and the lock may have been held by one of them."""
    global _encode_pool, _encode_pool_lock
    _encode_pool = None
    _encode_pool_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_encode_pool)


def encode_png_async(pixels: np.ndarray) -> Future[bytes]:
    """Start ``encode_png(pixels)`` on the process-wide encode pool.

    Every deferred PNG encode in the process goes through here: the pool
    is created on first use, owned by this module, never closed (idle
    threads cost nothing and exit with the interpreter) and shared by all
    generators and engines. The encode runs in a copy of the caller's
    context, and ``Future.result()`` re-raises whatever it raised.
    """
    global _encode_pool
    with _encode_pool_lock:
        if _encode_pool is None:
            _encode_pool = ThreadPoolExecutor(
                max_workers=min(_ENCODE_POOL_CAP, os.cpu_count() or 1),
                thread_name_prefix="png-encode",
            )
        pool = _encode_pool
    return pool.submit(contextvars.copy_context().run, encode_png, pixels)


@dataclass(frozen=True)
class ImageModel:
    """A text-to-image model profile.

    ``fidelity`` is the target cosine alignment between the prompt
    embedding and the generated content vector at the reference step count;
    it is calibrated so the CLIP-sim scores land on Table 1 (DESIGN.md §5).
    ``arena_quality`` is the latent strength used by the simulated
    preference arena that produces ELO ratings.
    """

    name: str
    fidelity: float
    arena_quality: float
    #: Seconds per denoising step at 224×224, keyed by device name (Table 1).
    step_time_224: dict[str, float] = field(default_factory=dict)
    #: Models run provider-side (DALL·E 3) have no on-device step times.
    server_only: bool = False
    default_steps: int = DEFAULT_STEPS

    def step_time(self, device: DeviceProfile, width: int, height: int) -> float:
        """Seconds per step on ``device`` at the given resolution."""
        reference = self.step_time_224.get(device.name)
        if reference is None and "-" in device.name:
            # Projected future devices (repro.devices.future) keep their
            # base device's timing profile key: "laptop-future" → "laptop".
            reference = self.step_time_224.get(device.name.split("-")[0])
        if reference is None:
            raise ValueError(
                f"model {self.name!r} has no timing profile for device {device.name!r}"
                + (" (server-only model)" if self.server_only else "")
            )
        return device.image_step_time(reference, width, height)

    def effective_fidelity(self, steps: int) -> float:
        """Fidelity after ``steps`` denoising steps.

        Converges quickly: below ~8 steps quality degrades noticeably, and
        past the reference count the gain is marginal (the paper's §6.3.1
        observation).
        """
        if steps <= 0:
            raise ValueError("steps must be positive")
        ramp = 1.0 - 0.5 * np.exp(-steps / 5.0)
        return float(np.clip(self.fidelity * ramp / (1.0 - 0.5 * np.exp(-DEFAULT_STEPS / 5.0)), 0.0, 0.99))


@dataclass
class ImageResult:
    """Output of a simulated generation."""

    pixels: np.ndarray
    prompt: str
    model: str
    device: str
    steps: int
    width: int
    height: int
    sim_time_s: float
    energy_wh: float

    _png_future: Future | None = field(default=None, repr=False, compare=False)
    _png_lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def png_future(self) -> Future[bytes]:
        """Start the PNG encode on the shared pool; returns its future.

        Thread-safe and idempotent: every caller gets the same future, so
        there is exactly one encode per result however many consumers
        (page processors, the batching dispatcher, edges) ask for it.
        """
        with self._png_lock:
            if self._png_future is None:
                self._png_future = encode_png_async(self.pixels)
            return self._png_future


def _content_vector(prompt: str, fidelity: float, seed: int) -> np.ndarray:
    """Mix the prompt embedding with model noise at the target cosine.

    For unit vectors e (prompt) and n (orthogonalised noise), the mixture
    ``f·e + sqrt(1-f²)·n`` has cosine exactly ``f`` with ``e``.
    """
    prompt_vec = text_embedding(prompt)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(EMBED_DIM)
    if np.linalg.norm(prompt_vec) == 0:
        out = noise
    else:
        noise -= np.dot(noise, prompt_vec) * prompt_vec  # orthogonalise
        noise /= np.linalg.norm(noise)
        out = fidelity * prompt_vec + np.sqrt(max(0.0, 1.0 - fidelity**2)) * noise
    norm = np.linalg.norm(out)
    return out / norm if norm else out


def render_content(vector: np.ndarray, width: int, height: int, seed: int) -> np.ndarray:
    """Render a content vector into an (H, W, 3) image, H and W ≥ GRID.

    The red channel carries the vector as per-block means (recoverable by
    :func:`repro.genai.embeddings.image_embedding`); green and blue carry
    decorative gradients and mean-preserving texture so the output looks
    like an image rather than a barcode.

    Everything is written into the one output array: a wash is one column
    or one row broadcast, and the texture is added to the block plane in
    place, through a view of the draw by block row. The draw fixes the
    bytes, so its generator, shape, dtype and call order do not change; it
    is the kernel's floor.
    """
    plane = embed_vector_to_blocks(vector)  # (GRID, GRID) uint8
    bh = max(1, height // GRID)
    bw = max(1, width // GRID)
    gh, gw = GRID * bh, GRID * bw
    out = np.empty((height, width, 3), dtype=np.uint8)

    rng = np.random.default_rng(seed ^ 0x5EED)
    ys = np.linspace(0, 2 * np.pi, height)
    xs = np.linspace(0, 2 * np.pi, width)
    phase_y, phase_x = rng.uniform(0, 2 * np.pi, 2)
    # Smooth low-frequency washes: cheap to compress, decorative to look at.
    out[:, :, 1] = (127.5 * (1 + np.sin(ys * rng.integers(1, 4) + phase_y))).astype(np.uint8)[:, None]
    out[:, :, 2] = (127.5 * (1 + np.sin(xs * rng.integers(1, 3) + phase_x))).astype(np.uint8)

    # Mean-preserving per-block texture on the red channel: visual variety
    # without disturbing the block means the metric recovers. ``rows`` is
    # the grid as (block row, row within it, column).
    row_plane = np.repeat(plane, bw, axis=1)  # (GRID, gw)
    rows = row_plane[:, None, :]
    if bh >= 2 and bw >= 2:
        texture = rng.integers(-3, 4, size=(height, width))
        rows = texture[:gh, :gw].reshape(GRID, bh, gw)
        sums = rows.sum(axis=1).reshape(GRID, GRID, bw).sum(axis=2)
        # Each block's mean, truncated toward zero.
        means = np.sign(sums) * (np.abs(sums) // (bh * bw))
        rows += (row_plane - np.repeat(means, bw, axis=1))[:, None, :]
        np.clip(rows, 0, 255, out=rows)
    out[:gh, :gw, 0].reshape(GRID, bh, gw)[...] = rows
    # Past the grid, rows and columns repeat the edge blocks, untextured.
    out[gh:, :gw, 0] = row_plane[-1]
    out[:gh, gw:, 0] = np.repeat(plane[:, -1], bh)[:, None]
    out[gh:, gw:, 0] = plane[-1, -1]
    return out


def _resolve_steps(model: ImageModel, width: int, height: int, steps: int | None) -> int:
    """Validate a request's size and resolve its step count."""
    if width < GRID or height < GRID:
        raise ValueError(f"minimum generatable size is {GRID}x{GRID}")
    steps = steps if steps is not None else model.default_steps
    if steps <= 0:
        raise ValueError("steps must be positive")
    return steps


def _render_item(
    model: ImageModel, prompt: str, width: int, height: int, steps: int, seed: int | None
) -> np.ndarray:
    """One image's pixels: seed → fidelity jitter → content vector → pixels."""
    if seed is None:
        seed = stable_u64("image-seed", model.name, prompt, width, height, steps) % 2**32
    # Per-generation quality jitter: real diffusion output quality varies
    # draw to draw; the model's fidelity profile is the mean, not a
    # constant. Deterministic in the seed, so results stay reproducible.
    rng = np.random.default_rng((seed ^ 0xF1DE11) % 2**32)
    fidelity = float(np.clip(model.effective_fidelity(steps) + rng.normal(0.0, 0.04), 0.05, 0.98))
    vector = _content_vector(prompt, fidelity, seed)
    return render_content(vector, width, height, seed)


def _account(
    registry: MetricsRegistry,
    tracer: Tracer,
    model: ImageModel,
    steps: int,
    seconds: float,
    energy: float,
    count: int,
) -> None:
    """Record ``count`` generations of ``seconds`` / ``energy`` each."""
    if not registry.enabled:
        return
    registry.counter(
        "genai_generations_total",
        "Simulated generations, by modality and model",
        layer="genai",
        operation="image",
        model=model.name,
    ).inc(count)
    registry.counter(
        "genai_steps_total",
        "Denoising steps executed",
        layer="genai",
        operation="image",
        model=model.name,
    ).inc(steps * count)
    seconds_hist = registry.histogram(
        "genai_generation_seconds",
        "Simulated generation duration",
        layer="genai",
        operation="image",
        model=model.name,
    )
    for _ in range(count):
        seconds_hist.observe(seconds, trace_id=tracer.current_trace_id())
    registry.counter(
        "genai_energy_wh_total",
        "Simulated generation energy",
        layer="genai",
        operation="image",
        model=model.name,
    ).inc(energy * count)


def generate_image(
    model: ImageModel,
    device: DeviceProfile,
    prompt: str,
    width: int = 256,
    height: int = 256,
    steps: int | None = None,
    seed: int | None = None,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> ImageResult:
    """Run the simulated diffusion pipeline end to end."""
    steps = _resolve_steps(model, width, height, steps)
    registry = registry if registry is not None else NULL_REGISTRY
    tracer = tracer if tracer is not None else NULL_TRACER

    with tracer.span("genai.image", model=model.name, size=f"{width}x{height}", steps=steps) as gen_span:
        pixels = _render_item(model, prompt, width, height, steps, seed)
        seconds = steps * model.step_time(device, width, height)
        energy = device.image_energy_wh(seconds)
        # Simulated cost on the span itself, so stitched distributed traces
        # can be cross-checked against the metrics registry (report.py).
        gen_span.annotate(sim_s=round(seconds, 6))
    _account(registry, tracer, model, steps, seconds, energy, 1)
    return ImageResult(
        pixels=pixels,
        prompt=prompt,
        model=model.name,
        device=device.name,
        steps=steps,
        width=width,
        height=height,
        sim_time_s=seconds,
        energy_wh=energy,
    )


def batch_step_share(batch_size: int, alpha: float) -> float:
    """Per-item share of a batched run's step cost: ``(1 + α·(B−1)) / B``.

    ``α`` is the marginal cost of one extra batch lane relative to a solo
    run (0 = free lanes / perfect amortisation, 1 = no amortisation). At
    ``B = 1`` the share is exactly ``1.0`` for every α, which keeps the
    solo path's simulated time bit-identical — multiplying a float by 1.0
    is an identity. Calibration of the default α lives in
    :mod:`repro.batching` (docs/PERFORMANCE.md derives the value).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    return (1.0 + alpha * (batch_size - 1)) / batch_size


def generate_image_batch(
    model: ImageModel,
    device: DeviceProfile,
    prompts: list[str],
    width: int = 256,
    height: int = 256,
    steps: int | None = None,
    seeds: list[int | None] | None = None,
    alpha: float = 0.0,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> list[ImageResult]:
    """Run one micro-batch: each item is rendered exactly as a solo call.

    Pixels come from the same per-item kernel as ``generate_image``, so
    they are byte-identical to it by construction. Only the simulated cost
    differs: per-item seconds are the solo cost times
    :func:`batch_step_share`, modelling accelerator-style amortisation.
    With the default ``alpha=0.0`` each item still pays ``share = 1/B``;
    callers model a real accelerator by passing the calibrated α from
    :mod:`repro.batching`. A batch of one is identical to the solo path in
    both bytes and time for every α.
    """
    steps = _resolve_steps(model, width, height, steps)
    count = len(prompts)
    if count == 0:
        return []
    if seeds is None:
        seeds = [None] * count
    if len(seeds) != count:
        raise ValueError("seeds must match prompts length")
    registry = registry if registry is not None else NULL_REGISTRY
    tracer = tracer if tracer is not None else NULL_TRACER

    with tracer.span(
        "genai.image_batch",
        model=model.name,
        size=f"{width}x{height}",
        steps=steps,
        batch=count,
    ) as gen_span:
        pixels = [
            _render_item(model, prompt, width, height, steps, seed)
            for prompt, seed in zip(prompts, seeds)
        ]
        share = batch_step_share(count, alpha)
        seconds = steps * model.step_time(device, width, height) * share
        energy = device.image_energy_wh(seconds)
        gen_span.annotate(sim_s=round(seconds * count, 6), share=round(share, 4))
    _account(registry, tracer, model, steps, seconds, energy, count)
    return [
        ImageResult(
            pixels=item_pixels,
            prompt=prompt,
            model=model.name,
            device=device.name,
            steps=steps,
            width=width,
            height=height,
            sim_time_s=seconds,
            energy_wh=energy,
        )
        for prompt, item_pixels in zip(prompts, pixels)
    ]


def random_image(width: int = 224, height: int = 224, seed: int = 0) -> np.ndarray:
    """An unprompted image — the paper's CLIP-floor baseline (§6.3.1)."""
    rng = np.random.default_rng(stable_u64("random-image", seed) % 2**32)
    return rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
