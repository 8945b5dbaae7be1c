"""Content upscaling (paper §2.2).

    "another option is content upscaling, such as turning small images
    into large, high resolution ones. By using content upscaling, the
    storage requirements of unique content can be reduced as well.
    Content upscaling is also usually faster than content generation,
    with sub-second inference."

The simulator models a one-step diffusion super-resolution network (the
OSEDiff-class models the paper cites): the input image's content
embedding is preserved — upscaling never changes *what* the image shows —
while per-pixel detail is hallucinated deterministically. Inference is a
single step, so it runs in well under a second on the workstation and
around a second on the laptop, versus minutes for full generation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util.hashing import stable_u64
from repro.devices.profiles import DeviceProfile


@dataclass(frozen=True)
class UpscaleModel:
    """A super-resolution model profile.

    ``step_time_224`` is the single inference step's cost at 224×224
    *output* resolution per device; like generation it scales with the
    device's resolution curve, but there is exactly one step.
    """

    name: str
    step_time_224: dict[str, float]
    #: How much high-frequency detail is hallucinated (0..1); affects
    #: pixels only, never the recoverable content embedding.
    detail_strength: float = 0.5
    max_scale: int = 4

    def inference_time(self, device: DeviceProfile, out_width: int, out_height: int) -> float:
        reference = self.step_time_224.get(device.name)
        if reference is None:
            raise ValueError(f"model {self.name!r} has no profile for device {device.name!r}")
        return device.image_step_time(reference, out_width, out_height)


#: One-step effective diffusion SR (OSEDiff-class, cited [58]): sub-second
#: on the workstation even at large outputs.
ONE_STEP_SR = UpscaleModel(
    name="one-step-sr",
    step_time_224={"laptop": 0.30, "workstation": 0.035, "mobile": 0.9, "cloud": 0.028},
)

#: A lighter lanczos-style scaler for the video/frame path: near-free.
FAST_SCALER = UpscaleModel(
    name="fast-scaler",
    step_time_224={"laptop": 0.02, "workstation": 0.004, "mobile": 0.05, "cloud": 0.003},
    detail_strength=0.1,
    max_scale=2,
)

UPSCALE_MODELS = {m.name: m for m in (ONE_STEP_SR, FAST_SCALER)}


@dataclass
class UpscaleResult:
    """Output of a simulated upscale."""

    pixels: np.ndarray
    model: str
    device: str
    scale: int
    sim_time_s: float
    energy_wh: float


def upscale_image(
    model: UpscaleModel,
    device: DeviceProfile,
    pixels: np.ndarray,
    scale: int,
    seed: int | None = None,
) -> UpscaleResult:
    """Upscale an (H, W, 3) image by an integer factor.

    Nearest-neighbour expansion keeps every source block's mean intact
    (so :func:`repro.genai.embeddings.image_embedding` recovers the same
    content vector from the output — semantics preserved by construction),
    then mean-preserving detail noise is layered per source pixel.
    """
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got {pixels.shape}")
    if not 2 <= scale <= model.max_scale:
        raise ValueError(f"scale {scale} outside [2, {model.max_scale}] for {model.name}")
    height, width, _ = pixels.shape
    out_h, out_w = height * scale, width * scale
    if seed is None:
        seed = stable_u64("upscale", model.name, height, width, scale) % 2**32

    big = np.repeat(np.repeat(pixels, scale, axis=0), scale, axis=1).astype(np.int16)
    if model.detail_strength > 0:
        rng = np.random.default_rng(seed)
        amplitude = int(round(8 * model.detail_strength))
        if amplitude:
            noise = rng.integers(-amplitude, amplitude + 1, size=(out_h, out_w, 3)).astype(np.int16)
            # Zero the mean within each scale×scale cell so source-pixel
            # (and therefore block) means are exactly preserved.
            cells = noise.reshape(height, scale, width, scale, 3)
            cells -= cells.mean(axis=(1, 3), keepdims=True).astype(np.int16)
            big = big + cells.reshape(out_h, out_w, 3)
    out = np.clip(big, 0, 255).astype(np.uint8)

    seconds = model.inference_time(device, out_w, out_h)
    energy = device.image_energy_wh(seconds)
    return UpscaleResult(
        pixels=out,
        model=model.name,
        device=device.name,
        scale=scale,
        sim_time_s=seconds,
        energy_wh=energy,
    )


def storage_saving_factor(out_width: int, out_height: int, scale: int) -> float:
    """Bytes saved by storing the small original instead of the large one.

    With a linear-in-pixels media size model this is exactly ``scale²`` —
    §2.2's "the storage requirements of unique content can be reduced as
    well".
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    return float(scale * scale)
