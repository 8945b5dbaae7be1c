"""Video streaming bitrate models for the §3.2 experiment.

HLS/MPEG-DASH serve a ladder of (resolution, frame-rate, bitrate) variants.
In SWW the client advertises frame-rate boosting and resolution upscaling
via the GEN_ABILITY value, letting the server ship a lower rung and have
the client reconstruct the higher one. The paper's anchor numbers: moving
from 60 fps to 30 fps halves the data; moving from 4K to HD saves 2.3×
(7 GB/hour → 3 GB/hour, the Netflix figures it cites).
"""

from __future__ import annotations

from dataclasses import dataclass

GB = 10**9


@dataclass(frozen=True)
class VideoVariant:
    """One rung of a streaming ladder."""

    name: str
    width: int
    height: int
    fps: int
    gb_per_hour: float

    @property
    def bytes_per_hour(self) -> int:
        return int(self.gb_per_hour * GB)

    def at_fps(self, fps: int) -> "VideoVariant":
        """Derive a variant at a different frame rate.

        Data volume scales linearly with frame rate at constant per-frame
        quality (the paper: "moving from 60fps to 30fps will half the
        data").
        """
        if fps <= 0:
            raise ValueError("fps must be positive")
        scale = fps / self.fps
        return VideoVariant(
            name=f"{self.name}@{fps}fps",
            width=self.width,
            height=self.height,
            fps=fps,
            gb_per_hour=self.gb_per_hour * scale,
        )


#: Netflix-style ladder. 4K at 7 GB/h and HD at 3 GB/h are the paper's
#: cited anchors (ratio 2.33×); the other rungs follow typical practice.
STANDARD_LADDER: tuple[VideoVariant, ...] = (
    VideoVariant("4K", 3840, 2160, 60, 7.0),
    VideoVariant("FHD", 1920, 1080, 60, 3.0),
    VideoVariant("HD", 1280, 720, 30, 1.0),
    VideoVariant("SD", 854, 480, 30, 0.7),
)


class VideoLadder:
    """A set of variants plus SWW-aware selection logic."""

    def __init__(self, variants: tuple[VideoVariant, ...] = STANDARD_LADDER) -> None:
        if not variants:
            raise ValueError("ladder needs at least one variant")
        self.variants = tuple(sorted(variants, key=lambda v: -v.gb_per_hour))

    @property
    def top(self) -> VideoVariant:
        return self.variants[0]

    def find(self, name: str) -> VideoVariant:
        for variant in self.variants:
            if variant.name == name:
                return variant
        raise KeyError(f"no variant named {name!r}")

    def serve_plan(
        self,
        target: VideoVariant,
        client_framerate_boost: bool = False,
        client_resolution_upscale: bool = False,
    ) -> tuple[VideoVariant, float]:
        """Pick what the server should actually send for a desired ``target``.

        Returns ``(sent_variant, data_savings_factor)``. A frame-rate-capable
        client receives half the frames; a resolution-capable client receives
        the next rung down and upscales. Savings compose.
        """
        sent = target
        if client_framerate_boost and target.fps >= 60:
            sent = sent.at_fps(target.fps // 2)
        if client_resolution_upscale:
            lower = [v for v in self.variants if v.gb_per_hour < target.gb_per_hour]
            if lower:
                rung = lower[0]
                sent = VideoVariant(
                    name=f"{rung.name}->({target.name})",
                    width=rung.width,
                    height=rung.height,
                    fps=sent.fps,
                    gb_per_hour=rung.gb_per_hour * (sent.fps / rung.fps),
                )
        savings = target.gb_per_hour / sent.gb_per_hour if sent.gb_per_hour else float("inf")
        return sent, savings
