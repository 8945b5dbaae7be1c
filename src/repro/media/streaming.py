"""HLS-style segmented video streaming over SWW-negotiated HTTP/2 (§3.2).

    "Video streaming protocols, such as HTTP Live Streaming (HLS) and
    MPEG-DASH, run on top of HTTP. The proposed modifications to HTTP for
    web pages can be applied also to negotiate generation abilities also
    for video streaming. ... In SWW, client devices can negotiate with
    the video server generation abilities before content is sent."

This module implements the streaming shape those protocols share —
a ladder of variants, media playlists of fixed-duration
segments, segment GETs — with the SWW twist: the server picks the variant
to *ship* from the client's advertised GEN_ABILITY video bits, expecting
the client to reconstruct the requested rendition (frame-rate boosting
and/or resolution upscaling, §3.2). Segment payloads are size-accurate
synthetic bytes; session accounting reproduces the paper's GB/hour
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.http2.settings import GenAbility, GenCapability
from repro.media.video import STANDARD_LADDER, VideoLadder, VideoVariant

DEFAULT_SEGMENT_SECONDS = 6.0


@dataclass(frozen=True)
class Segment:
    """One media segment of a rendition."""

    variant: str
    index: int
    duration_s: float
    size_bytes: int

    @property
    def path(self) -> str:
        return f"/video/{self.variant}/segment-{self.index:05d}.ts"


@dataclass
class MediaPlaylist:
    """An HLS-like media playlist for one rendition."""

    variant: VideoVariant
    segment_seconds: float
    segments: list[Segment]


class StreamingService:
    """The server side: playlists plus SWW-aware variant selection."""

    def __init__(
        self,
        ladder: VideoLadder | None = None,
        duration_s: float = 3600.0,
        segment_seconds: float = DEFAULT_SEGMENT_SECONDS,
    ) -> None:
        if duration_s <= 0 or segment_seconds <= 0:
            raise ValueError("durations must be positive")
        self.ladder = ladder or VideoLadder(STANDARD_LADDER)
        self.duration_s = duration_s
        self.segment_seconds = segment_seconds
        self._playlists: dict[str, MediaPlaylist] = {}

    def media_playlist(self, variant_name: str) -> MediaPlaylist:
        playlist = self._playlists.get(variant_name)
        if playlist is None:
            variant = self.ladder.find(variant_name)
            count = int(self.duration_s // self.segment_seconds)
            bytes_per_segment = int(variant.bytes_per_hour * self.segment_seconds / 3600)
            segments = [
                Segment(variant.name, index, self.segment_seconds, bytes_per_segment)
                for index in range(count)
            ]
            playlist = MediaPlaylist(variant, self.segment_seconds, segments)
            self._playlists[variant_name] = playlist
        return playlist

    def select_shipped_variant(
        self, requested: str, client_ability: GenAbility
    ) -> tuple[VideoVariant, float]:
        """Apply §3.2: pick what to send given the client's video bits."""
        target = self.ladder.find(requested)
        framerate = client_ability.supports(GenCapability.VIDEO_FRAMERATE)
        resolution = client_ability.supports(GenCapability.VIDEO_RESOLUTION)
        return self.ladder.serve_plan(
            target, client_framerate_boost=framerate, client_resolution_upscale=resolution
        )


@dataclass
class SessionStats:
    """Accounting for one playback session."""

    requested_variant: str
    shipped_variant: str
    segments_fetched: int = 0
    bytes_received: int = 0
    playback_seconds: float = 0.0
    #: Client-side reconstruction work (frame interpolation / upscaling).
    reconstruction_s: float = 0.0
    reconstruction_wh: float = 0.0

    @property
    def gb_per_hour(self) -> float:
        if self.playback_seconds == 0:
            return 0.0
        return self.bytes_received / 1e9 * 3600.0 / self.playback_seconds


class StreamingSession:
    """The client side of one playback: negotiate, fetch, account."""

    def __init__(
        self,
        service: StreamingService,
        client_ability: GenAbility,
        device=None,
    ) -> None:
        from repro.devices import LAPTOP

        self.service = service
        self.client_ability = client_ability
        self.device = device or LAPTOP
        #: Upscaler used for client-side reconstruction (§3.2 cites the
        #: RTX-VSR / Fluid-Motion-Frames class of fast scalers).
        from repro.genai.upscale import FAST_SCALER

        self._scaler = FAST_SCALER

    def play(self, requested: str, seconds: float) -> SessionStats:
        """Play ``seconds`` of the requested rendition."""
        if seconds <= 0:
            raise ValueError("playback duration must be positive")
        shipped, _savings = self.service.select_shipped_variant(requested, self.client_ability)
        # The shipped rendition's playlist: the base ladder rung actually
        # sent (strip any derived-name decoration for playlist lookup).
        base_name = shipped.name.split("@")[0].split("->")[0]
        playlist = self.service.media_playlist(base_name)
        stats = SessionStats(requested_variant=requested, shipped_variant=shipped.name)

        per_segment_bytes = int(shipped.bytes_per_hour * self.service.segment_seconds / 3600)
        reconstructing = shipped.name != requested
        for segment in playlist.segments:
            if stats.playback_seconds >= seconds:
                break
            stats.segments_fetched += 1
            stats.bytes_received += per_segment_bytes
            stats.playback_seconds += segment.duration_s
            if reconstructing:
                # One reconstruction pass per segment, FAST_SCALER-priced
                # at the target resolution.
                target = self.service.ladder.find(requested)
                time_cost = self._scaler.inference_time(self.device, target.width // 8, target.height // 8)
                stats.reconstruction_s += time_cost
                stats.reconstruction_wh += self.device.image_power.energy_wh(time_cost)
        return stats
