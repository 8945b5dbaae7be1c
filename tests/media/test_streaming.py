"""Tests for the HLS-style streaming layer (§3.2)."""

import pytest

from repro.http2.settings import GenAbility, GenCapability
from repro.media.streaming import (
    DEFAULT_SEGMENT_SECONDS,
    StreamingService,
    StreamingSession,
)

FULL_VIDEO_BITS = int(
    GenCapability.GENERATE | GenCapability.VIDEO_FRAMERATE | GenCapability.VIDEO_RESOLUTION
)


@pytest.fixture
def service() -> StreamingService:
    return StreamingService(duration_s=600.0)


class TestPlaylists:
    def test_media_playlist_segments(self, service):
        playlist = service.media_playlist("4K")
        assert len(playlist.segments) == int(600 // DEFAULT_SEGMENT_SECONDS)

    def test_segment_sizes_match_bitrate(self, service):
        playlist = service.media_playlist("4K")
        segment = playlist.segments[0]
        expected = 7.0e9 * DEFAULT_SEGMENT_SECONDS / 3600
        assert segment.size_bytes == pytest.approx(expected, rel=0.01)

    def test_unknown_variant_raises(self, service):
        with pytest.raises(KeyError):
            service.media_playlist("8K")

    def test_invalid_durations_rejected(self):
        with pytest.raises(ValueError):
            StreamingService(duration_s=0)
        with pytest.raises(ValueError):
            StreamingService(segment_seconds=-1)


class TestVariantSelection:
    def test_naive_client_gets_requested(self, service):
        shipped, savings = service.select_shipped_variant("4K", GenAbility(0))
        assert shipped.name == "4K" and savings == 1.0

    def test_framerate_client_gets_half_rate(self, service):
        ability = GenAbility(int(GenCapability.GENERATE | GenCapability.VIDEO_FRAMERATE))
        shipped, savings = service.select_shipped_variant("4K", ability)
        assert shipped.fps == 30 and savings == pytest.approx(2.0)

    def test_full_capability_compounds(self, service):
        shipped, savings = service.select_shipped_variant("4K", GenAbility(FULL_VIDEO_BITS))
        assert savings > 4.0


class TestSession:
    def test_naive_session_at_full_rate(self, service):
        session = StreamingSession(service, GenAbility(0))
        stats = session.play("4K", 600)
        assert stats.gb_per_hour == pytest.approx(7.0, rel=0.02)
        assert stats.reconstruction_s == 0.0
        assert stats.segments_fetched == 100

    def test_capable_session_halves_data(self, service):
        ability = GenAbility(int(GenCapability.GENERATE | GenCapability.VIDEO_FRAMERATE))
        stats = StreamingSession(service, ability).play("4K", 600)
        assert stats.gb_per_hour == pytest.approx(3.5, rel=0.02)
        assert stats.shipped_variant == "4K@30fps"

    def test_reconstruction_cost_accounted(self, service):
        ability = GenAbility(FULL_VIDEO_BITS)
        stats = StreamingSession(service, ability).play("4K", 300)
        assert stats.reconstruction_s > 0
        assert stats.reconstruction_wh > 0
        # Reconstruction must keep up with playback (real-time constraint).
        assert stats.reconstruction_s < stats.playback_seconds

    def test_full_capability_rate(self, service):
        stats = StreamingSession(service, GenAbility(FULL_VIDEO_BITS)).play("4K", 600)
        assert stats.gb_per_hour == pytest.approx(1.5, rel=0.02)

    def test_paper_anchor_4k_to_fhd(self, service):
        """'from 4K to high definition can save 2.3x data, turning
        7GB/hour into 3GB/hour'."""
        ability = GenAbility(int(GenCapability.GENERATE | GenCapability.VIDEO_RESOLUTION))
        stats = StreamingSession(service, ability).play("4K", 600)
        assert stats.gb_per_hour == pytest.approx(3.0, rel=0.02)

    def test_invalid_duration_rejected(self, service):
        with pytest.raises(ValueError):
            StreamingSession(service, GenAbility(0)).play("4K", 0)
