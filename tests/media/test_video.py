"""Tests for the video bitrate model (§3.2 anchors)."""

import pytest

from repro.media.video import STANDARD_LADDER, VideoLadder


class TestPaperAnchors:
    def test_4k_and_fhd_rates(self):
        ladder = VideoLadder()
        assert ladder.find("4K").gb_per_hour == 7.0
        assert ladder.find("FHD").gb_per_hour == 3.0

    def test_4k_to_hd_saves_2_3x(self):
        """'from 4K to high definition can save 2.3× data, turning
        7GB/hour into 3GB/hour'."""
        ladder = VideoLadder()
        ratio = ladder.find("4K").gb_per_hour / ladder.find("FHD").gb_per_hour
        assert ratio == pytest.approx(2.33, abs=0.05)

    def test_halving_fps_halves_data(self):
        """'moving from 60fps to 30fps will half the data'."""
        top = VideoLadder().top
        halved = top.at_fps(30)
        assert halved.gb_per_hour == pytest.approx(top.gb_per_hour / 2)


class TestVariant:
    def test_at_fps_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            STANDARD_LADDER[0].at_fps(0)


class TestServePlan:
    def test_no_capability_ships_target(self):
        ladder = VideoLadder()
        sent, savings = ladder.serve_plan(ladder.find("4K"))
        assert sent.name == "4K" and savings == 1.0

    def test_framerate_capability_halves(self):
        ladder = VideoLadder()
        sent, savings = ladder.serve_plan(ladder.find("4K"), client_framerate_boost=True)
        assert savings == pytest.approx(2.0)
        assert sent.fps == 30

    def test_resolution_capability(self):
        ladder = VideoLadder()
        sent, savings = ladder.serve_plan(ladder.find("4K"), client_resolution_upscale=True)
        assert savings == pytest.approx(7.0 / 3.0)

    def test_capabilities_compose(self):
        ladder = VideoLadder()
        _sent, savings = ladder.serve_plan(
            ladder.find("4K"), client_framerate_boost=True, client_resolution_upscale=True
        )
        assert savings > 4.0

    def test_framerate_boost_not_applied_below_60(self):
        ladder = VideoLadder()
        sent, savings = ladder.serve_plan(ladder.find("HD"), client_framerate_boost=True)
        assert sent.fps == 30 and savings == 1.0

    def test_lowest_rung_cannot_downshift(self):
        ladder = VideoLadder()
        sent, savings = ladder.serve_plan(ladder.find("SD"), client_resolution_upscale=True)
        assert sent.name == "SD" and savings == 1.0


class TestLadder:
    def test_sorted_descending(self):
        rates = [v.gb_per_hour for v in VideoLadder().variants]
        assert rates == sorted(rates, reverse=True)

    def test_unknown_variant_raises(self):
        with pytest.raises(KeyError):
            VideoLadder().find("8K")

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            VideoLadder(())
