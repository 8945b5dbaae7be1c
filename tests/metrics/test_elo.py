"""Tests for the ELO engine and simulated preference arena."""

import pytest

from repro.genai.registry import IMAGE_MODELS
from repro.metrics.elo import (
    EloLadder,
    EloRating,
    PreferenceArena,
    expected_score,
)


class TestExpectedScore:
    def test_equal_ratings_fifty_fifty(self):
        assert expected_score(1000, 1000) == pytest.approx(0.5)

    def test_400_points_is_10x_odds(self):
        p = expected_score(1400, 1000)
        assert p / (1 - p) == pytest.approx(10.0)

    def test_complementary(self):
        assert expected_score(1100, 900) + expected_score(900, 1100) == pytest.approx(1.0)


class TestEloRating:
    def test_win_increases_rating(self):
        rating = EloRating("a", 1000)
        rating.update(1000, 1.0)
        assert rating.rating > 1000

    def test_expected_win_barely_moves(self):
        strong = EloRating("s", 1400)
        strong.update(800, 1.0)
        assert strong.rating - 1400 < 2.0

    def test_upset_moves_a_lot(self):
        weak = EloRating("w", 800)
        weak.update(1400, 1.0)
        assert weak.rating - 800 > 20

    def test_invalid_score_rejected(self):
        with pytest.raises(ValueError):
            EloRating("x").update(1000, 1.5)


class TestEloLadder:
    def test_zero_sum_updates(self):
        ladder = EloLadder(["a", "b"], k=32)
        ladder.record("a", "b")
        total = ladder.rating_of("a") + ladder.rating_of("b")
        assert total == pytest.approx(2000.0)

    def test_standings_sorted(self):
        ladder = EloLadder(["a", "b", "c"])
        for _ in range(10):
            ladder.record("a", "b")
            ladder.record("b", "c")
        assert ladder.rating_of("a") > ladder.rating_of("b") > ladder.rating_of("c")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            EloLadder(["a", "a"])

    def test_draw_supported(self):
        ladder = EloLadder(["a", "b"])
        ladder.record("a", "b", draw=True)
        assert ladder.rating_of("a") == pytest.approx(ladder.rating_of("b"))


class TestPreferenceArena:
    def test_recovers_latent_ordering(self):
        arena = PreferenceArena({"weak": 700, "mid": 900, "strong": 1100})
        result = arena.run(400)
        names = [name for name, _ in result.ordered()]
        assert names == ["strong", "mid", "weak"]

    def test_recovers_latent_values_approximately(self):
        latent = {"weak": 700, "mid": 900, "strong": 1100}
        result = PreferenceArena(latent).run(800)
        for name, true_rating in latent.items():
            assert result.ratings[name] == pytest.approx(true_rating, abs=60)

    def test_deterministic(self):
        latent = {"a": 800, "b": 1000}
        r1 = PreferenceArena(latent, seed="s").run(100)
        r2 = PreferenceArena(latent, seed="s").run(100)
        assert r1.ratings == r2.ratings

    def test_needs_two_models(self):
        with pytest.raises(ValueError):
            PreferenceArena({"solo": 1000})

    def test_battle_count(self):
        result = PreferenceArena({"a": 800, "b": 1000, "c": 1200}).run(10)
        assert result.battles == 30  # 3 pairs x 10 rounds


class TestTable1EloColumn:
    """The arena must reproduce Table 1's ELO ratings from latent quality."""

    def test_published_ratings_recovered(self):
        latent = {m.name: m.arena_quality for m in IMAGE_MODELS.values()}
        result = PreferenceArena(latent).run(800)
        published = {
            "sd-2.1-base": 688,
            "sd-3-medium": 895,
            "sd-3.5-medium": 927,
            "dalle-3": 923,
            "gpt-4o-image": 1166,
        }
        for name, expected in published.items():
            assert result.ratings[name] == pytest.approx(expected, abs=45), name

    def test_sd21_significantly_worse(self):
        """Table 1 discussion: 'SD 2.1 performing significantly worse'."""
        latent = {m.name: m.arena_quality for m in IMAGE_MODELS.values()}
        result = PreferenceArena(latent).run(400)
        others = [r for n, r in result.ratings.items() if n != "sd-2.1-base"]
        assert result.ratings["sd-2.1-base"] < min(others) - 150
