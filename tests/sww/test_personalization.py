"""Tests for personalized content and the echo-chamber guard (§2.3)."""

import pytest

from repro.sww.content import GeneratedContent
from repro.sww.personalization import (
    EchoChamberGuard,
    PromptPersonalizer,
    UserProfile,
    engagement_score,
    topic_diversity,
)
from repro.workloads.corpus import landscape_prompts


@pytest.fixture
def profile() -> UserProfile:
    return UserProfile("u1", {"waterfall": 1.0, "kayaking": 0.8, "sunset": 0.6})


@pytest.fixture
def page_items():
    return [GeneratedContent.image(p) for p in landscape_prompts(12, "pers-test")]


class TestUserProfile:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            UserProfile("u", {"x": 1.5})
        with pytest.raises(ValueError):
            UserProfile("u", {"x": 0.0})

    def test_top_interests_ranked(self, profile):
        assert profile.top_interests(2) == ["waterfall", "kayaking"]


class TestEngagementScore:
    def test_interest_match_scores_higher(self, profile):
        on_topic = "a tall waterfall seen from a kayaking route at sunset"
        off_topic = "a corporate office lobby with grey carpet tiles"
        assert engagement_score(on_topic, profile) > engagement_score(off_topic, profile) + 0.2

    def test_empty_profile_zero(self):
        assert engagement_score("anything", UserProfile("u")) == 0.0

    def test_bounded(self, profile):
        assert 0.0 <= engagement_score("waterfall kayaking sunset", profile) <= 1.0


class TestTopicDiversity:
    def test_identical_prompts_zero(self):
        assert topic_diversity(["a waterfall"] * 8) == pytest.approx(0.0, abs=0.01)

    def test_distinct_scenes_high(self):
        prompts = landscape_prompts(10, "div")
        assert topic_diversity(prompts) > 0.4

    def test_single_prompt_zero(self):
        assert topic_diversity(["only one"]) == 0.0

    def test_distinct_beats_repeated(self):
        distinct = landscape_prompts(8, "d2")
        repeated = [distinct[0]] * 8
        assert topic_diversity(distinct) > topic_diversity(repeated)


class TestPersonalizer:
    def test_moderate_intensity_lifts_engagement(self, profile, page_items):
        report = PromptPersonalizer(intensity=0.5).personalize_page(page_items, profile)
        assert not report.blocked_by_guard
        assert report.rewritten > 0
        assert report.mean_engagement_after - report.mean_engagement_before > 0.05

    def test_zero_intensity_is_identity(self, profile, page_items):
        before = [item.prompt for item in page_items]
        report = PromptPersonalizer(intensity=0.0).personalize_page(page_items, profile)
        assert report.rewritten == 0
        assert [item.prompt for item in page_items] == before

    def test_text_items_skipped(self, profile):
        items = [GeneratedContent.text("- a point", words=100)]
        report = PromptPersonalizer(intensity=0.8).personalize_page(items, profile)
        assert report.skipped == 1 and report.rewritten == 0

    def test_deterministic(self, profile):
        a = [GeneratedContent.image(p) for p in landscape_prompts(6, "det")]
        b = [GeneratedContent.image(p) for p in landscape_prompts(6, "det")]
        PromptPersonalizer(intensity=0.6).personalize_page(a, profile)
        PromptPersonalizer(intensity=0.6).personalize_page(b, profile)
        assert [i.prompt for i in a] == [i.prompt for i in b]

    def test_invalid_intensity_rejected(self):
        with pytest.raises(ValueError):
            PromptPersonalizer(intensity=1.5)

    def test_empty_profile_unchanged(self, page_items):
        report = PromptPersonalizer(intensity=0.9).personalize_page(page_items, UserProfile("u"))
        assert report.rewritten == 0


class TestEchoChamberGuard:
    def test_full_intensity_blocked_and_rolled_back(self, profile, page_items):
        """§2.3: the harmful regime — engagement-maximising replacement —
        is detected and reverted."""
        before = [item.prompt for item in page_items]
        report = PromptPersonalizer(intensity=1.0).personalize_page(page_items, profile)
        assert report.blocked_by_guard
        assert report.rewritten == 0
        assert [item.prompt for item in page_items] == before

    def test_guard_thresholds(self):
        guard = EchoChamberGuard(min_diversity=0.35, max_diversity_drop=0.30)
        assert guard.allows(0.6, 0.5)  # mild narrowing
        assert not guard.allows(0.6, 0.3)  # below floor
        assert not guard.allows(0.9, 0.55)  # >30% collapse

    def test_unguarded_mode_allows_collapse(self, profile, page_items):
        relaxed = EchoChamberGuard(min_diversity=0.0, max_diversity_drop=1.0)
        report = PromptPersonalizer(intensity=1.0, guard=relaxed).personalize_page(page_items, profile)
        assert not report.blocked_by_guard
        assert report.rewritten > 0
        assert report.diversity_after < report.diversity_before

    def test_guarded_default(self):
        assert PromptPersonalizer().guard is not None
