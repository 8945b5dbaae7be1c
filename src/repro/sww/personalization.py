"""Personalized content generation (paper §2.3).

    "Generating content on end-user devices also means that there is an
    opportunity to generate personalized content on these devices. The
    generation algorithm can use as an input information about users'
    background, preferences and hobbies and create content that is likely
    to increase the user's engagement ... This personalized approach is
    likely to [be] very attractive, however it has a potential for harm,
    not only from malicious actors but also by creating an echo chamber."

Three pieces:

* :class:`UserProfile` — the on-device signal (interests with weights).
* :class:`PromptPersonalizer` — rewrites a page's prompts toward the
  user's interests, with a tunable ``intensity``; an engagement model
  scores how much the rewrite increases prompt↔profile alignment.
* :class:`EchoChamberGuard` — the §2.3 safety hook: measures how far the
  personalized page's topical distribution has collapsed toward the
  user's existing interests and blocks rewrites beyond a diversity floor.

The guard is deliberately in the default path: the paper "urge[s] the
wider web community to consider the harms of personalized content in
SWW", so this implementation makes the harm measurable and boundable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util.rng import DeterministicRNG
from repro.genai.embeddings import cosine_similarity, text_embedding
from repro.sww.content import ContentType, GeneratedContent


@dataclass
class UserProfile:
    """On-device user signal. Never leaves the client in SWW."""

    user_id: str
    #: interest term -> weight in (0, 1].
    interests: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for term, weight in self.interests.items():
            if not 0.0 < weight <= 1.0:
                raise ValueError(f"interest weight for {term!r} must be in (0, 1], got {weight}")

    def interest_text(self) -> str:
        """The profile as a weighted bag of words (weights via repetition)."""
        parts: list[str] = []
        for term, weight in sorted(self.interests.items()):
            parts.extend([term] * max(1, round(weight * 3)))
        return " ".join(parts)

    def top_interests(self, count: int = 3) -> list[str]:
        ranked = sorted(self.interests.items(), key=lambda item: -item[1])
        return [term for term, _weight in ranked[:count]]


def engagement_score(prompt: str, profile: UserProfile) -> float:
    """Alignment between a prompt and the user's interests, in [0, 1].

    The stand-in for a recommender's engagement predictor: cosine between
    the prompt and the profile's interest text, floored at 0.
    """
    if not profile.interests:
        return 0.0
    return max(0.0, cosine_similarity(text_embedding(prompt), text_embedding(profile.interest_text())))


def topic_diversity(prompts: list[str]) -> float:
    """Mean pairwise semantic *dissimilarity* across a page's prompts.

    1 − mean pairwise embedding cosine: a page of distinct scenes scores
    high; a page collapsed onto the user's favourite topic — every prompt
    saying the same thing — goes to 0. This is the echo-chamber
    signature: it measures variety *between* items, which word-frequency
    entropy misses (ten identical prompts have a perfectly uniform word
    distribution).
    """
    if len(prompts) < 2:
        return 0.0
    vectors = [text_embedding(p) for p in prompts]
    total = 0.0
    pairs = 0
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            total += cosine_similarity(vectors[i], vectors[j])
            pairs += 1
    return max(0.0, 1.0 - total / pairs)


@dataclass
class PersonalizationReport:
    """What a personalization pass changed."""

    rewritten: int = 0
    skipped: int = 0
    mean_engagement_before: float = 0.0
    mean_engagement_after: float = 0.0
    diversity_before: float = 0.0
    diversity_after: float = 0.0
    blocked_by_guard: bool = False


@dataclass
class EchoChamberGuard:
    """Bounds how far personalization may narrow a page (§2.3 harm hook).

    ``min_diversity`` is the floor on post-rewrite topic diversity;
    ``max_diversity_drop`` bounds the relative collapse versus the
    original page. Violations roll the page back to its original prompts.
    """

    min_diversity: float = 0.35
    max_diversity_drop: float = 0.30

    def allows(self, before: float, after: float) -> bool:
        if after < self.min_diversity:
            return False
        if before > 0 and (before - after) / before > self.max_diversity_drop:
            return False
        return True


class PromptPersonalizer:
    """Rewrites a page's generated-content prompts toward a profile."""

    def __init__(self, intensity: float = 0.5, guard: EchoChamberGuard | None = None) -> None:
        if not 0.0 <= intensity <= 1.0:
            raise ValueError("intensity must be in [0, 1]")
        self.intensity = intensity
        #: Pass ``guard=None`` explicitly to run unguarded (not advised —
        #: the default engages the §2.3 safety check).
        self.guard = guard if guard is not None else EchoChamberGuard()

    def personalize_prompt(self, prompt: str, profile: UserProfile) -> str:
        """Blend interest terms into one prompt, proportional to intensity.

        Moderate intensity *augments* the prompt ("featuring ..."); past
        0.7 the rewrite increasingly *replaces* the scene with the user's
        interests — the regime where engagement optimisation collapses the
        page onto what the user already likes (the §2.3 echo chamber).
        """
        rng = DeterministicRNG("personalize", profile.user_id, prompt, self.intensity)
        interests = profile.top_interests(3)
        if not interests or self.intensity == 0.0:
            return prompt
        replace_probability = max(0.0, (self.intensity - 0.7) / 0.3)
        if rng.random() < replace_probability:
            focus = " and ".join(interests)
            return f"a striking photograph of {focus}, exactly matching the viewer's taste for {focus}"
        additions = [term for term in interests if rng.random() < self.intensity]
        if not additions:
            return prompt
        return prompt + ", featuring " + " and ".join(additions)

    def personalize_page(self, items: list[GeneratedContent], profile: UserProfile) -> PersonalizationReport:
        """Rewrite image prompts in place; guarded against echo chambers."""
        report = PersonalizationReport()
        originals: list[tuple[GeneratedContent, str]] = []
        before_prompts: list[str] = []
        after_prompts: list[str] = []
        for item in items:
            if item.content_type != ContentType.IMAGE:
                report.skipped += 1
                continue
            original = item.prompt
            rewritten = self.personalize_prompt(original, profile)
            originals.append((item, original))
            before_prompts.append(original)
            after_prompts.append(rewritten)
            if rewritten != original:
                item.metadata["prompt"] = rewritten
                report.rewritten += 1

        if not before_prompts:
            return report
        report.mean_engagement_before = sum(
            engagement_score(p, profile) for p in before_prompts
        ) / len(before_prompts)
        report.mean_engagement_after = sum(
            engagement_score(p, profile) for p in after_prompts
        ) / len(after_prompts)
        report.diversity_before = topic_diversity(before_prompts)
        report.diversity_after = topic_diversity(after_prompts)

        if self.guard is not None and not self.guard.allows(
            report.diversity_before, report.diversity_after
        ):
            for item, original in originals:
                item.metadata["prompt"] = original
            report.blocked_by_guard = True
            report.rewritten = 0
            report.mean_engagement_after = report.mean_engagement_before
            report.diversity_after = report.diversity_before
        return report
