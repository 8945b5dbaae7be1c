"""ELO ratings and a simulated preference arena.

Table 1's ELO column comes from the Artificial Analysis text-to-image
arena: humans see two images for the same prompt and pick one; ratings
follow from the ELO update rule. We reproduce the *mechanism*: each model
has a latent strength (its ``arena_quality`` profile), battles are decided
by a logistic preference model over the strength gap, and ratings are
measured from thousands of simulated battles — the published numbers are
inputs to the latent strengths, but the ratings the benchmark reports are
genuinely computed from the arena.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util.rng import DeterministicRNG

#: Standard logistic base-10 ELO scale divisor.
ELO_SCALE = 400.0
DEFAULT_K = 24.0
DEFAULT_INITIAL = 1000.0


def expected_score(rating_a: float, rating_b: float) -> float:
    """P(A beats B) under the ELO logistic model."""
    return 1.0 / (1.0 + 10 ** ((rating_b - rating_a) / ELO_SCALE))


@dataclass
class EloRating:
    """Mutable rating state for one competitor."""

    name: str
    rating: float = DEFAULT_INITIAL
    games: int = 0
    wins: int = 0

    def update(self, opponent_rating: float, score: float, k: float = DEFAULT_K) -> None:
        """Apply one game result (score 1 = win, 0.5 = draw, 0 = loss)."""
        if not 0.0 <= score <= 1.0:
            raise ValueError("score must be in [0, 1]")
        expected = expected_score(self.rating, opponent_rating)
        self.rating += k * (score - expected)
        self.games += 1
        if score > 0.5:
            self.wins += 1


class EloLadder:
    """A set of competitors with pairwise updates."""

    def __init__(self, names: list[str], k: float = DEFAULT_K, initial: float = DEFAULT_INITIAL) -> None:
        if len(set(names)) != len(names):
            raise ValueError("duplicate competitor names")
        self.k = k
        self.ratings = {name: EloRating(name, initial) for name in names}

    def record(self, winner: str, loser: str, draw: bool = False) -> None:
        a = self.ratings[winner]
        b = self.ratings[loser]
        score_a = 0.5 if draw else 1.0
        # Both updates use the pre-game ratings.
        ra, rb = a.rating, b.rating
        a.update(rb, score_a, self.k)
        b.update(ra, 1.0 - score_a, self.k)

    def rating_of(self, name: str) -> float:
        return self.ratings[name].rating


@dataclass
class ArenaResult:
    """Outcome of a simulated arena run."""

    ratings: dict[str, float]
    battles: int
    anchor: str | None = None

    def ordered(self) -> list[tuple[str, float]]:
        return sorted(self.ratings.items(), key=lambda item: -item[1])


class PreferenceArena:
    """Simulates human pairwise preference battles between models.

    ``latent`` maps model name → latent strength on the ELO scale. A battle
    between A and B is won by A with probability
    ``1 / (1 + 10^((latent_B - latent_A)/400))`` — i.e. latent strengths
    *are* true ELOs, and a long arena run recovers them up to the usual
    zero-point indeterminacy, which we fix by re-anchoring the mean of the
    measured ratings onto the mean of the latent strengths (arenas such as
    Artificial Analysis pin their scale the same way, via anchor models).
    """

    def __init__(self, latent: dict[str, float], k: float = DEFAULT_K, seed: str = "arena") -> None:
        if len(latent) < 2:
            raise ValueError("an arena needs at least two models")
        self.latent = dict(latent)
        self.k = k
        self.seed = seed

    def run(self, battles_per_pair: int = 800) -> ArenaResult:
        """Round-robin arena; returns measured (re-anchored) ratings."""
        names = sorted(self.latent)
        ladder = EloLadder(names, k=self.k)
        rng = DeterministicRNG(self.seed, battles_per_pair)
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
        total = 0
        for round_index in range(battles_per_pair):
            for a, b in pairs:
                p_a = expected_score(self.latent[a], self.latent[b])
                if rng.random() < p_a:
                    ladder.record(a, b)
                else:
                    ladder.record(b, a)
                total += 1
            # Anneal K so late rounds refine rather than oscillate; a long
            # low-K tail is what lets extreme ratings escape the pull to the
            # field mean that short round-robins exhibit.
            if round_index == battles_per_pair // 3:
                ladder.k = max(6.0, self.k / 3)
            elif round_index == (2 * battles_per_pair) // 3:
                ladder.k = 2.0
        measured = {name: ladder.rating_of(name) for name in names}
        latent_mean = sum(self.latent.values()) / len(self.latent)
        measured_mean = sum(measured.values()) / len(measured)
        shift = latent_mean - measured_mean
        anchored = {name: rating + shift for name, rating in measured.items()}
        return ArenaResult(ratings=anchored, battles=total)
