"""The text-expansion simulator (bullet points → prose).

The paper's text path sends bullet points as the prompt; the client's LLM
expands them to a paragraph of a requested word count "without loss of
information" (§2.1). The simulator preserves what the evaluation measures:

* **semantic similarity** — the expansion reuses the bullets' content
  words; each model's *drift* rate injects generic filler, lowering the
  SBERT-sim score by a calibrated amount (§6.3.2: means 0.82-0.91, with
  DeepSeek-R1 8B consistently high).
* **length control** — the produced word count misses the target by a
  model-dependent error (overshoot up to 20%; good models ≈ ±4%).
* **generation time** — base time per (model, device) with a weak,
  non-monotonic length dependence: short prompts pay a "reasoning
  overhead" floor (three of the four models take longer for 50 words than
  for 100/150, as the paper observes), longer outputs follow a shallow
  power law anchored on Table 2's 250-word row.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util.hashing import stable_unit
from repro._util.rng import DeterministicRNG
from repro.devices.profiles import DeviceProfile
from repro.genai import vocab
from repro.genai.embeddings import tokenize_words
from repro.obs import NULL_REGISTRY, NULL_TRACER, MetricsRegistry, Tracer

#: Word count at which a model's ``base_time_s`` is defined (Table 2 row).
REFERENCE_WORDS = 250
#: Exponent of the weak length dependence for outputs beyond 100 words.
LENGTH_EXPONENT = 0.35


@dataclass(frozen=True)
class TextModel:
    """A text-to-text model profile.

    ``base_time_s`` is the workstation generation time at 250 words
    (Table 2 anchors DeepSeek-R1 8B at 13.0 s); other devices scale by
    their ``text_speed_factor``. ``drift`` is the fraction of generated
    sentences that are generic filler; ``length_error_scale`` is the
    standard deviation of the word-count overshoot.
    """

    name: str
    base_time_s: float
    drift: float
    length_error_scale: float
    #: Reasoning models burn a thinking budget even for tiny outputs.
    reasoning: bool = True

    def length_factor(self, words: int) -> float:
        """Relative time vs. the 250-word reference — weak & non-monotonic."""
        if words <= 0:
            raise ValueError("word target must be positive")
        if words <= 100:
            # Thinking-dominated regime: a deterministic per-(model, words)
            # floor in [0.85, 1.10] of the reference time.
            return 0.85 + 0.25 * stable_unit(self.name, "short-think", words)
        wobble = 1.0 + 0.08 * (stable_unit(self.name, "len-jitter", words) - 0.5)
        return (words / REFERENCE_WORDS) ** LENGTH_EXPONENT * wobble

    def generation_time_s(self, device: DeviceProfile, words: int) -> float:
        """Simulated seconds to expand to ``words`` words on ``device``."""
        return self.base_time_s * device.text_speed_factor * self.length_factor(words)

    def length_error(self, prompt: str, words: int) -> float:
        """Signed relative word-count error for this request, clipped ±20%."""
        rng = DeterministicRNG("length-error", self.name, prompt, words)
        error = rng.gauss(0.0, self.length_error_scale)
        return max(-0.20, min(0.20, error))


@dataclass
class TextResult:
    """Output of a simulated text expansion."""

    text: str
    prompt: str
    model: str
    device: str
    requested_words: int
    actual_words: int
    sim_time_s: float
    energy_wh: float

    @property
    def overshoot(self) -> float:
        """Signed relative deviation from the requested word count."""
        if self.requested_words == 0:
            return 0.0
        return (self.actual_words - self.requested_words) / self.requested_words


def _sentence(rng: DeterministicRNG, content_words: list[str], topic: str) -> str:
    """Compose one on-topic sentence reusing source content words."""
    bank = vocab.topic_words(topic)
    opener = rng.choice(vocab.SENTENCE_OPENERS)
    adjective = rng.choice(vocab.ADJECTIVES)
    verb = rng.choice(vocab.VERBS)
    subject = rng.choice(content_words) if content_words else rng.choice(bank)
    complement = rng.choice(content_words) if content_words else rng.choice(bank)
    tail = rng.choice(content_words) if content_words and rng.random() < 0.5 else rng.choice(bank)
    parts = [opener, adjective, subject, verb, "the", complement, "and", "the", tail]
    if rng.random() < 0.5:
        parts += [rng.choice(vocab.CONNECTIVES).split()[0], "the", rng.choice(content_words or bank)]
    sentence = " ".join(parts)
    return sentence[0].upper() + sentence[1:] + "."


def _filler_sentence(rng: DeterministicRNG) -> str:
    filler = rng.choice(vocab.GENERIC_FILLER)
    return filler[0].upper() + filler[1:] + "."


def expand_text(
    model: TextModel,
    device: DeviceProfile,
    prompt: str,
    target_words: int,
    topic: str = "technology",
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> TextResult:
    """Expand bullet-point ``prompt`` text into a ~``target_words`` passage."""
    if target_words <= 0:
        raise ValueError("target word count must be positive")
    registry = registry if registry is not None else NULL_REGISTRY
    tracer = tracer if tracer is not None else NULL_TRACER
    content_words = [w for w in tokenize_words(prompt) if len(w) > 3]
    rng = DeterministicRNG("text-expand", model.name, prompt, target_words)

    error = model.length_error(prompt, target_words)
    goal = max(8, round(target_words * (1.0 + error)))

    with tracer.span("genai.text", model=model.name, words=target_words) as gen_span:
        sentences: list[str] = []
        word_count = 0
        while word_count < goal:
            if rng.random() < model.drift:
                sentence = _filler_sentence(rng)
            else:
                sentence = _sentence(rng, content_words, topic)
            room = goal - word_count
            words = sentence.split()
            if len(words) > room and sentences:
                # Trim the final sentence to land on the (erroneous) goal.
                words = words[:room]
                sentence = " ".join(words).rstrip(".,") + "."
            sentences.append(sentence)
            word_count += len(words)

        text = " ".join(sentences)
        seconds = model.generation_time_s(device, target_words)
        energy = device.text_energy_wh(seconds)
        gen_span.annotate(sim_s=round(seconds, 6))
    if registry.enabled:
        registry.counter(
            "genai_generations_total",
            "Simulated generations, by modality and model",
            layer="genai",
            operation="text",
            model=model.name,
        ).inc()
        registry.counter(
            "genai_words_total",
            "Words produced by text expansion",
            layer="genai",
            operation="text",
            model=model.name,
        ).inc(len(text.split()))
        registry.histogram(
            "genai_generation_seconds",
            "Simulated generation duration",
            layer="genai",
            operation="text",
            model=model.name,
        ).observe(seconds, trace_id=tracer.current_trace_id())
        registry.counter(
            "genai_energy_wh_total",
            "Simulated generation energy",
            layer="genai",
            operation="text",
            model=model.name,
        ).inc(energy)
    return TextResult(
        text=text,
        prompt=prompt,
        model=model.name,
        device=device.name,
        requested_words=target_words,
        actual_words=len(text.split()),
        sim_time_s=seconds,
        energy_wh=energy,
    )
