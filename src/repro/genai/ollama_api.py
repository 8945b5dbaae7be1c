"""An Ollama-shaped local text-generation API.

The paper's prototype reaches its text-to-text models "by sending requests
to the Ollama API using the requests library" (§4.1). To mirror that access
path without the real daemon, :class:`OllamaEndpoint` exposes the same
request/response shape (``/api/generate``) as plain-Python
calls, backed by the text simulator. :class:`OllamaClient` is the
requests-style caller the media generator uses, so swapping in a real
Ollama deployment means changing one constructor.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from repro.devices.profiles import DeviceProfile, WORKSTATION
from repro.genai.registry import get_text_model
from repro.genai.text import expand_text
from repro.obs import NULL_REGISTRY, NULL_TRACER, MetricsRegistry, Tracer

_WORDS_RE = re.compile(r"(\d+)\s*words?", re.IGNORECASE)
DEFAULT_TARGET_WORDS = 150


@dataclass
class OllamaResponse:
    """Mirror of Ollama's /api/generate response fields we consume."""

    model: str
    response: str
    done: bool
    total_duration_ns: int
    eval_count: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "model": self.model,
                "response": self.response,
                "done": self.done,
                "total_duration": self.total_duration_ns,
                "eval_count": self.eval_count,
            }
        )


class OllamaEndpoint:
    """The server side: dispatches generate calls to the simulator."""

    def __init__(
        self,
        device: DeviceProfile = WORKSTATION,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.device = device
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.requests_served = 0
        self.last_energy_wh = 0.0

    def generate(self, payload: dict) -> OllamaResponse:
        """Equivalent of POST /api/generate.

        The prompt is expected to contain bullet points and optionally a
        "... N words" instruction, the shape the SWW metadata produces.
        """
        model_name = payload.get("model", "")
        prompt = payload.get("prompt", "")
        if not prompt:
            raise ValueError("empty prompt")
        model = get_text_model(model_name)
        match = _WORDS_RE.search(prompt)
        target = int(match.group(1)) if match else DEFAULT_TARGET_WORDS
        topic = payload.get("options", {}).get("topic", "technology")
        result = expand_text(
            model, self.device, prompt, target, topic, registry=self.registry, tracer=self.tracer
        )
        self.requests_served += 1
        self.last_energy_wh = result.energy_wh
        return OllamaResponse(
            model=model_name,
            response=result.text,
            done=True,
            total_duration_ns=int(result.sim_time_s * 1e9),
            eval_count=result.actual_words,
        )


class OllamaClient:
    """The client side, mirroring ``requests.post(url, json=...)`` usage."""

    def __init__(self, endpoint: OllamaEndpoint) -> None:
        self.endpoint = endpoint

    def post_generate(self, model: str, prompt: str, options: dict | None = None) -> dict:
        """Send a generate request; returns the decoded JSON response."""
        payload = {"model": model, "prompt": prompt, "stream": False}
        if options:
            payload["options"] = options
        response = self.endpoint.generate(payload)
        return json.loads(response.to_json())
