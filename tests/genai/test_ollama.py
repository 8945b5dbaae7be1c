"""Tests for the Ollama-shaped API layer."""

import pytest

from repro.devices import WORKSTATION
from repro.genai.ollama_api import OllamaClient, OllamaEndpoint


@pytest.fixture
def client() -> OllamaClient:
    return OllamaClient(OllamaEndpoint(WORKSTATION))


class TestGenerate:
    def test_response_shape(self, client):
        response = client.post_generate(
            "deepseek-r1-8b", "- a fjord at dawn\nExpand the points above into 100 words."
        )
        assert set(response) >= {"model", "response", "done", "total_duration", "eval_count"}
        assert response["done"] is True
        assert response["model"] == "deepseek-r1-8b"

    def test_word_target_parsed_from_prompt(self, client):
        response = client.post_generate(
            "deepseek-r1-8b", "- point one\nExpand the points above into 200 words."
        )
        assert abs(response["eval_count"] - 200) <= 40  # within the 20% overshoot

    def test_default_target_when_unspecified(self, client):
        response = client.post_generate("deepseek-r1-8b", "- just bullets, no length")
        assert response["eval_count"] > 50

    def test_duration_in_nanoseconds(self, client):
        response = client.post_generate(
            "deepseek-r1-8b", "- a point\nExpand the points above into 250 words."
        )
        assert response["total_duration"] == pytest.approx(13.0e9, rel=0.08)

    def test_unknown_model_rejected(self, client):
        with pytest.raises(KeyError):
            client.post_generate("gpt-99", "- x")

    def test_empty_prompt_rejected(self, client):
        with pytest.raises(ValueError):
            client.post_generate("deepseek-r1-8b", "")

    def test_topic_option_respected(self, client):
        response = client.post_generate(
            "deepseek-r1-8b",
            "- menu pairing\nExpand the points above into 120 words.",
            options={"topic": "food"},
        )
        assert response["response"]

    def test_endpoint_counts_requests(self, client):
        client.post_generate("llama-3.2", "- a\n50 words")
        client.post_generate("llama-3.2", "- b\n50 words")
        assert client.endpoint.requests_served == 2
