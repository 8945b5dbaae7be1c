"""Tests for the preloaded generation pipeline (§4.1)."""

import pytest

from repro.devices import LAPTOP, WORKSTATION
from repro.genai.pipeline import GenerationPipeline, PipelineLoadCost


class TestPreloading:
    def test_preloaded_pays_load_once(self):
        pipeline = GenerationPipeline(WORKSTATION, preloaded=True)
        assert pipeline.reloads == 1
        first_overhead = pipeline.overhead_time_s
        for i in range(3):
            pipeline.generate_image(f"prompt {i}", 64, 64)
        assert pipeline.reloads == 1
        assert pipeline.overhead_time_s == first_overhead

    def test_non_preloaded_pays_per_invocation(self):
        """The §4.1 anti-pattern: 'it would otherwise need to be repeatedly
        deleted and reloaded within the media generator'."""
        pipeline = GenerationPipeline(WORKSTATION, preloaded=False)
        assert pipeline.reloads == 0
        for i in range(3):
            pipeline.generate_image(f"prompt {i}", 64, 64)
        assert pipeline.reloads == 3

    def test_text_calls_also_counted(self):
        pipeline = GenerationPipeline(WORKSTATION, preloaded=False)
        pipeline.expand_text("- a point", 100)
        assert pipeline.reloads == 1


class TestLoadCost:
    def test_laptop_loads_slower_than_workstation(self):
        cost = PipelineLoadCost()
        assert cost.load_time_s(LAPTOP) > cost.load_time_s(WORKSTATION)

    def test_load_time_scales_with_weights(self):
        small = PipelineLoadCost(weights_bytes=1_000_000_000)
        big = PipelineLoadCost(weights_bytes=4_000_000_000)
        assert big.load_time_s(WORKSTATION) == pytest.approx(4 * small.load_time_s(WORKSTATION))

    def test_load_energy_positive(self):
        assert PipelineLoadCost().load_energy_wh(LAPTOP) > 0


class TestGenerationDelegation:
    def test_image_result_carries_device(self):
        pipeline = GenerationPipeline(LAPTOP)
        result = pipeline.generate_image("a fjord", 64, 64)
        assert result.device == "laptop"
        assert result.model == pipeline.image_model.name

    def test_text_result_carries_model(self):
        pipeline = GenerationPipeline(WORKSTATION)
        result = pipeline.expand_text("- a quiet fjord\n- morning mist", 120, "landscape")
        assert result.model == pipeline.text_model.name
        assert result.actual_words > 0

    def test_invocation_counter(self):
        pipeline = GenerationPipeline(WORKSTATION)
        pipeline.generate_image("x", 64, 64)
        pipeline.expand_text("- y", 50)
        assert pipeline.invocations == 2
