"""Tests for the latent-diffusion simulator."""

import numpy as np
import pytest

from repro.devices import LAPTOP, WORKSTATION
from repro.genai.image import generate_image, random_image
from repro.genai.registry import DALLE3, SD3_MEDIUM, SD21, SD35_MEDIUM
from repro.metrics.clip import clip_score
from tests.helpers import png_bytes


class TestGeneration:
    def test_output_shape_and_dtype(self):
        result = generate_image(SD3_MEDIUM, WORKSTATION, "a fjord", 128, 96, 15)
        assert result.pixels.shape == (96, 128, 3)
        assert result.pixels.dtype == np.uint8

    def test_deterministic_for_same_inputs(self):
        a = generate_image(SD3_MEDIUM, WORKSTATION, "a fjord", 64, 64, 15)
        b = generate_image(SD3_MEDIUM, WORKSTATION, "a fjord", 64, 64, 15)
        assert np.array_equal(a.pixels, b.pixels)
        assert a.sim_time_s == b.sim_time_s

    def test_different_prompts_different_pixels(self):
        a = generate_image(SD3_MEDIUM, WORKSTATION, "a fjord", 64, 64, 15)
        b = generate_image(SD3_MEDIUM, WORKSTATION, "a desert", 64, 64, 15)
        assert not np.array_equal(a.pixels, b.pixels)

    def test_explicit_seed_varies_output(self):
        a = generate_image(SD3_MEDIUM, WORKSTATION, "a fjord", 64, 64, 15, seed=1)
        b = generate_image(SD3_MEDIUM, WORKSTATION, "a fjord", 64, 64, 15, seed=2)
        assert not np.array_equal(a.pixels, b.pixels)

    def test_below_minimum_size_rejected(self):
        with pytest.raises(ValueError):
            generate_image(SD3_MEDIUM, WORKSTATION, "x", 8, 8)

    def test_nonpositive_steps_rejected(self):
        with pytest.raises(ValueError):
            generate_image(SD3_MEDIUM, WORKSTATION, "x", 64, 64, 0)

    def test_png_bytes_cached_and_valid(self):
        result = generate_image(SD3_MEDIUM, WORKSTATION, "a fjord", 32, 32, 15)
        assert png_bytes(result) is png_bytes(result)
        assert png_bytes(result).startswith(b"\x89PNG")


class TestTiming:
    def test_time_linear_in_steps(self):
        """§6.3.1: 'generation time increasing linearly with the number of
        steps'."""
        t10 = generate_image(SD3_MEDIUM, WORKSTATION, "x", 224, 224, 10).sim_time_s
        t60 = generate_image(SD3_MEDIUM, WORKSTATION, "x", 224, 224, 60).sim_time_s
        assert t60 == pytest.approx(6 * t10, rel=0.01)

    def test_table1_step_times(self):
        """Table 1's time/step column at 224×224."""
        cases = [
            (SD21, LAPTOP, 0.18), (SD21, WORKSTATION, 0.02),
            (SD3_MEDIUM, LAPTOP, 0.38), (SD3_MEDIUM, WORKSTATION, 0.05),
            (SD35_MEDIUM, LAPTOP, 0.59), (SD35_MEDIUM, WORKSTATION, 0.06),
        ]
        for model, device, expected in cases:
            result = generate_image(model, device, "x", 224, 224, 15)
            assert result.sim_time_s / 15 == pytest.approx(expected, rel=0.01)

    def test_sd3_faster_than_sd35(self):
        """§6.3.1: SD 3 'is 35% faster on a laptop and 13% faster on the
        workstation' than SD 3.5."""
        laptop_ratio = 1 - SD3_MEDIUM.step_time_224["laptop"] / SD35_MEDIUM.step_time_224["laptop"]
        wk_ratio = 1 - SD3_MEDIUM.step_time_224["workstation"] / SD35_MEDIUM.step_time_224["workstation"]
        assert laptop_ratio == pytest.approx(0.35, abs=0.02)
        assert wk_ratio == pytest.approx(0.13, abs=0.05)

    def test_server_only_model_has_no_laptop_time(self):
        with pytest.raises(ValueError):
            generate_image(DALLE3, LAPTOP, "x", 64, 64)

    def test_energy_positive_and_scales(self):
        small = generate_image(SD3_MEDIUM, LAPTOP, "x", 256, 256, 15)
        large = generate_image(SD3_MEDIUM, LAPTOP, "x", 1024, 1024, 15)
        assert 0 < small.energy_wh < large.energy_wh


class TestQuality:
    def test_fidelity_ordering_preserved_in_clip(self):
        """Better models must produce higher CLIP-sim, per Table 1."""
        prompt = "a landscape photograph of a glacier tongue above a gravel valley"
        scores = {}
        for model in (SD21, SD3_MEDIUM, DALLE3):
            device = WORKSTATION if not model.server_only else None
            from repro.devices import CLOUD

            result = generate_image(model, device or CLOUD, prompt, 224, 224, 15)
            scores[model.name] = clip_score(prompt, result.pixels)
        assert scores["sd-2.1-base"] < scores["sd-3-medium"] < scores["dalle-3"]

    def test_more_steps_slightly_better(self):
        assert SD3_MEDIUM.effective_fidelity(60) > SD3_MEDIUM.effective_fidelity(10)

    def test_step_scaling_changes_clip_only_minorly(self):
        """§6.3.1: 'only minor changes to CLIP score' from 10 to 60 steps."""
        delta = SD3_MEDIUM.effective_fidelity(60) - SD3_MEDIUM.effective_fidelity(10)
        assert 0 < delta < 0.1

    def test_few_steps_degrade_quality(self):
        assert SD3_MEDIUM.effective_fidelity(2) < SD3_MEDIUM.effective_fidelity(15) * 0.9


class TestRandomImage:
    def test_deterministic(self):
        assert np.array_equal(random_image(32, 32, 5), random_image(32, 32, 5))

    def test_clip_floor(self):
        """§6.3.1: random image CLIP ≈ 0.09."""
        prompts = [f"a photograph of scene {i} with mountains and water" for i in range(6)]
        scores = [clip_score(p, random_image(224, 224, i)) for i, p in enumerate(prompts)]
        assert 0.05 < float(np.mean(scores)) < 0.13


def _render_content_oracle(vector, width, height, seed):
    """``render_content`` as first written, with full-frame temporaries:
    the reference the in-place kernel must match byte for byte."""
    from repro.genai.embeddings import GRID, embed_vector_to_blocks

    plane = embed_vector_to_blocks(vector)
    bh = max(1, height // GRID)
    bw = max(1, width // GRID)
    red = np.repeat(np.repeat(plane, bh, axis=0), bw, axis=1)
    red = red[:height, :width]
    if red.shape[0] < height or red.shape[1] < width:
        red = np.pad(red, ((0, height - red.shape[0]), (0, width - red.shape[1])), mode="edge")
    rng = np.random.default_rng(seed ^ 0x5EED)
    ys = np.linspace(0, 2 * np.pi, height)[:, None]
    xs = np.linspace(0, 2 * np.pi, width)[None, :]
    phase_y, phase_x = rng.uniform(0, 2 * np.pi, 2)
    green = (127.5 * (1 + np.sin(ys * rng.integers(1, 4) + phase_y)) * np.ones((1, width))).astype(np.uint8)
    blue = (127.5 * (1 + np.sin(xs * rng.integers(1, 3) + phase_x)) * np.ones((height, 1))).astype(np.uint8)
    if bh >= 2 and bw >= 2:
        texture = rng.integers(-3, 4, size=(height, width)).astype(np.int16)
        gh, gw = (height // GRID) * GRID, (width // GRID) * GRID
        sub = texture[:gh, :gw].reshape(GRID, gh // GRID, GRID, gw // GRID)
        sub -= sub.mean(axis=(1, 3), keepdims=True).astype(np.int16)
        texture[:gh, :gw] = sub.reshape(gh, gw)
        texture[gh:, :] = 0
        texture[:, gw:] = 0
        red = np.clip(red.astype(np.int16) + texture, 0, 255).astype(np.uint8)
    return np.stack([red, green, blue], axis=2)


class TestRenderContentOracle:
    """The kernel writes one output array in place; its bytes are the
    oracle's for every size at or above the grid, multiples of it or not."""

    SIZES = [(16, 16), (17, 17), (31, 31), (32, 32), (64, 64), (100, 37), (192, 192), (256, 256), (512, 384)]

    @pytest.mark.parametrize("width, height", SIZES, ids=[f"{w}x{h}" for w, h in SIZES])
    def test_matches_the_full_frame_formula(self, width, height):
        from repro.genai.image import _content_vector, render_content

        for seed in range(50):
            # Vectors as generation makes them, over the fidelity range.
            vector = _content_vector(f"prompt {seed}", 0.05 + 0.93 * seed / 49, seed)
            got = render_content(vector, width, height, seed)
            want = _render_content_oracle(vector, width, height, seed)
            assert got.shape == want.shape == (height, width, 3) and got.dtype == np.uint8
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes(), f"seed {seed}"
