"""Batched kernels vs the solo pipeline: bytes identical, time amortised.

The whole tentpole rests on one invariant — batching may only change
*when* work happens and what it costs in simulated time, never what the
bytes are. Each test here compares ``generate_image_batch`` output
against per-item ``generate_image`` calls.
"""

import numpy as np
import pytest

from repro.devices import LAPTOP, WORKSTATION
from repro.genai.image import (
    batch_step_share,
    generate_image,
    generate_image_batch,
)
from repro.genai.registry import get_image_model
from tests.helpers import png_bytes

MODEL = get_image_model("sd-3-medium")

PROMPTS = [
    "a red fox in snow",
    "city skyline at dusk",
    "",  # empty prompt: the noise-only branch
    "a red fox in snow",  # duplicate inside one batch
    "ancient library",
    "!!",  # tokenises to nothing
    "ocean waves macro",
    "desert highway at noon",
]


@pytest.mark.parametrize("batch_size", [1, 2, 3, 5, 8])
def test_pixels_and_png_byte_identical(batch_size):
    solo = [generate_image(MODEL, LAPTOP, p, 256, 256) for p in PROMPTS[:batch_size]]
    batch = generate_image_batch(MODEL, LAPTOP, PROMPTS[:batch_size], 256, 256, alpha=0.15)
    for s, b in zip(solo, batch):
        assert np.array_equal(s.pixels, b.pixels)
        assert png_bytes(s) == png_bytes(b)
        assert (s.prompt, s.model, s.device, s.steps) == (b.prompt, b.model, b.device, b.steps)


@pytest.mark.parametrize("size", [(16, 16), (40, 56), (100, 30), (224, 224)])
def test_odd_sizes_byte_identical(size):
    width, height = size
    solo = [generate_image(MODEL, LAPTOP, p, width, height) for p in PROMPTS[:3]]
    batch = generate_image_batch(MODEL, LAPTOP, PROMPTS[:3], width, height, alpha=0.15)
    for s, b in zip(solo, batch):
        assert np.array_equal(s.pixels, b.pixels)


def test_explicit_seeds_and_steps_byte_identical():
    seeds = [7, None, 123456]
    solo = [
        generate_image(MODEL, WORKSTATION, p, 128, 128, steps=30, seed=seed)
        for p, seed in zip(PROMPTS[:3], seeds)
    ]
    batch = generate_image_batch(
        MODEL, WORKSTATION, PROMPTS[:3], 128, 128, steps=30, seeds=seeds, alpha=0.15
    )
    for s, b in zip(solo, batch):
        assert np.array_equal(s.pixels, b.pixels)


def test_batch_of_one_is_time_and_energy_identical():
    """The B=1 acceptance criterion, at every alpha."""
    solo = generate_image(MODEL, WORKSTATION, "cold path", 512, 512)
    for alpha in (0.0, 0.15, 0.5, 1.0):
        batched = generate_image_batch(MODEL, WORKSTATION, ["cold path"], 512, 512, alpha=alpha)[0]
        assert batched.sim_time_s == solo.sim_time_s
        assert batched.energy_wh == solo.energy_wh
        assert np.array_equal(batched.pixels, solo.pixels)


def test_amortisation_curve():
    solo = generate_image(MODEL, LAPTOP, PROMPTS[0], 256, 256)
    batch = generate_image_batch(MODEL, LAPTOP, PROMPTS, 256, 256, alpha=0.15)
    share = batch_step_share(len(PROMPTS), 0.15)
    for b in batch:
        assert b.sim_time_s == pytest.approx(solo.sim_time_s * share, rel=1e-12)
    # alpha=1 means no amortisation at all.
    flat = generate_image_batch(MODEL, LAPTOP, PROMPTS[:4], 256, 256, alpha=1.0)
    assert all(b.sim_time_s == solo.sim_time_s for b in flat)


def test_batch_step_share_properties():
    assert batch_step_share(1, 0.15) == 1.0
    assert batch_step_share(8, 0.0) == pytest.approx(1 / 8)
    assert batch_step_share(8, 1.0) == 1.0
    # Monotone: bigger batches never cost more per item.
    shares = [batch_step_share(b, 0.15) for b in range(1, 33)]
    assert shares == sorted(shares, reverse=True)
    with pytest.raises(ValueError):
        batch_step_share(0, 0.15)
    with pytest.raises(ValueError):
        batch_step_share(4, 1.5)


def test_validation_matches_solo():
    with pytest.raises(ValueError):
        generate_image_batch(MODEL, LAPTOP, ["x"], 8, 8)
    with pytest.raises(ValueError):
        generate_image_batch(MODEL, LAPTOP, ["x"], steps=0)
    with pytest.raises(ValueError):
        generate_image_batch(MODEL, LAPTOP, ["x", "y"], seeds=[1])
    assert generate_image_batch(MODEL, LAPTOP, []) == []
