"""Regression: ``ImageResult.png_future()`` must encode exactly once.

Before the fix, two pool workers could race the ``_png_cache is None``
check and both run the encoder (the batching engine pipelines encodes on
a worker pool while page processors may request the same bytes). The
barrier below lines threads up on the unfilled cache; a counting encoder
proves single execution.
"""

import threading

import numpy as np

import repro.genai.image as image_module
from repro.devices import LAPTOP
from repro.genai.image import generate_image
from repro.genai.registry import get_image_model
from tests.helpers import png_bytes


def test_png_bytes_encodes_once_under_contention(monkeypatch):
    result = generate_image(get_image_model("sd-3-medium"), LAPTOP, "race", 64, 64)
    real_encode = image_module.encode_png
    calls = []
    started = threading.Barrier(8)

    def counting_encode(pixels, *args, **kwargs):
        calls.append(threading.get_ident())
        return real_encode(pixels, *args, **kwargs)

    monkeypatch.setattr(image_module, "encode_png", counting_encode)

    outputs = []

    def hammer():
        started.wait()
        outputs.append(png_bytes(result))

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert len(calls) == 1, f"encoded {len(calls)} times under contention"
    assert len(set(outputs)) == 1
    assert np.array_equal(result.pixels, result.pixels)  # cache never mutates pixels
    assert outputs[0] == real_encode(result.pixels)
