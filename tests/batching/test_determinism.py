"""Batched-vs-sequential determinism (the satellite acceptance test).

For any admission order and any ``max_batch``, every request's pixels,
PNG bytes and metrics-relevant embeddings must be byte-identical to the
solo path. Admission order and realised grouping are timing-dependent;
the *outputs* must not be.
"""

import itertools
import threading

import numpy as np

from repro.batching import BatchingEngine
from repro.devices import LAPTOP
from repro.genai.embeddings import image_embedding
from repro.genai.image import generate_image
from repro.genai.registry import get_image_model
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.workloads import build_travel_blog
from tests.helpers import png_bytes

MODEL = get_image_model("sd-3-medium")

PROMPTS = ["alpha ridge", "beta cove", "gamma steppe", "delta falls"]


def _solo_reference():
    return {
        prompt: generate_image(MODEL, LAPTOP, prompt, 64, 64) for prompt in PROMPTS
    }


def test_any_admission_order_any_max_batch():
    reference = _solo_reference()
    orders = list(itertools.permutations(PROMPTS))[:8]
    for max_batch in (1, 2, 3, 4):
        engine = BatchingEngine(LAPTOP, max_batch=max_batch, max_wait_s=0.01)
        try:
            for order in orders:
                futures = {p: engine.submit_image(MODEL, p, 64, 64) for p in order}
                for prompt, future in futures.items():
                    result = future.result(timeout=10)
                    want = reference[prompt]
                    assert np.array_equal(result.pixels, want.pixels), (max_batch, order)
                    assert png_bytes(result) == png_bytes(want)
                    # The metrics-relevant embedding: what CLIP-style
                    # scoring recovers from the delivered pixels.
                    assert (
                        image_embedding(result.pixels).tobytes()
                        == image_embedding(want.pixels).tobytes()
                    )
        finally:
            engine.close()


def test_racy_admission_is_still_byte_identical():
    reference = _solo_reference()
    engine = BatchingEngine(LAPTOP, max_batch=3, max_wait_s=0.02)
    try:
        barrier = threading.Barrier(len(PROMPTS))
        futures = {}
        lock = threading.Lock()

        def submit(prompt):
            barrier.wait()
            future = engine.submit_image(MODEL, prompt, 64, 64)
            with lock:
                futures[prompt] = future

        for _round in range(3):
            threads = [threading.Thread(target=submit, args=(p,)) for p in PROMPTS]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for prompt, future in futures.items():
                assert np.array_equal(future.result(timeout=10).pixels, reference[prompt].pixels)
    finally:
        engine.close()


def _fetch(client, page):
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    server = GenerativeServer(store)
    return client.fetch_via_pair(connect_in_memory(client, server), page.path)


def test_full_stack_page_identical_with_engine():
    """Client + engine vs plain client: same assets, same rendered page."""
    page = build_travel_blog()
    plain = _fetch(GenerativeClient(device=LAPTOP), page)
    engine = BatchingEngine(LAPTOP, max_batch=8, max_wait_s=0.03)
    try:
        batched = _fetch(GenerativeClient(device=LAPTOP, engine=engine), page)
    finally:
        engine.close()
    assert dict(batched.report.assets) == dict(plain.report.assets)
    assert batched.rendered == plain.rendered
    assert batched.final_html == plain.final_html
    # Amortisation may only ever lower the simulated bill.
    assert batched.generation_time_s <= plain.generation_time_s + 1e-9
