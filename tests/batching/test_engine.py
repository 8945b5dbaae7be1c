"""BatchingEngine behaviour: windows, grouping, coalescing, lifecycle."""

import threading

import numpy as np
import pytest

from repro.batching import BatchingEngine, batch_step_share
from repro.devices import LAPTOP
from repro.genai.image import generate_image
from repro.genai.registry import get_image_model
from repro.obs import MetricsRegistry, Tracer, to_prometheus

MODEL = get_image_model("sd-3-medium")
SD21 = get_image_model("sd-2.1-base")


def _engine(**kwargs) -> BatchingEngine:
    kwargs.setdefault("max_batch", 8)
    kwargs.setdefault("max_wait_s", 0.05)
    return BatchingEngine(LAPTOP, **kwargs)


def test_concurrent_submissions_batch_together():
    engine = _engine()
    try:
        barrier = threading.Barrier(6)
        futures = {}

        def submit(prompt):
            barrier.wait()
            futures[prompt] = engine.submit_image(MODEL, prompt, 128, 128)

        threads = [threading.Thread(target=submit, args=(f"p{i}",)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for prompt, future in futures.items():
            solo = generate_image(MODEL, LAPTOP, prompt, 128, 128)
            assert np.array_equal(future.result(timeout=10).pixels, solo.pixels)
        assert engine.stats.largest_batch >= 2, "window never grouped anything"
        assert engine.stats.requests == 6
    finally:
        engine.close()


def test_incompatible_requests_never_share_a_batch():
    engine = _engine(max_wait_s=0.02)
    try:
        futures = [
            engine.submit_image(MODEL, "same model small", 64, 64),
            engine.submit_image(MODEL, "same model large", 128, 64),
            engine.submit_image(SD21, "other model", 64, 64),
            engine.submit_image(MODEL, "other steps", 64, 64, steps=30),
        ]
        results = [future.result(timeout=10) for future in futures]
        assert {(r.model, r.width, r.height, r.steps) for r in results} == {
            ("sd-3-medium", 64, 64, 15),
            ("sd-3-medium", 128, 64, 15),
            ("sd-2.1-base", 64, 64, 15),
            ("sd-3-medium", 64, 64, 30),
        }
        # Four distinct slots -> four batches, regardless of timing.
        assert engine.stats.batches == 4
        assert engine.stats.largest_batch == 1
    finally:
        engine.close()


def test_amortised_time_matches_curve():
    engine = _engine(alpha=0.15, max_wait_s=0.2)
    try:
        barrier = threading.Barrier(4)
        futures = []
        lock = threading.Lock()

        def submit(i):
            barrier.wait()
            future = engine.submit_image(MODEL, f"curve {i}", 96, 96)
            with lock:
                futures.append(future)

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        results = [future.result(timeout=10) for future in futures]
        solo = generate_image(MODEL, LAPTOP, "curve 0", 96, 96)
        if engine.stats.batches == 1:  # the expected case: one batch of 4
            share = batch_step_share(4, 0.15)
            for result in results:
                assert result.sim_time_s == pytest.approx(solo.sim_time_s * share)
        for result in results:  # regardless of realised grouping
            assert result.sim_time_s <= solo.sim_time_s + 1e-12
    finally:
        engine.close()


def test_submit_validation_and_close_semantics():
    engine = _engine()
    with pytest.raises(ValueError):
        engine.submit_image(MODEL, "tiny", 4, 4)
    with pytest.raises(ValueError):
        engine.submit_image(MODEL, "no steps", steps=0)
    pending = engine.submit_image(MODEL, "drain me", 64, 64)
    engine.close()
    assert pending.result(timeout=10).prompt == "drain me"  # close() drains
    with pytest.raises(RuntimeError):
        engine.submit_image(MODEL, "after close")
    engine.close()  # idempotent


def test_engine_error_propagates_to_every_waiter():
    engine = _engine(max_wait_s=0.2)
    try:
        # A model without a timing profile for the device fails at execute;
        # the exception must surface through the future, not kill the
        # dispatcher.
        dalle = get_image_model("dalle-3")
        failing = engine.submit_image(dalle, "server-only model", 64, 64)
        with pytest.raises(ValueError):
            failing.result(timeout=10)
        # Dispatcher survived: a follow-up request still completes.
        assert engine.submit_image(MODEL, "still alive", 64, 64).result(timeout=10)
    finally:
        engine.close()


def test_instruments_emitted():
    registry, tracer = MetricsRegistry(), Tracer()
    engine = BatchingEngine(LAPTOP, max_batch=4, max_wait_s=0.05, registry=registry, tracer=tracer)
    try:
        engine.submit_image(MODEL, "observed", 64, 64).result(timeout=10)
        engine.submit_image(MODEL, "observed", 64, 64).result(timeout=10)
    finally:
        engine.close()
    text = to_prometheus(registry)
    for family in (
        "batching_requests_total",
        "batching_queue_wait_seconds",
        "batching_batch_size",
        "batching_batches_total",
        "batching_saved_sim_seconds_total",
        "batching_efficiency",
    ):
        assert family in text, f"missing {family}"
    def walk(spans):
        for span in spans:
            yield span.name
            yield from walk(span.children)

    names = list(walk(tracer.roots()))
    assert "batch.execute" in names
    assert "genai.image_batch" in names
