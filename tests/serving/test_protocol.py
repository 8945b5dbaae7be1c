"""Control-pipe frames, registry dump/merge, and per-worker namespacing."""

import asyncio
import json
import os
import struct

import pytest

from repro.obs import (
    EventLog,
    IdSource,
    MetricsRegistry,
    dump_registry,
    load_registry,
    merge_registry_dumps,
)
from repro.serving.protocol import FrameError, encode_frame, read_frame


# ---------------------------------------------------------------------- #
# Frames
# ---------------------------------------------------------------------- #


def test_frame_roundtrip_through_pipe():
    docs = [
        {"type": "hello", "worker": 1234},
        {"type": "heartbeat", "worker": 1234, "requests": 7, "generation_sim_s": 1.5},
        {"type": "bye", "worker": 1234, "exit": "drain"},
    ]
    read_fd, write_fd = os.pipe()
    for doc in docs:
        os.write(write_fd, encode_frame(doc))
    os.close(write_fd)

    async def drain():
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        protocol = asyncio.StreamReaderProtocol(reader)
        transport, _ = await loop.connect_read_pipe(
            lambda: protocol, os.fdopen(read_fd, "rb", buffering=0)
        )
        frames = []
        while True:
            frame = await read_frame(reader)
            if frame is None:
                break
            frames.append(frame)
        transport.close()
        return frames

    assert asyncio.run(drain()) == docs


def _read_fed(data: bytes) -> dict | None:
    """``read_frame`` over a reader that was fed ``data`` then EOF."""

    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(read())


def test_frames_without_type_are_rejected():
    payload = json.dumps({"no_type": True}).encode()
    with pytest.raises(FrameError):
        _read_fed(struct.pack(">I", len(payload)) + payload)


def test_oversized_frame_header_is_rejected():
    with pytest.raises(FrameError):
        _read_fed(struct.pack(">I", 1 << 30) + b"x" * 16)


# ---------------------------------------------------------------------- #
# sww-metrics/1 dump / load / merge
# ---------------------------------------------------------------------- #


def _populated_registry(scale: int = 1) -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("http2_frames_total", "frames", layer="http2", operation="send").inc(
        10 * scale
    )
    registry.gauge("sww_streams_inflight", "streams", layer="sww").set(2 * scale)
    hist = registry.histogram(
        "sww_generation_seconds", "gen", buckets=(0.1, 1.0, 10.0), layer="sww",
        operation="materialise",
    )
    for value in (0.05, 0.5, 5.0):
        hist.observe(value * scale)
    return registry


def test_dump_load_roundtrip():
    registry = _populated_registry()
    doc = dump_registry(registry)
    clone = load_registry(doc)
    assert dump_registry(clone) == doc


def test_merge_sums_counters_and_histograms():
    merged = merge_registry_dumps(
        [dump_registry(_populated_registry()), dump_registry(_populated_registry())]
    )
    assert merged.value("http2_frames_total", layer="http2", operation="send") == 20
    # Occupancy gauges sum across workers.
    assert merged.value("sww_streams_inflight", layer="sww") == 4
    hist = merged.histogram(
        "sww_generation_seconds", buckets=(0.1, 1.0, 10.0), layer="sww",
        operation="materialise",
    )
    assert hist._count == 6
    assert hist._sum == pytest.approx(2 * (0.05 + 0.5 + 5.0))


def test_load_rejects_wrong_format_and_bucket_drift():
    with pytest.raises(ValueError):
        load_registry({"format": "not-metrics", "families": {}, "instruments": []})
    base = dump_registry(_populated_registry())
    target = load_registry(base)
    drifted = dump_registry(_populated_registry())
    for instrument in drifted["instruments"]:
        if "buckets" in instrument:
            instrument["buckets"] = [0.2, 2.0, 20.0]
    with pytest.raises(ValueError):
        load_registry(drifted, into=target)


# ---------------------------------------------------------------------- #
# Per-worker namespacing (the seq/seed collision fix)
# ---------------------------------------------------------------------- #


def test_id_source_namespace_separates_seeded_streams():
    base = IdSource(seed=42)
    worker_a = IdSource(seed=42, namespace=1001)
    worker_b = IdSource(seed=42, namespace=1002)
    ids = lambda source: [source.trace_id() for _ in range(32)]  # noqa: E731
    a, b, plain = ids(worker_a), ids(worker_b), ids(base)
    assert not set(a) & set(b)
    assert not set(a) & set(plain)
    # Deterministic: the same (seed, namespace) replays the same stream.
    assert ids(IdSource(seed=42, namespace=1001)) == a


def test_id_source_unseeded_ignores_namespace():
    # OS entropy is already collision-free; a namespace must not make an
    # unseeded source deterministic (recycled pids would collide).
    a = IdSource(namespace=7)
    b = IdSource(namespace=7)
    assert a.trace_id() != b.trace_id()


def test_event_log_stamps_worker_and_isolated_seqs():
    log_a = EventLog(worker_id=101)
    log_b = EventLog(worker_id=202)
    for log in (log_a, log_b):
        for _ in range(3):
            log.begin("server.request", path="/x").finish(status=200)
    events = [e.to_dict() for e in log_a.events()] + [e.to_dict() for e in log_b.events()]
    keys = [(e["worker"], e["seq"]) for e in events]
    assert len(set(keys)) == len(keys)
    assert sorted(keys) == [(101, 1), (101, 2), (101, 3), (202, 1), (202, 2), (202, 3)]
    # Without a worker id the field is absent (single-process shape).
    plain = EventLog()
    record = plain.begin("server.request", path="/y").finish(status=200)
    assert "worker" not in record.to_dict()
