"""The benchmark's named metrics: what each is called, its unit, which way
is better, its regression bound, and how it is computed from a run.

``BENCHMARK.json`` at the repo root is exactly :func:`benchmark_json`;
``bench/selftest.py`` checks the two agree.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from stats import percentile
from workloads import WORKLOADS, Measurement


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which an end-to-end metric may
    #: worsen before a change counts as a regression; None per layer.
    bound: float | None = None
    what: str = ""
    #: Which end-to-end metric this layer metric should move, and where.
    moves: tuple[str, str] | None = None


#: How long one run measures, seconds (the driver passes it back as --seconds).
RUN_SECONDS = 10

#: Why 0.25 on the timing metrics: sets of ten identical 10-second runs on
#: the shared 2-core host this was written on spread (interquartile distance
#: over median) by up to 0.22 on hits_small, 0.19 on pageload_traditional
#: and zipf_views_w2 and 0.23 on fleet_replay, and the same code read
#: 20-25 % slower for minutes at a time (README, "Why the four timing
#: bounds are 0.25").
END_TO_END: tuple[Metric, ...] = (
    Metric(
        "setup_s", "s", "lower", 0.25,
        "launch of `sww serve` to its first verified 200 (fleet_replay: fleet build plus the "
        "cold pass); median of the run's set-ups",
    ),
    Metric(
        "ops_per_s", "1/s", "higher", 0.25,
        "verified ops completed per second of measured wall time; on the open loop it equals "
        "the offered rate and a drop means a growing backlog",
    ),
    Metric(
        "latency_ms_p50", "ms", "lower", 0.25,
        "median wall time of one op, timed from its due time on the open loop; fleet_replay "
        "has no per-request wall latency and reports its median pass's wall time per request",
    ),
    Metric(
        "slo_ok_ratio", "ratio", "higher", 0.05,
        "share of attempted ops that finished correct within the workload's latency limit; a "
        "failed, refused or timed-out op misses",
    ),
    Metric(
        "cpu_ms_per_op", "ms", "lower", 0.25,
        "utime+stime of the whole server process tree plus process_time of the bench process "
        "(the load generator, and on pageload_generative and fleet_replay the system under "
        "test), over the measured phase, per op; the split is in the per-layer list",
    ),
    Metric(
        "rss_mb", "MB", "lower", 0.15,
        "resident memory of the server tree plus the bench process after a fixed number of "
        "measured ops, so it compares across runs whatever the op rate",
    ),
    Metric(
        "payload_bytes_per_op", "B", "lower", 0.05,
        "response body bytes per op, exact for a seed; pageload_traditional over "
        "pageload_generative is the paper's compression ratio",
    ),
)


def _seam_metrics() -> tuple[Metric, ...]:
    # Imported here so the untraced run never loads the seam table.
    from seams import SEAMS

    moves = {
        "http2": ("cpu_ms_per_op", "hits_small"),
        "sww": ("cpu_ms_per_op", "hits_small"),
        "obs": ("cpu_ms_per_op", "hits_small"),
        "html": ("latency_ms_p50", "pageload_generative"),
        "media": ("latency_ms_p50", "pageload_generative"),
        "genai": ("latency_ms_p50", "pageload_generative"),
        "gencache": ("cpu_ms_per_op", "zipf_views_w2"),
        "batching": ("cpu_ms_per_op", "zipf_views_w2"),
        "cdn": ("ops_per_s", "fleet_replay"),
        "workloads": ("ops_per_s", "fleet_replay"),
    }
    out = []
    for seam in SEAMS:
        target = moves[seam.layer]
        if seam.nbytes is not None and seam.layer == "http2":
            target = ("latency_ms_p50", "pageload_traditional")
        out.append(Metric(f"{seam.name}.calls_per_op", "count", "lower", moves=target))
        out.append(Metric(f"{seam.name}.self_us_per_op", "us", "lower", moves=target))
        if seam.nbytes is not None:
            out.append(Metric(f"{seam.name}.mb_per_s", "MB/s", "higher", moves=target))
    return tuple(out)


OUTSIDE: tuple[Metric, ...] = (
    Metric("serving.master.cpu_ms_per_op", "ms", "lower",
           what="CPU of the `sww serve` master process per op (the only process when --workers 1)",
           moves=("cpu_ms_per_op", "zipf_views_w2")),
    Metric("serving.workers.cpu_ms_per_op", "ms", "lower",
           what="CPU of all forked workers per op; 0 without workers",
           moves=("cpu_ms_per_op", "zipf_views_w2")),
    Metric("serving.worker_cpu_imbalance", "ratio", "lower",
           what="busiest worker's CPU over the idlest's; 0 without workers",
           moves=("latency_ms_p50", "zipf_views_w2")),
    Metric("http2.connect_ms_p50", "ms", "lower",
           what="TCP connect to SETTINGS acknowledged on the raw client; 0 where it opens none",
           moves=("latency_ms_p50", "pageload_traditional")),
    Metric("gencache.hit_ratio", "ratio", "higher",
           what="1 - genai.image.generate calls / gencache.lookup calls in the traced replay",
           moves=("cpu_ms_per_op", "zipf_views_w2")),
    Metric("sww.first_touch_ratio", "ratio", "lower",
           what="share of the tape's views that are the first of their page (generation work offered)",
           moves=("cpu_ms_per_op", "zipf_views_w2")),
    Metric("obs.rss_kb_per_kop", "kB", "lower",
           what="server-tree resident growth per 1000 measured ops",
           moves=("rss_mb", "hits_small")),
    Metric("loadgen.client_cpu_ms_per_op", "ms", "lower",
           what="process_time of the bench process per op"),
    Metric("loadgen.latency_ms_p90", "ms", "lower", what="tail, reported but never gated"),
    Metric("loadgen.latency_ms_p99", "ms", "lower", what="tail, reported but never gated"),
    Metric("loadgen.late_ms_p99", "ms", "lower",
           what="how late the open-loop generator fired; 0 on closed loops"),
    Metric("loadgen.error_ratio", "ratio", "lower",
           what="failed, refused, timed-out or hash-mismatched ops over attempted; must be 0"),
    Metric("loadgen.host_score", "1/s", "higher",
           what="calibration loops per second around the run; normalises wall numbers across hosts"),
    Metric("loadgen.trace_overhead_ratio", "ratio", "lower",
           what="traced over untraced in-process latency for the same replayed ops"),
    Metric("loadgen.unattributed_us_per_op", "us", "lower",
           what="traced op time no seam span covers (event loop, sockets, scheduling)"),
)


def per_layer_metrics() -> tuple[Metric, ...]:
    return _seam_metrics() + OUTSIDE


def end_to_end(m: Measurement, setup_s: float) -> dict[str, float]:
    """The named end-to-end values of one measured phase."""
    ops = m.ops
    server_cpu_s = m.master_cpu_s + sum(m.worker_cpu_s)
    return {
        "setup_s": setup_s,
        "ops_per_s": ops / m.wall_s,
        "latency_ms_p50": statistics.median(m.latencies_ms),
        "slo_ok_ratio": m.within_limit / m.attempted,
        "cpu_ms_per_op": (server_cpu_s + m.client_cpu_s) * 1000.0 / ops,
        "rss_mb": m.rss_at_mark_kb / 1024.0,
        "payload_bytes_per_op": m.payload_bytes / ops,
    }


def outside(m: Measurement, host_score: float) -> dict[str, float]:
    """Per-layer values measured from outside the program, without seams."""
    ops = m.ops
    workers = m.worker_cpu_s
    imbalance = max(workers) / min(workers) if len(workers) > 1 and min(workers) > 0 else 0.0
    return {
        "serving.master.cpu_ms_per_op": m.master_cpu_s * 1000.0 / ops,
        "serving.workers.cpu_ms_per_op": sum(workers) * 1000.0 / ops,
        "serving.worker_cpu_imbalance": imbalance,
        "http2.connect_ms_p50": statistics.median(m.connect_ms) if m.connect_ms else 0.0,
        "sww.first_touch_ratio": m.first_touch_ratio,
        "obs.rss_kb_per_kop": (m.server_rss_end_kb - m.server_rss_begin_kb) * 1000.0 / ops,
        "loadgen.client_cpu_ms_per_op": m.client_cpu_s * 1000.0 / ops,
        "loadgen.latency_ms_p90": percentile(m.latencies_ms, 0.90),
        "loadgen.latency_ms_p99": percentile(m.latencies_ms, 0.99),
        "loadgen.late_ms_p99": percentile(m.late_ms, 0.99) if m.late_ms else 0.0,
        "loadgen.error_ratio": m.failed / m.attempted,
        "loadgen.host_score": host_score,
    }


def traced(summary, untraced_ms: list[float], traced_ms: list[float]) -> dict[str, float]:
    """Per-layer values of the traced replay (``seams.TraceSummary``)."""
    from seams import SEAMS

    ops = summary.ops
    out: dict[str, float] = {}
    for seam in SEAMS:
        total = summary.seams[seam.name]
        out[f"{seam.name}.calls_per_op"] = total.calls / ops
        out[f"{seam.name}.self_us_per_op"] = total.self_s * 1e6 / ops
        if seam.nbytes is not None:
            out[f"{seam.name}.mb_per_s"] = total.nbytes / 1e6 / total.total_s if total.total_s else 0.0
    lookups = summary.seams["gencache.lookup"].calls
    generations = summary.seams["genai.image.generate"].calls
    out["gencache.hit_ratio"] = 1.0 - generations / lookups if lookups else 0.0
    out["loadgen.trace_overhead_ratio"] = statistics.median(traced_ms) / statistics.median(untraced_ms)
    out["loadgen.unattributed_us_per_op"] = summary.unattributed_s * 1e6 / ops
    return out


def benchmark_json() -> dict:
    """The contract file: command, paths, workloads and metric lists."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in per_layer_metrics()
        ],
    }
