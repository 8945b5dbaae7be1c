"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures, prints
the paper-reported value next to the measured one, and asserts the *shape*
(orderings, ratios within tolerance bands) rather than exact equality —
the substrate is a simulator, not the authors' testbed (DESIGN.md §4).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import (
    GenerativeClient,
    GenerativeServer,
    PageResource,
    SiteStore,
    connect_in_memory,
)
from repro.obs import MetricsRegistry, to_jsonl
from repro.workloads.corpus import populate_traditional_assets

#: Registry shared across the benchmark session; benchmarks that inject it
#: contribute to the metrics snapshot the CI workflow uploads as an artifact.
BENCH_REGISTRY = MetricsRegistry()

ARTIFACT_DIR = Path(__file__).parent / "artifacts"

#: Repo root, where the per-table perf-trajectory files land.
REPO_ROOT = Path(__file__).parent.parent

#: table → scenario → measurements, accumulated by :func:`record_bench`.
BENCH_TRAJECTORY: dict[str, dict[str, dict]] = {}


def dump_metrics_snapshot(path: Path | None = None) -> Path:
    """Write the shared benchmark registry as JSON lines and return the path."""
    target = path or ARTIFACT_DIR / "metrics.jsonl"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(to_jsonl(BENCH_REGISTRY))
    return target


def record_bench(
    table: str,
    scenario: str,
    *,
    wire_bytes: int | None = None,
    compression_ratio: float | None = None,
    **extra,
) -> None:
    """Record one scenario's headline numbers for the perf trajectory.

    Each benchmark table that calls this gets a top-level
    ``BENCH_<table>.json`` written after the session (see
    :func:`dump_bench_trajectories`). CI reruns the benchmarks and fails on
    any ``git diff`` of those files, so record only what a rerun reproduces
    byte for byte: simulated numbers and exact counts, never wall time
    (wall-clock measurement lives in ``bench/``).
    """
    entry: dict = {}
    if wire_bytes is not None:
        entry["wire_bytes"] = int(wire_bytes)
    if compression_ratio is not None:
        entry["compression_ratio"] = round(float(compression_ratio), 4)
    entry.update(extra)
    BENCH_TRAJECTORY.setdefault(table, {})[scenario] = entry


def committed_bench(table: str) -> dict:
    """The scenarios of the committed ``BENCH_<table>.json``.

    The files are rewritten only after the session, so a gate against
    another table reads the committed numbers; CI's ``git diff`` then
    checks that this run reproduced them.
    """
    return json.loads((REPO_ROOT / f"BENCH_{table}.json").read_text())["scenarios"]


def dump_bench_trajectories(root: Path | None = None) -> list[Path]:
    """Write one ``BENCH_<table>.json`` per recorded table; return the paths."""
    base = root or REPO_ROOT
    paths: list[Path] = []
    for table, scenarios in sorted(BENCH_TRAJECTORY.items()):
        target = base / f"BENCH_{table}.json"
        target.write_text(
            json.dumps({"table": table, "scenarios": scenarios}, indent=2, sort_keys=True) + "\n"
        )
        paths.append(target)
    return paths


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Print an aligned paper-vs-measured table to the bench log."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in rendered), default=0))
        for i in range(len(headers))
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title}")
    print(line)
    print("-" * len(line))
    for row in rendered:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def serve_page(page, *, server_gen: bool = True, client=None, device=None, **server_kwargs):
    """Stand up a server for one corpus page and a connected client pair."""
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    populate_traditional_assets(store, page)
    server = GenerativeServer(store, gen_ability=server_gen, **server_kwargs)
    if client is None:
        from repro.devices import LAPTOP

        client = GenerativeClient(device=device or LAPTOP)
    pair = connect_in_memory(client, server)
    return client, server, pair


def within(measured: float, low: float, high: float, label: str = "") -> None:
    assert low <= measured <= high, f"{label}: {measured} outside [{low}, {high}]"
