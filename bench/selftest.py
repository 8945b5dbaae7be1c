"""Self-test of the benchmark itself: ``pytest bench/selftest.py``.

Outside tier-1 (the name matches no ``test_*.py`` pattern and ``bench`` is
not in ``testpaths``), and under half a minute: it checks the tapes, the
arithmetic, the contract file and a short smoke of all five workloads.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import metrics  # noqa: E402
import seams  # noqa: E402
from stats import percentile, self_time, union_length  # noqa: E402
from workloads import WORKLOADS, FleetReplay, PageloadTraditional, ZipfViewsW2  # noqa: E402


class TestTapes:
    def test_zipf_tape_repeats_for_a_seed_and_differs_across_seeds(self):
        workload = ZipfViewsW2()
        assert workload.tape(7, 2.0) == workload.tape(7, 2.0)
        assert workload.tape(7, 2.0) != workload.tape(8, 2.0)

    def test_zipf_tape_offers_exactly_the_rate(self):
        for seed in (1, 2, 3):
            tape = ZipfViewsW2().tape(seed, 2.0)
            assert len(tape) == round(ZipfViewsW2.rate_per_s * 2.0)
            times = [due for due, _ in tape]
            assert times == sorted(times) and 0.0 < times[0] and times[-1] < 2.0

    def test_thumbnail_order_is_seeded(self):
        workload = PageloadTraditional()
        workload.prepare(1, 1.0)
        assert workload.item(1) == workload.item(1)
        assert workload.item(1) != workload.item(2)
        assert sorted(workload.item(1)) == sorted(workload.item(2)) and len(workload.item(1)) == 49

    def test_fleet_tape_is_seeded(self):
        fleet = FleetReplay()
        assert fleet.new_session(1).tape() == fleet.new_session(1).tape()
        assert fleet.new_session(1).tape() != fleet.new_session(2).tape()


class TestArithmetic:
    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.99) == 99
        assert percentile(values, 1.0) == 100
        assert percentile([5.0], 0.9) == 5.0
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_union_length_counts_overlap_once(self):
        assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
        assert union_length([]) == 0

    def test_self_time_clips_and_merges_children(self):
        assert self_time(0.0, 10.0, []) == 10.0
        assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0)]) == 7.0
        # A child that outlives its parent only counts while the parent ran.
        assert self_time(0.0, 10.0, [(8.0, 15.0)]) == 8.0
        assert self_time(0.0, 10.0, [(-5.0, 20.0)]) == 0.0

    def test_span_tree_self_times_sum_to_the_root(self):
        recorder = seams.SpanRecorder()
        table = (seams.Seam("outer", ()), seams.Seam("inner", ()))

        def inner():
            return sum(range(2000))

        wrapped_inner = recorder.wrap(inner, 1, None)
        wrapped_outer = recorder.wrap(lambda: wrapped_inner() + wrapped_inner(), 0, None)
        wrapped_outer()  # no op open: not recorded
        assert recorder.spans == []
        with recorder.op():
            wrapped_outer()
        summary = seams.summarise(recorder, table)
        assert summary.seams["outer"].calls == 1 and summary.seams["inner"].calls == 2
        assert summary.self_sum_s == pytest.approx(summary.op_time_s)
        rows = {row.span_id: row for row in recorder.spans}
        for row in recorder.spans:
            assert row.parent in rows or row.seam == seams.ROOT
        outer = next(row for row in recorder.spans if row.seam == 0)
        assert all(row.parent == outer.span_id for row in recorder.spans if row.seam == 1)

    def test_a_missing_seam_target_is_reported_not_raised(self):
        recorder = seams.SpanRecorder()
        table = (seams.Seam("gone", ("repro.http2.frames:no_such_function",)),)
        with seams.installed(recorder, table) as missing:
            assert missing == ["gone"]

    def test_installed_seams_are_restored(self):
        from repro.http2 import frames

        original = frames.parse_frames
        with seams.installed(seams.SpanRecorder()) as missing:
            assert frames.parse_frames is not original
            assert missing == []
        assert frames.parse_frames is original


class TestContract:
    def test_benchmark_json_is_what_the_code_names(self):
        on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert on_disk == metrics.benchmark_json()

    def test_every_layer_metric_names_what_it_should_move(self):
        gated = {m.name for m in metrics.END_TO_END}
        for metric in metrics.per_layer_metrics():
            if metric.moves is not None:
                assert metric.moves[0] in gated and metric.moves[1] in WORKLOADS, metric.name

    def test_contract_limits(self):
        spec = metrics.benchmark_json()
        assert 2 <= len(spec["workloads"]) <= 8
        assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
                   for m in spec["end_to_end"])
        assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
        assert len(spec["per_layer"]) <= 80
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
        assert len(names) == len(set(names))
        assert all(len(w["why"]) <= 200 for w in spec["workloads"])
        runs = 4 + 22 * len(spec["workloads"])
        assert runs * 30 <= 3420, "a run, with its set-ups, has 30 s"


def _run(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestSmoke:
    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_end_to_end_names_match_the_contract(self, name):
        result = _run("--workload", name, "--seed", "3", "--seconds", "0.5", "--setups", "1")
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m.name: m.unit for m in metrics.END_TO_END}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(v["value"] > 0 for v in result["metrics"].values())

    def test_traced_names_match_the_contract(self):
        result = _run("--workload", "hits_small", "--seed", "3", "--seconds", "1", "--trace", "1")
        expected = {m.name: m.unit for m in metrics.per_layer_metrics()}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert result["metrics"]["genai.image.generate.calls_per_op"]["value"] == 0
        assert result["metrics"]["loadgen.trace_overhead_ratio"]["value"] > 0
        spans = [json.loads(line) for line in (BENCH_DIR / "out" / "trace-hits_small.jsonl").read_text().splitlines()]
        ids = {span["span"] for span in spans}
        assert all(span["parent"] in ids or span["name"] == "op" for span in spans)

    def test_no_program_no_result(self, tmp_path):
        """In a directory holding only the benchmark, it fails loudly."""
        import shutil

        shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "history.jsonl", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "hits_small", "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=60, cwd=tmp_path,
        )
        assert done.returncode != 0 and not done.stdout.strip()
