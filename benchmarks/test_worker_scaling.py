"""Worker-scaling benchmark — the pre-fork arbiter vs. one process.

Two claims ride on ``sww serve --workers N`` (docs/PERFORMANCE.md):

* **scaling** — generation work spreads across the fleet. A uniform
  corpus of equal-cost pages is fetched by naive clients (the server
  materialises every page) against fleet sizes 1, 2 and 4; the makespan
  is the *simulated* generation time of the busiest worker, read from
  the master's ``/debug/workers`` aggregation. With least-loaded accept
  (``--worker-connections 1``) the fleet should come close to ideal
  speedup: >= 1.8x at 2 workers, >= 3x at 4.
* **shared cache tier** — the warm Zipf replay of the gencache
  benchmark, run across a 2-worker fleet with per-page memoisation off,
  must hit the *shared* tier at the same rate the in-process cache
  achieves in ``BENCH_gencache.json`` (within five points), not fall
  back to per-worker duplicate generation.

Every fleet size runs through the same arbiter code path (fleet size 1
included) so the comparison isolates worker count, not harness shape.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time

from _shared import committed_bench, print_table, record_bench

from repro.devices import LAPTOP
from repro.sww.admin import admin_fetch
from repro.sww.client import GenerativeClient
from repro.workloads import build_harbour_gallery, build_news_article, build_travel_blog
from repro.workloads.corpus import build_uniform_pages
from repro.workloads.traffic import zipf_requests

HEARTBEAT_S = 0.2
UNIFORM_PAGES = 24
FLEETS = (1, 2, 4)
STARTUP_TIMEOUT_S = 60.0


def _runner(memoise_pages: bool) -> str:
    """Run every fleet size through the arbiter itself (``_serve_multiworker``
    handles workers=1 fine; the CLI's single-process fast path is bypassed
    on purpose so fleet size is the only variable). ``memoise_pages=False``
    switches the page memo off on the server each worker builds — the
    tier replay's reference arm, which no CLI option offers."""
    return (
        "import sys\n"
        "from repro import cli\n"
        "build = cli._build_server\n"
        "def build_server(*args, **kwargs):\n"
        "    server, sampler = build(*args, **kwargs)\n"
        f"    server.memoise_pages = {memoise_pages}\n"
        "    return server, sampler\n"
        "cli._build_server = build_server\n"
        "sys.exit(cli._serve_multiworker(cli.build_parser().parse_args(['serve'] + sys.argv[1:])))\n"
    )


class ArbiterBench:
    """A ``serve --workers N`` arbiter subprocess and its parsed banner."""

    def __init__(
        self, workers: int, pages: list[str], extra_args: list[str], memoise_pages: bool = True
    ):
        repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(repo_src), PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-c", _runner(memoise_pages),
                "--workers", str(workers), "--port", "0", "--host", "127.0.0.1",
                "--heartbeat-interval", str(HEARTBEAT_S),
                "--pages", *pages,
            ]
            + extra_args,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            # Its own process group: close() kills every worker, respawns too.
            start_new_session=True,
        )
        self.ports: dict[str, int] = {}
        self.worker_pids: list[int] = []
        self._read_banner(workers)

    def _read_banner(self, workers: int) -> None:
        deadline = time.time() + STARTUP_TIMEOUT_S
        patterns = {
            "serve": re.compile(r"sww arbiter serving on [\d.]+:(\d+)"),
            "admin": re.compile(r"sww arbiter admin on [\d.]+:(\d+)"),
        }
        worker_line = re.compile(r"sww arbiter worker (\d+) pid (\d+)")
        while time.time() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise AssertionError("arbiter exited during startup")
            for name, pattern in patterns.items():
                match = pattern.match(line)
                if match:
                    self.ports[name] = int(match.group(1))
            match = worker_line.match(line)
            if match:
                self.worker_pids.append(int(match.group(2)))
            if len(self.worker_pids) >= workers and "serve" in self.ports and "admin" in self.ports:
                return
        raise AssertionError(f"arbiter banner incomplete: {self.ports} {self.worker_pids}")

    def admin_json(self, path: str) -> dict:
        async def go():
            status, body = await admin_fetch("127.0.0.1", self.ports["admin"], path)
            assert status == 200, (path, status, body)
            return json.loads(body)

        return asyncio.run(go())

    def fetch_all(self, paths: list[str]) -> None:
        """Fetch every path concurrently with naive clients (server
        materialises); the closed connection queue plus per-worker
        ``--worker-connections 1`` yields least-loaded balancing."""

        async def go():
            async def one(path: str):
                client = GenerativeClient(device=LAPTOP, gen_ability=False)
                result = await client.fetch_tcp("127.0.0.1", self.ports["serve"], path)
                assert result.status == 200, (path, result.status)

            await asyncio.gather(*(one(path) for path in paths))

        asyncio.run(go())

    def fetch_serial(self, paths: list[str]) -> None:
        async def go():
            for path in paths:
                client = GenerativeClient(device=LAPTOP, gen_ability=False)
                result = await client.fetch_tcp("127.0.0.1", self.ports["serve"], path)
                assert result.status == 200, (path, result.status)

        asyncio.run(go())

    def settled_workers(self, expect_requests: int) -> list[dict]:
        """Wait for every request and its telemetry ship to land, then
        return the per-worker rows from ``/debug/workers``."""
        deadline = time.time() + 30
        while time.time() < deadline:
            doc = self.admin_json("/debug/workers")
            if sum(w["requests"] for w in doc["workers"]) >= expect_requests:
                time.sleep(3 * HEARTBEAT_S)  # one more heartbeat: gauges settle
                return self.admin_json("/debug/workers")["workers"]
            time.sleep(HEARTBEAT_S)
        raise AssertionError(f"fleet never served {expect_requests} requests")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate(timeout=10)
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def run_scaling(workers: int):
    paths = [page.path for page in build_uniform_pages(UNIFORM_PAGES)]
    arbiter = ArbiterBench(
        workers,
        [f"uniform:{UNIFORM_PAGES}"],
        # One connection per worker makes accept least-loaded. (The shared
        # cache tier is on, as in production; the uniform corpus has no
        # repeats, so it only ever takes misses here.)
        ["--worker-connections", "1"],
    )
    try:
        arbiter.fetch_all(paths)
        rows = arbiter.settled_workers(expect_requests=UNIFORM_PAGES)
    finally:
        arbiter.close()
    per_worker = [float(w["generation_sim_s"]) for w in rows]
    return {
        "workers": workers,
        "makespan_sim_s": max(per_worker),
        "total_sim_s": sum(per_worker),
        "requests": [int(w["requests"]) for w in rows],
    }


def run_tier_replay():
    """The gencache benchmark's Zipf stream against a 2-worker fleet.

    Per-page memoisation is off, so every repeat visit regenerates its
    divisions — against the *shared* tier, which must absorb them."""
    pages = [build_harbour_gallery(), build_travel_blog(), build_news_article()]
    stream = zipf_requests(
        sorted(page.path for page in pages), 10, exponent=1.1, seed="gencache-bench"
    )
    arbiter = ArbiterBench(
        2, ["gallery", "travel-blog", "news"], ["--worker-connections", "1"], memoise_pages=False
    )
    try:
        arbiter.fetch_serial(list(stream))
        doc = arbiter.admin_json("/debug/workers")
    finally:
        arbiter.close()
    return doc["cache_tier"]


def run_all():
    scaling = [run_scaling(n) for n in FLEETS]
    tier = run_tier_replay()
    return scaling, tier


def test_worker_scaling_and_shared_tier(benchmark):
    scaling, tier = benchmark.pedantic(run_all, rounds=1, iterations=1)
    base = scaling[0]["makespan_sim_s"]

    print_table(
        f"Worker scaling: {UNIFORM_PAGES} equal-cost pages, naive clients",
        ["fleet", "makespan (sim)", "speedup", "total gen (sim)", "requests/worker"],
        [
            [
                f"{row['workers']}w",
                f"{row['makespan_sim_s']:.1f} s",
                f"{base / row['makespan_sim_s']:.2f}x",
                f"{row['total_sim_s']:.1f} s",
                "/".join(str(r) for r in sorted(row["requests"], reverse=True)),
            ]
            for row in scaling
        ],
    )
    print_table(
        "Shared gencache tier: warm Zipf replay, 2 workers, page memo off",
        ["hit rate", "hits", "misses", "coalesced", "entries"],
        [
            [
                f"{tier['hit_rate']:.0%}",
                tier["hits"],
                tier["misses"],
                tier["coalesced"],
                tier["entry_count"],
            ]
        ],
    )

    # Work conservation, within a band: an asset request that lands on a
    # different worker than its page re-materialises there (page memo is
    # per worker), so a fleet may pay a page or so of duplicate work.
    for row in scaling:
        assert row["total_sim_s"] > 0
        assert row["total_sim_s"] <= 1.10 * scaling[0]["total_sim_s"], row
        assert sum(row["requests"]) == UNIFORM_PAGES

    # The scaling gates (docs/PERFORMANCE.md). The makespan follows which
    # worker wins each accept, so it is asserted here but not recorded.
    speedup = {row["workers"]: base / row["makespan_sim_s"] for row in scaling}
    assert speedup[2] >= 1.8, f"2-worker speedup {speedup[2]:.2f}x < 1.8x"
    assert speedup[4] >= 3.0, f"4-worker speedup {speedup[4]:.2f}x < 3.0x"

    # The shared tier absorbs cross-worker repeats like the in-process
    # cache absorbs same-process ones: hit rate within five points of
    # the BENCH_gencache.json warm scenario.
    reference = committed_bench("gencache")["warm"]["hit_rate"]
    assert tier["hit_rate"] >= 0.70, f"tier hit rate {tier['hit_rate']:.2f} < 0.70"
    assert abs(tier["hit_rate"] - reference) <= 0.05, (tier["hit_rate"], reference)

    record_bench(
        "workers",
        "tier-warm-zipf",
        hit_rate=round(tier["hit_rate"], 4),
        hits=tier["hits"],
        misses=tier["misses"],
        coalesced=tier["coalesced"],
        entries=tier["entry_count"],
    )
