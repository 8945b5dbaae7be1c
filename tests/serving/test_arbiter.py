"""End-to-end arbiter tests: a real master, real forked workers.

Each test launches ``sww serve --workers N`` as a subprocess, parses the
machine-readable banner lines for the three ports and the worker pids,
drives it over real sockets, and tears the whole process tree down.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.devices import LAPTOP
from repro.sww.admin import admin_fetch
from repro.sww.client import GenerativeClient

HEARTBEAT_S = 0.2
STARTUP_TIMEOUT_S = 30.0
SERVE = [sys.executable, "-m", "repro.cli", "serve"]


def _env() -> dict:
    repo_src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    return dict(os.environ, PYTHONPATH=os.path.abspath(repo_src), PYTHONUNBUFFERED="1")


def serve_whose_workers_first(statement: str) -> list[str]:
    """``sww serve`` whose workers run ``statement`` in their runtime
    factory (on the worker's event loop, before the server is built)."""
    script = (
        "import asyncio, os, sys, time\n"
        "from repro import cli\n"
        "build = cli._build_server\n"
        "def build_server(*args, **kwargs):\n"
        f"    {statement}\n"
        "    return build(*args, **kwargs)\n"
        "cli._build_server = build_server\n"
        "sys.exit(cli.main(['serve'] + sys.argv[1:]))\n"
    )
    return [sys.executable, "-c", script]


class ArbiterProcess:
    """A running ``sww serve --workers N`` subprocess plus its banner."""

    def __init__(self, extra_args=(), workers=2, command=SERVE):
        self.proc = subprocess.Popen(
            command
            + [
                "--workers", str(workers), "--port", "0", "--pages", "news",
                "--heartbeat-interval", str(HEARTBEAT_S),
            ]
            + list(extra_args),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_env(),
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
            "cache": re.compile(r"sww arbiter cache tier on [\d.]+:(\d+)"),
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

    def admin_text(self, path: str) -> str:
        async def go():
            status, body = await admin_fetch("127.0.0.1", self.ports["admin"], path)
            assert status == 200, (path, status)
            return body.decode("utf-8")

        return asyncio.run(go())

    def fetch(self, path: str, gen_ability: bool = True):
        client = GenerativeClient(device=LAPTOP, gen_ability=gen_ability)
        return asyncio.run(client.fetch_tcp("127.0.0.1", self.ports["serve"], path))

    def wait_for(self, predicate, timeout_s: float, message: str):
        deadline = time.time() + timeout_s
        while time.time() < deadline:
            if predicate():
                return
            time.sleep(0.05)
        raise AssertionError(message)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate(timeout=10)
        # Belt and braces: no worker, respawned or not, may survive the master.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


@pytest.fixture
def arbiter():
    proc = ArbiterProcess()
    try:
        yield proc
    finally:
        proc.close()


def _live_pids(doc: dict) -> set[int]:
    return {w["pid"] for w in doc["workers"] if w["state"] in ("starting", "live")}


def test_graceful_drain_finishes_streams_and_keeps_wide_event(arbiter):
    """SIGTERM mid-stream: the in-flight request completes, queued writer
    bytes flush before exit, and the master still gets the wide event."""
    results = {}

    def fetch():
        # Naive fetch: the server materialises (generates) the page, so
        # the stream is genuinely in flight while the SIGTERM lands.
        results["fetch"] = arbiter.fetch("/news/transit-corridor", gen_ability=False)

    thread = threading.Thread(target=fetch)
    thread.start()

    # SIGTERM only once the request is observably in flight (or already
    # served): a signal landing between the client's connect and its
    # request would legitimately close the still-idle connection.
    def request_reached_worker():
        if "fetch" in results:
            return True
        doc = arbiter.admin_json("/debug/workers")
        return sum(w["inflight"] for w in doc["workers"]) >= 1

    arbiter.wait_for(
        request_reached_worker, timeout_s=15, message="request never reached a worker"
    )
    for pid in arbiter.worker_pids:
        os.kill(pid, signal.SIGTERM)
    thread.join(timeout=30)
    assert not thread.is_alive(), "fetch never completed under drain"
    assert results["fetch"].status == 200

    # Both SIGTERMed workers exit and are reaped; the master respawns
    # them (an exit it didn't order), so the fleet heals to 2.
    arbiter.wait_for(
        lambda: not _live_pids(arbiter.admin_json("/debug/workers")) & set(arbiter.worker_pids),
        timeout_s=15,
        message="drained workers were never reaped",
    )
    arbiter.wait_for(
        lambda: len(_live_pids(arbiter.admin_json("/debug/workers"))) == 2,
        timeout_s=15,
        message="fleet did not heal after drain",
    )

    # The wide event for the drained request reached the master before
    # the worker exited (final telemetry flush precedes the bye frame).
    def event_arrived():
        lines = [
            json.loads(line)
            for line in arbiter.admin_text("/debug/events").splitlines()
            if line
        ]
        return any(
            event["event"] == "server.request"
            and event["path"] == "/news/transit-corridor"
            and event["status"] == 200
            and "worker" in event
            for event in lines
        )

    arbiter.wait_for(event_arrived, timeout_s=10, message="wide event lost in drain")


def test_kill9_worker_respawns_within_heartbeat(arbiter):
    """A kill -9'd worker is respawned promptly (SIGCHLD-driven, not
    poll-driven) and requests keep succeeding on the survivors."""
    victim = arbiter.worker_pids[0]
    os.kill(victim, signal.SIGKILL)
    killed_at = time.time()

    # A request issued right after the murder must still succeed (the
    # survivor holds the shared socket).
    assert arbiter.fetch("/news/transit-corridor").status == 200

    def respawned():
        pids = _live_pids(arbiter.admin_json("/debug/workers"))
        return victim not in pids and len(pids) == 2

    # SIGCHLD respawn is immediate; generous slack for a loaded CI box,
    # but the claim under test is "within one heartbeat interval".
    arbiter.wait_for(respawned, timeout_s=10, message="worker never respawned")
    health = arbiter.admin_json("/healthz")
    assert health["restarts"] >= 1
    assert time.time() - killed_at < 10
    # And the fleet keeps serving afterwards.
    assert arbiter.fetch("/news/transit-corridor").status == 200


def test_sigttin_sigttou_scale_the_fleet(arbiter):
    """SIGTTIN forks one more worker; SIGTTOU retires the newest."""
    master = arbiter.proc.pid
    os.kill(master, signal.SIGTTIN)
    arbiter.wait_for(
        lambda: len(_live_pids(arbiter.admin_json("/debug/workers"))) == 3,
        timeout_s=15,
        message="SIGTTIN never grew the fleet",
    )
    os.kill(master, signal.SIGTTOU)
    arbiter.wait_for(
        lambda: len(_live_pids(arbiter.admin_json("/debug/workers"))) == 2,
        timeout_s=15,
        message="SIGTTOU never shrank the fleet",
    )
    # Scaling never disturbed service.
    assert arbiter.fetch("/news/transit-corridor").status == 200


def test_master_metrics_aggregate_worker_counters(arbiter):
    """/metrics merges per-worker registries into one exposition."""
    for _ in range(3):
        assert arbiter.fetch("/news/transit-corridor").status == 200
    time.sleep(3 * HEARTBEAT_S)  # let a telemetry ship land

    def served_total() -> float:
        text = arbiter.admin_text("/metrics")
        total = 0.0
        for line in text.splitlines():
            if line.startswith("sww_requests_total"):
                total += float(line.rsplit(" ", 1)[1])
        return total

    arbiter.wait_for(
        lambda: served_total() >= 3,
        timeout_s=10,
        message="worker request counters never reached the master",
    )
    # The master's own serving-layer metrics ride along in the merge.
    text = arbiter.admin_text("/metrics")
    assert "serving_workers_size" in text
    assert "serving_heartbeats_total" in text


def test_worker_that_cannot_boot_halts_the_arbiter():
    """A worker whose factory raises before its hello would fail the same
    way on every respawn: the arbiter stops with status 70 instead of
    forking for ever."""
    done = subprocess.run(
        SERVE + ["--workers", "2", "--port", "0", "--pages", "news", "--sample-interval", "0"],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=30,
    )
    assert done.returncode == 70, done.stdout + done.stderr
    assert len(re.findall(r"^sww arbiter worker \d+ pid", done.stdout, re.M)) <= 2
    assert re.search(r"^sww arbiter halting: worker \d+ pid \d+ failed to boot", done.stdout, re.M)
    assert "interval_s must be positive" in done.stderr
    assert done.stdout.rstrip().endswith("sww arbiter stopped")


def test_heartbeats_do_not_wait_behind_a_blocked_thread_pool():
    """Every default-executor thread busy for 3 s (three worker timeouts)
    must not stop a worker's heartbeats: its event loop is free, and that
    is what the murder loop is meant to test."""
    # One 3 s sleep per thread of the default executor (its own sizing rule).
    fill_pool = (
        "[asyncio.get_running_loop().run_in_executor(None, time.sleep, 3.0)"
        " for _ in range(min(32, (os.cpu_count() or 1) + 4))]"
    )
    proc = ArbiterProcess(
        ["--heartbeat-interval", "0.1", "--worker-timeout", "1"],
        command=serve_whose_workers_first(fill_pool),
    )
    try:
        time.sleep(3.5)
        health = proc.admin_json("/healthz")
        assert health["restarts"] == 0, health
        assert {w["pid"] for w in health["workers"]} == set(proc.worker_pids)
        assert proc.fetch("/news/transit-corridor").status == 200
    finally:
        proc.close()


def test_max_requests_recycles_a_worker_under_its_id():
    """``--max-requests 2`` retires a worker after its second request; the
    master respawns it under the same worker id and no request fails."""
    proc = ArbiterProcess(["--max-requests", "2"])
    try:
        before = {w["worker_id"]: w["pid"] for w in proc.admin_json("/debug/workers")["workers"]}
        # Two workers absorb at most one request each without recycling,
        # so six requests cross the threshold at least twice.
        for _ in range(6):
            assert proc.fetch("/news/transit-corridor").status == 200
            # A recycle happens on the worker's next heartbeat; let it
            # finish before connecting again, so no connection lands on a
            # worker between its accept and its drain.
            time.sleep(2 * HEARTBEAT_S)

        def recycled():
            doc = proc.admin_json("/debug/workers")
            live = {
                w["worker_id"]: w["pid"] for w in doc["workers"] if w["state"] in ("starting", "live")
            }
            return (
                doc["restarts"] >= 1
                and live.keys() == before.keys()
                and any(live[worker_id] != pid for worker_id, pid in before.items())
            )

        proc.wait_for(recycled, timeout_s=10, message="no worker was recycled under its id")
    finally:
        proc.close()
