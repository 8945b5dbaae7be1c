"""Lifecycle of the server under test: the real ``sww serve`` as a child
process tree, observed only from outside (its banner, its port, ``/proc``).

Only ``--host --port --pages --workers`` are passed; everything else stays
at its default so the numbers are what a user of ``sww serve`` gets.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: Either banner names the serving port: the single-process server's or
#: the arbiter's.
_BANNER = re.compile(r"(?:sww generative server on|sww arbiter serving on) [\w.]+:(\d+)")
_WORKER = re.compile(r"sww arbiter worker \d+ pid (\d+)")

HOST = "127.0.0.1"
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


class ServerError(RuntimeError):
    """The server under test did not start, or did not die."""


@dataclass(frozen=True)
class ProcSample:
    """One process's counters read from ``/proc`` at one instant."""

    cpu_s: float
    rss_kb: int


def read_proc(pid: int) -> ProcSample | None:
    """utime+stime and VmRSS of ``pid``; None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
        status = Path(f"/proc/{pid}/status").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    # Fields after the parenthesised command name, which may hold spaces.
    fields = stat[stat.rindex(")") + 2 :].split()
    cpu_s = (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    rss = re.search(r"VmRSS:\s+(\d+) kB", status)
    return ProcSample(cpu_s, int(rss.group(1)) if rss else 0)


def session_pids(sid: int) -> list[int]:
    """Every live process whose session id is ``sid``.

    The server is launched as a session leader, so its forked workers —
    and anything they fork — carry its session id even after a parent
    dies and they are re-parented to init.
    """
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except (FileNotFoundError, ProcessLookupError):
            continue
        fields = stat[stat.rindex(")") + 2 :].split()
        # fields[0] is the state; zombies hold no resources and are the
        # parent's to reap, not survivors.
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry))
    return sorted(pids)


class ServerProcess:
    """One ``python -m repro.cli serve`` process tree on an ephemeral port."""

    def __init__(self, pages: str, workers: int = 1) -> None:
        self.pages = pages
        self.workers = workers
        self.port = 0
        #: ``perf_counter`` instant the process was spawned.
        self.launched_at = 0.0
        self._proc: subprocess.Popen | None = None

    @property
    def pid(self) -> int:
        return self._proc.pid

    def start(self) -> None:
        """Spawn the server and block until its banner names the port.

        The banner only says the socket is bound; readiness is the
        caller's first verified 200 (see ``workloads.TcpWorkload.setup``).
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        self.launched_at = time.perf_counter()
        self._proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--host", HOST, "--port", "0",
                "--pages", self.pages, "--workers", str(self.workers),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            self._read_banner()
        except BaseException:
            self.stop()
            raise

    def _read_banner(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        fd = self._proc.stdout.fileno()
        pending = ""
        while time.monotonic() < deadline:
            readable, _, _ = select.select([fd], [], [], 0.1)
            if not readable:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise ServerError(f"server exited with {self._proc.wait()} before its banner")
            pending += chunk.decode("utf-8", "replace")
            match = _BANNER.search(pending)
            if match:
                self.port = int(match.group(1))
            # The arbiter names each worker as it forks it; the single
            # process has none to wait for.
            forked = len(_WORKER.findall(pending))
            if self.port and forked >= (self.workers if self.workers > 1 else 0):
                return
        raise ServerError("server printed no banner in time")

    def pids(self) -> list[int]:
        """The whole tree: master first, then every other session member."""
        members = session_pids(self.pid)
        return [self.pid] + [pid for pid in members if pid != self.pid]

    def sample(self) -> dict[int, ProcSample]:
        """``/proc`` counters for every live process of the tree."""
        samples = {}
        for pid in self.pids():
            sample = read_proc(pid)
            if sample is not None:
                samples[pid] = sample
        return samples

    def stop(self) -> None:
        """SIGTERM, wait, then SIGKILL the whole session; raise if any
        process of it survives."""
        if self._proc is None:
            return
        proc, self._proc = self._proc, None
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            # Arbiter workers outlive a master that was killed rather than
            # drained; the session id still finds them.
            for pid in session_pids(proc.pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            if proc.poll() is None:
                proc.wait(STOP_TIMEOUT_S)
            proc.stdout.close()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while session_pids(proc.pid):
            if time.monotonic() > deadline:
                raise ServerError(f"server processes survived: {session_pids(proc.pid)}")
            time.sleep(0.01)
