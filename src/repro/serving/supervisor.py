"""The arbiter's supervision policy: how many workers, and which ones.

:class:`Supervisor` is a pure state machine with one entry point,
``step(event, now) -> list[action]``. The arbiter
(:mod:`repro.serving.arbiter`) turns SIGCHLD, control-pipe frames,
signals and a periodic tick into events and carries out the actions. The
policy reads no clock (``now`` is a parameter) and touches no process,
so every decision can be replayed as a list of events. Both are tagged
tuples:

* events — ``("forked", worker_id, pid)`` or ``("fork-failed",
  worker_id)`` (the arbiter's answer to a spawn), ``("hello", pid)``,
  ``("heartbeat", pid)``,
  ``("exited", pid, status)`` (minus the signal number for a signalled
  exit), ``("signal", name)`` for SIGTERM, SIGINT, SIGTTIN, SIGTTOU and
  SIGHUP, and ``("tick",)``;
* actions — ``("spawn", worker_id, restart)``, ``("kill", pid, name)``
  with SIGTERM or SIGKILL, and ``("halt", status, reason)``.

After every event one rule runs:

* **size** — TTIN grows the fleet size by one; TTOU shrinks it, never
  below 1;
* **reload** — HUP starts a new generation; workers of older
  generations are surplus, so a second HUP during a roll restarts it;
* **retire** — while more workers are active than the size, retire one:
  an older generation first, then the newest by id. Only while no
  current worker is booting, so capacity never dips. A worker retired
  before its hello gets its SIGTERM at the hello: before it, the signal
  could land in the fork window;
* **spawn** — while fewer current workers exist than the size, spawn
  one; during a roll, at most one current worker boots at a time;
* **respawn** — an exit the policy did not order is respawned under the
  same worker id, except exit status 70 before the hello (the worker
  could not build its server, and would fail the same way again), which
  halts the fleet;
* **fork failure** — a spawn whose fork failed is dropped with its id.
  Until a fork succeeds again, the policy makes at most one fork attempt
  per tick, and none in the step that saw the failure; an exit in that
  time is not respawned under its id, the next tick's spawn replaces it;
* **stale** — a worker not yet signalled whose last heartbeat is older
  than the worker timeout gets SIGKILL, and is respawned unless it was
  retiring;
* **stop** — TERM or INT sends SIGTERM to every worker, SIGKILL follows
  :data:`DRAIN_WAIT_S` later, and ``halt`` comes once the fleet is
  empty. Nothing is spawned, scaled or reloaded while stopping.
"""

from __future__ import annotations

from dataclasses import dataclass

#: EX_SOFTWARE: the worker raised before it could serve.
BOOT_FAILURE = 70
#: How long SIGTERMed workers get before SIGKILL: a session's default
#: drain budget (``ServerSession.shutdown``) plus slack for the final flush.
DRAIN_WAIT_S = 35.0


@dataclass
class Worker:
    worker_id: int
    pid: int
    generation: int
    spawned_at: float
    last_heartbeat: float
    #: starting (no hello yet) | live | retiring (its exit is ordered) |
    #: killed (stale; respawned when it exits)
    state: str = "starting"
    #: The last signal the policy sent it.
    sent: str | None = None
    # The worker's own report, kept for the admin plane; the policy
    # never reads it.
    requests: int = 0
    inflight: int = 0
    connections: int = 0
    generation_sim_s: float = 0.0
    metrics_dump: dict | None = None


class Supervisor:
    """The fleet's records and the one rule that steers them."""

    def __init__(self, size: int, worker_timeout_s: float) -> None:
        self.size = size
        self.worker_timeout_s = worker_timeout_s
        #: Every forked worker not yet exited, by pid.
        self.workers: dict[int, Worker] = {}
        self.generation = 0
        self.stopping = False
        self.exit_status = 0
        self.restarts = 0
        self._unforked: set[int] = set()  # worker ids spawned, pid not yet known
        #: Forks left before the next tick: None while forks succeed.
        self._fork_budget: int | None = None
        self._next_id = 0
        self._stop_at = 0.0
        self._reason = ""
        self._halted = False

    def step(self, event, now: float) -> list:
        """Apply one event, then the rule; return the actions it takes."""
        out: list = []
        match event:
            case ("forked", worker_id, pid):
                self._unforked.discard(worker_id)
                self._fork_budget = None
                self.workers[pid] = Worker(worker_id, pid, self.generation, now, now)
            case ("fork-failed", worker_id):
                self._unforked.discard(worker_id)
                self._fork_budget = 0
            case ("tick",) if self._fork_budget is not None:
                self._fork_budget = 1
            case ("hello" | "heartbeat" as kind, pid) if pid in self.workers:
                worker = self.workers[pid]
                worker.last_heartbeat = now
                if kind == "hello" and worker.state == "starting":
                    worker.state = "live"
                elif kind == "hello" and worker.state == "retiring" and worker.sent is None:
                    self._kill(worker, "SIGTERM", out)
            case ("exited", pid, status) if pid in self.workers:
                self._exited(self.workers.pop(pid), status, now, out)
            case ("signal", name) if not self.stopping:
                if name in ("SIGTERM", "SIGINT"):
                    self._stop(now)
                elif name == "SIGTTIN":
                    self.size += 1
                elif name == "SIGTTOU":
                    self.size = max(1, self.size - 1)
                elif name == "SIGHUP":
                    self.generation += 1
        if self.stopping:
            self._drain(now, out)
        else:
            self._kill_stale(now, out)
            self._converge(out)
        return out

    def _exited(self, worker: Worker, status: int, now: float, out: list) -> None:
        if self.stopping or worker.state == "retiring":
            return
        if worker.state == "starting" and status == BOOT_FAILURE:
            self.exit_status = BOOT_FAILURE
            self._reason = f"worker {worker.worker_id} pid {worker.pid} failed to boot (exit status {BOOT_FAILURE})"
            self._stop(now)
            return
        if self._fork_budget != 0:
            self.restarts += 1
            self._spawn(worker.worker_id, out, restart=True)

    def _kill_stale(self, now: float, out: list) -> None:
        for worker in self.workers.values():
            if worker.sent is None and now - worker.last_heartbeat > self.worker_timeout_s:
                if worker.state != "retiring":
                    worker.state = "killed"
                self._kill(worker, "SIGKILL", out)

    def _converge(self, out: list) -> None:
        while True:
            active = [w for w in self.workers.values() if w.state != "retiring"]
            current = [w for w in active if w.generation == self.generation]
            booting = len(self._unforked) + sum(w.state == "starting" for w in current)
            rolling = len(current) < len(active)
            can_fork = self._fork_budget != 0
            if len(active) + len(self._unforked) > self.size and not booting:
                victim = max(active, key=lambda w: (w.generation < self.generation, w.worker_id))
                booted = victim.state == "live"
                victim.state = "retiring"
                if booted:
                    self._kill(victim, "SIGTERM", out)
            elif len(current) + len(self._unforked) < self.size and not (rolling and booting) and can_fork:
                self._spawn(self._next_id, out)
                self._next_id += 1
            else:
                return

    def _stop(self, now: float) -> None:
        self.stopping = True
        self._stop_at = now

    def _drain(self, now: float, out: list) -> None:
        for worker in self.workers.values():
            if worker.sent is None:
                worker.state = "retiring"
                self._kill(worker, "SIGTERM", out)
            if now >= self._stop_at + DRAIN_WAIT_S and worker.sent != "SIGKILL":
                self._kill(worker, "SIGKILL", out)
        if not self.workers and not self._halted:
            self._halted = True
            out.append(("halt", self.exit_status, self._reason))

    def _spawn(self, worker_id: int, out: list, restart: bool = False) -> None:
        if self._fork_budget is not None:
            self._fork_budget -= 1
        self._unforked.add(worker_id)
        out.append(("spawn", worker_id, restart))

    @staticmethod
    def _kill(worker: Worker, sig: str, out: list) -> None:
        worker.sent = sig
        out.append(("kill", worker.pid, sig))
