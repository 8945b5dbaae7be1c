"""The arbiter's supervision policy, replayed as event lists.

Nothing here forks: :class:`FakeShell` carries out the policy's actions
the way :class:`~repro.serving.arbiter.Arbiter` does — a spawn is answered
at once with a ``forked`` event and a fresh pid — and the test decides when
a process says hello, heartbeats or exits, and what the clock reads.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.supervisor import BOOT_FAILURE, DRAIN_WAIT_S, Supervisor

TIMEOUT_S = 30.0


class FakeShell:
    """A supervisor, fake pids and a clock; every action is logged."""

    def __init__(self, size: int = 2) -> None:
        self.supervisor = Supervisor(size, TIMEOUT_S)
        self.now = 0.0
        self.alive: dict[int, int] = {}  # pid → worker id, forked and not exited
        self.signalled: dict[int, str] = {}
        self.greeted: set[int] = set()
        self.halts: list[tuple] = []
        self._next_pid = 100

    def step(self, *event, after_s: float = 0.0) -> list[tuple]:
        """Deliver one event (and the ``forked`` answers); return the actions."""
        self.now += after_s
        events, taken = [tuple(event)], []
        while events:
            actions = self.supervisor.step(events.pop(0), self.now)
            taken.extend(actions)
            for action in actions:
                if action[0] == "spawn":
                    live_ids = set(self.alive.values())
                    assert action[1] not in live_ids, f"id {action[1]} spawned twice"
                    pid, self._next_pid = self._next_pid, self._next_pid + 1
                    self.alive[pid] = action[1]
                    events.append(("forked", action[1], pid))
                elif action[0] == "kill":
                    assert action[1] in self.alive, f"kill of exited pid {action[1]}"
                    self.signalled[action[1]] = action[2]
                else:
                    self.halts.append(action)
        return taken

    def hello(self, pid: int) -> list[tuple]:
        self.greeted.add(pid)
        return self.step("hello", pid)

    def exit(self, pid: int, status: int) -> list[tuple]:
        del self.alive[pid]
        return self.step("exited", pid, status)

    def pids(self, worker_id: int | None = None) -> list[int]:
        return sorted(p for p, w in self.alive.items() if worker_id in (None, w))

    def boot(self) -> None:
        """The first tick, then every worker's hello."""
        self.step("tick")
        for pid in self.pids():
            self.hello(pid)

    def states(self) -> dict[int, str]:
        """Worker id → state."""
        return {w.worker_id: w.state for w in self.supervisor.workers.values()}

    def serving(self) -> int:
        """Workers that have said hello and were not told to go."""
        return sum(w.state == "live" for w in self.supervisor.workers.values())

    def settle(self, check=lambda: None) -> None:
        """Every signalled process exits; every other one says hello.
        ``check()`` runs after each event."""
        for pid in self.pids():
            if pid in self.signalled:
                self.exit(pid, 0 if self.signalled[pid] == "SIGTERM" else -9)
            elif pid not in self.greeted:
                self.hello(pid)
            check()

    def active(self) -> int:
        """Workers the policy has not retired."""
        return sum(w.state != "retiring" for w in self.supervisor.workers.values())


def test_first_tick_spawns_the_whole_fleet():
    shell = FakeShell(size=3)
    assert shell.step("tick") == [("spawn", 0, False), ("spawn", 1, False), ("spawn", 2, False)]
    assert shell.step("tick", after_s=1.0) == []


def test_boot_failure_halts_with_70():
    shell = FakeShell()
    shell.step("tick")
    first, second = shell.pids()
    assert shell.exit(first, BOOT_FAILURE) == [("kill", second, "SIGTERM")]
    assert shell.exit(second, -15) == [
        ("halt", BOOT_FAILURE, f"worker 0 pid {first} failed to boot (exit status 70)")
    ]
    assert shell.supervisor.restarts == 0


def test_exit_70_after_hello_is_a_crash_not_a_boot_failure():
    shell = FakeShell()
    shell.boot()
    pid = shell.pids(0)[0]
    assert shell.exit(pid, BOOT_FAILURE) == [("spawn", 0, True)]
    assert not shell.supervisor.stopping


def test_kill9_during_boot_respawns():
    shell = FakeShell()
    shell.step("tick")
    victim = shell.pids(0)[0]
    assert shell.exit(victim, -9) == [("spawn", 0, True)]
    assert shell.supervisor.restarts == 1
    shell.settle()
    assert shell.states() == {0: "live", 1: "live"}
    assert victim not in shell.supervisor.workers


def test_stale_heartbeat_gets_sigkill_and_a_respawn():
    shell = FakeShell()
    shell.boot()
    wedged, healthy = shell.pids(0)[0], shell.pids(1)[0]
    shell.step("heartbeat", healthy, after_s=TIMEOUT_S)
    assert shell.step("tick", after_s=1.0) == [("kill", wedged, "SIGKILL")]
    assert shell.states() == {0: "killed", 1: "live"}
    assert shell.step("tick", after_s=1.0) == []  # never signalled twice
    assert shell.exit(wedged, -9) == [("spawn", 0, True)]
    assert shell.states()[0] == "starting"


def test_a_worker_that_never_says_hello_is_stale_too():
    shell = FakeShell(size=1)
    shell.step("tick")
    (pid,) = shell.pids()
    assert shell.step("tick", after_s=TIMEOUT_S + 0.1) == [("kill", pid, "SIGKILL")]


def test_on_time_heartbeats_never_kill():
    shell = FakeShell()
    shell.boot()
    for _ in range(200):
        for pid in shell.pids():
            assert shell.step("heartbeat", pid, after_s=0.5) == []
        assert shell.step("tick") == []


def test_a_live_workers_own_exit_respawns_under_its_id():
    """``--max-requests``: the worker drains itself and exits 0."""
    shell = FakeShell()
    shell.boot()
    recycled = shell.pids(1)[0]
    assert shell.exit(recycled, 0) == [("spawn", 1, True)]
    assert shell.pids(1) != [recycled]


def test_ttin_and_ttou_scale_newest_first():
    shell = FakeShell()
    shell.boot()
    assert shell.step("signal", "SIGTTIN") == [("spawn", 2, False)]
    newest = shell.pids(2)[0]
    assert shell.hello(newest) == []
    assert shell.step("signal", "SIGTTOU") == [("kill", newest, "SIGTERM")]
    assert shell.states()[2] == "retiring"
    assert shell.exit(newest, 0) == []  # ordered: no respawn
    assert shell.step("signal", "SIGTTOU") == [("kill", shell.pids(1)[0], "SIGTERM")]
    assert shell.step("signal", "SIGTTOU") == []  # never below one worker
    assert shell.supervisor.size == 1


def test_ttou_waits_for_a_booting_worker_then_retires_it_at_hello():
    shell = FakeShell()
    shell.boot()
    shell.step("signal", "SIGTTIN")
    booting = shell.pids(2)[0]
    assert shell.step("signal", "SIGTTOU") == []  # capacity first
    assert shell.hello(booting) == [("kill", booting, "SIGTERM")]


def test_hup_rolls_one_worker_at_a_time_with_capacity_intact():
    shell = FakeShell()
    shell.boot()
    old = set(shell.pids())
    assert shell.step("signal", "SIGHUP") == [("spawn", 2, False)]

    def check():
        assert shell.serving() >= 2
        assert shell.active() <= 3

    for _ in range(10):
        shell.settle(check)
    assert shell.states() == {2: "live", 3: "live"}
    assert not old & set(shell.pids())


def test_overlapping_hups_converge_to_the_size():
    """Two HUPs before any hello: the second restarts the roll, and no
    worker is replaced twice, so the fleet never grows for good."""
    shell = FakeShell()
    shell.boot()
    shell.step("signal", "SIGHUP")
    shell.step("signal", "SIGHUP")
    counts = [shell.active()]
    for _ in range(10):
        shell.settle(lambda: counts.append(shell.active()))
    assert max(counts) <= 3
    assert len(shell.pids()) == 2
    assert {w.generation for w in shell.supervisor.workers.values()} == {2}
    assert set(shell.states().values()) == {"live"}


def test_a_worker_retired_before_its_hello_gets_sigterm_at_the_hello():
    shell = FakeShell()
    shell.boot()
    shell.step("signal", "SIGHUP")
    first_replacement = shell.pids(2)[0]
    # The second HUP makes the still-booting replacement surplus; a
    # SIGTERM now could land in its fork window, so none is sent.
    assert shell.step("signal", "SIGHUP") == [("spawn", 3, False)]
    assert shell.states()[2] == "retiring"
    assert shell.hello(first_replacement)[0] == ("kill", first_replacement, "SIGTERM")


def test_drain_sends_term_then_kill_then_halts():
    shell = FakeShell()
    shell.boot()
    first, second = shell.pids()
    assert shell.step("signal", "SIGTERM") == [("kill", first, "SIGTERM"), ("kill", second, "SIGTERM")]
    assert shell.step("signal", "SIGTTIN") == []  # nothing scales while stopping
    assert shell.exit(first, 0) == []
    assert shell.step("tick", after_s=DRAIN_WAIT_S - 1) == []
    assert shell.step("tick", after_s=1.0) == [("kill", second, "SIGKILL")]
    assert shell.step("tick", after_s=1.0) == []
    assert shell.exit(second, -9) == [("halt", 0, "")]
    assert shell.step("tick", after_s=1.0) == []  # halts once


def test_a_crash_while_stopping_is_not_respawned():
    shell = FakeShell()
    shell.boot()
    first, second = shell.pids()
    shell.step("signal", "SIGINT")
    assert shell.exit(first, -11) == []
    assert shell.exit(second, 0) == [("halt", 0, "")]


# ---------------------------------------------------------------------- #
# Properties over random event sequences
# ---------------------------------------------------------------------- #

SIGNALS = ("SIGTERM", "SIGINT", "SIGTTIN", "SIGTTOU", "SIGHUP")

operations = st.lists(
    st.one_of(
        st.tuples(st.just("hello"), st.integers(0, 7)),
        st.tuples(st.just("heartbeat"), st.integers(0, 7)),
        st.tuples(st.just("exit"), st.integers(0, 7), st.sampled_from([0, 1, BOOT_FAILURE, -9, -15])),
        st.tuples(st.just("signal"), st.sampled_from(SIGNALS)),
        st.tuples(st.just("tick"), st.floats(0.0, 40.0)),
    ),
    max_size=40,
)


def _run(shell: FakeShell, ops) -> bool:
    """Apply ``ops``, checking each step; return whether a stop was ordered."""
    stop_ordered = False
    for op in ops:
        pids = shell.pids()
        if op[0] == "signal":
            if op[1] in ("SIGTERM", "SIGINT"):
                stop_ordered = True
            shell.step("signal", op[1])
        elif op[0] == "tick":
            shell.step("tick", after_s=op[1])
        elif pids:
            pid = pids[op[1] % len(pids)]
            if op[0] == "hello" and pid not in shell.greeted:
                shell.hello(pid)
            elif op[0] == "heartbeat" and pid in shell.greeted:
                shell.step("heartbeat", pid)
            elif op[0] == "exit":
                record = shell.supervisor.workers[pid]
                was_stopping = shell.supervisor.stopping
                boot_failure = record.state == "starting" and op[2] == BOOT_FAILURE
                actions = shell.exit(pid, op[2])
                if not was_stopping and record.state != "retiring" and not boot_failure:
                    assert ("spawn", record.worker_id, True) in actions, "unordered exit not respawned"
                stop_ordered |= boot_failure and not was_stopping
        for halt in shell.halts:
            assert stop_ordered, "halt without a stop or a boot failure"
            assert not shell.supervisor.workers and not shell.alive, "halt before the fleet emptied"
        assert len(shell.halts) <= 1
    return stop_ordered


class TestProperties:
    # No max_examples here: tier-1 runs hypothesis' default count, and the
    # CI sweep raises it with --hypothesis-profile=sweep.
    @settings(deadline=None)
    @given(operations)
    def test_invariants_hold_for_any_event_sequence(self, ops):
        # The checks run inside FakeShell.step and _run.
        _run(FakeShell(), ops)

    @settings(deadline=None)
    @given(operations)
    def test_the_fleet_converges_to_its_size(self, ops):
        shell = FakeShell()
        shell.step("tick")
        if _run(shell, [op for op in ops if op[:2] not in (("signal", "SIGTERM"), ("signal", "SIGINT"))]):
            return  # a boot failure halts instead
        supervisor = shell.supervisor

        def converged() -> bool:
            return len(shell.alive) == supervisor.size and all(
                w.state == "live" and w.generation == supervisor.generation
                for w in supervisor.workers.values()
            )

        # No more signals; every worker boots, heartbeats and obeys.
        for _ in range(4 * supervisor.size + 8):
            if converged():
                break
            shell.settle()
            for pid in shell.greeted & shell.alive.keys():
                shell.step("heartbeat", pid)
            shell.step("tick", after_s=1.0)
        assert converged(), [(w.worker_id, w.state, w.generation) for w in supervisor.workers.values()]
