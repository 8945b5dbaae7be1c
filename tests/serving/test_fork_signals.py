"""A signal that reaches a just-forked worker before it resets the
master's handlers is the worker's own: it takes the default action in the
child and never reaches the master's event loop through the wakeup fd the
two still share."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

# The child sends itself SIGTERM as its very first act, before _child
# resets anything; worker_main is stubbed out, so a child that survives
# the signal exits 0.
SCRIPT = """
import asyncio, os, signal
from repro.serving import arbiter
from repro.serving.arbiter import Arbiter, ArbiterConfig

arbiter.worker_main = lambda *args: 0
reset_then_serve = Arbiter._child

def child(self, *args):
    os.kill(os.getpid(), signal.SIGTERM)
    reset_then_serve(self, *args)

Arbiter._child = child

async def main():
    loop = asyncio.get_running_loop()
    seen = []
    loop.add_signal_handler(signal.SIGTERM, seen.append, "SIGTERM")
    pid = Arbiter(ArbiterConfig(), runtime_factory=None)._fork(0)
    _pid, status = await loop.run_in_executor(None, os.waitpid, pid, 0)
    await asyncio.sleep(0.2)  # a wakeup byte, had one been written, is read by now
    print(os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGTERM, seen)

asyncio.run(main())
"""


def test_signal_before_the_reset_kills_the_child_not_the_master():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "True []"
