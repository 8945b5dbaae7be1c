"""The shared PNG encode pool must survive the arbiter's ``fork()``.

Threads do not cross a fork: a worker that inherited the master's pool
object would queue encodes for threads that no longer exist and wait for
ever. The pool is therefore dropped in the child and rebuilt on the first
submit. Run in a subprocess so the fork happens in a process of our own,
not inside pytest.
"""

import os
import subprocess
import sys

SCRIPT = """
import os, sys, traceback
import numpy as np
from repro.genai.image import encode_png_async
from repro.media.png import encode_png

pixels = np.random.default_rng(7).integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
expected = encode_png(pixels)
assert encode_png_async(pixels).result(timeout=5) == expected  # the parent's pool threads exist
pid = os.fork()
if pid == 0:
    status = 1
    try:
        if encode_png_async(pixels).result(timeout=1.0) == expected:
            status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(status)
_, wait_status = os.waitpid(pid, 0)
assert encode_png_async(pixels).result(timeout=5) == expected  # and the parent's still work
sys.exit(os.waitstatus_to_exitcode(wait_status))
"""


def test_forked_child_encodes_within_a_second():
    repo_src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=os.path.abspath(repo_src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
