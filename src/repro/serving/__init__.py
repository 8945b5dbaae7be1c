"""repro.serving — pre-fork multi-worker serving (the arbiter).

Everything before this package runs the generative server as one process
on one event loop; generation capacity — the paper's scarce resource —
is therefore capped at a single core. This package adds the gunicorn-
style process model on top of the existing building blocks without
changing any of them:

* :mod:`repro.serving.supervisor` — the supervision policy, pure data:
  ``Supervisor.step(event, now)`` takes one event (a fork, a hello, a
  heartbeat, an exit, a signal, a tick) and returns the actions (spawn,
  kill, halt) that keep the fleet at its size: respawns, stale-heartbeat
  kills, SIGTTIN/SIGTTOU scaling, SIGHUP rolls, drain and boot-failure
  halts;
* :mod:`repro.serving.arbiter` — the master, the policy's OS shell: binds
  the listening socket, turns SIGCHLD, control-pipe frames, signals and a
  tick into events, carries out the actions with ``fork`` and
  ``os.kill``, and serves per-worker telemetry, merged, through the same
  admin plane a single process runs (``/metrics``, ``/healthz``,
  ``/debug/workers``);
* :mod:`repro.serving.worker` — one forked worker: accepts on the shared
  inherited socket, drives :meth:`GenerativeServer.handle_connection`,
  drains gracefully on SIGTERM (in-flight streams finish, queued writer
  bytes flush) and ships heartbeat/metrics/timeseries/event frames to
  the master over its control pipe, written on its event loop;
* :mod:`repro.serving.cachetier` — the shared gencache tier, always on
  under the arbiter: a lightweight cache server on a loopback-only
  port, spoken to over the repo's own HTTP/2 stack under the reserved
  ``sww-cache.internal`` authority, extending the gencache's
  single-flight leadership across process boundaries;
* :mod:`repro.serving.remote` — the worker-side
  :class:`~repro.gencache.GenerationCache`-compatible facade over that
  tier;
* :mod:`repro.serving.protocol` — the length-prefixed JSON control-pipe
  frames workers ship telemetry over;
* :mod:`repro.serving.h2util` — the respond-only request/response
  shapes the cache tier and the admin plane share, on the
  :mod:`repro.http2.endpoint` server driver.
"""

from repro.serving.arbiter import Arbiter, ArbiterConfig
from repro.serving.cachetier import CACHE_AUTHORITY, CacheTierServer
from repro.serving.h2util import MiniH2Server, MiniRequest, MiniResponse
from repro.serving.protocol import FrameError, encode_frame, read_frame
from repro.serving.remote import RemoteGenerationCache
from repro.serving.worker import worker_main

__all__ = [
    "Arbiter",
    "ArbiterConfig",
    "CACHE_AUTHORITY",
    "CacheTierServer",
    "MiniH2Server",
    "MiniRequest",
    "MiniResponse",
    "FrameError",
    "encode_frame",
    "read_frame",
    "RemoteGenerationCache",
    "worker_main",
]
