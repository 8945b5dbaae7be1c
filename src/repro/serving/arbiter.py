"""The pre-fork worker arbiter (master process): the OS shell around the
supervision policy.

One process binds the serving socket and forks N workers that all accept
from it; the kernel load-balances the backlog across blocked acceptors.
The master never serves site traffic. What it decides — how many workers,
and which ones — is :meth:`Supervisor.step(event, now)
<repro.serving.supervisor.Supervisor.step>`. This module owns the
mechanisms, in one loop of events → policy → actions: SIGCHLD (reaped with
``waitpid``), control-pipe ``hello``/``heartbeat`` frames, SIGTERM, SIGINT,
SIGTTIN, SIGTTOU, SIGHUP and a ``call_later`` tick every heartbeat
interval become events; the actions it carries out are ``fork`` (each
answered with a ``forked`` event, or ``fork-failed`` when ``os.fork``
raises), ``os.kill`` and halting with a status.

The master also hosts, on its own event loop:

* the **shared gencache tier** — a
  :class:`~repro.serving.cachetier.CacheTierServer` on a loopback-only
  ephemeral port, under the reserved ``sww-cache.internal`` authority,
  extending single-flight generation leadership across the fleet;
* **telemetry aggregation** — per-worker registry dumps, timeseries
  deltas and wide events arrive over the control pipes. The same
  :class:`~repro.sww.admin.AdminPlane` a single process runs serves them,
  on its own listener: ``/metrics`` merges the latest dump per live
  worker, the final dumps of departed workers and the master's own
  registry; ``/healthz`` has per-worker verdicts; ``/debug/workers`` has
  pids, states, restarts, per-worker gauges and cache-tier stats;
  ``/debug/timeseries`` is ``merge_snapshots`` over every shipped delta;
  ``/debug/events`` orders the fleet's wide events by ``(worker, seq)``.
  The plane's routes run on an executor thread, so every source copies
  the loop's containers before it reads them.

Fork hygiene: the master forks from *inside its running event loop*, so
the child must shed inherited asyncio state — detach the "running" loop
marker, clear the wakeup fd, restore default signal dispositions and
close master-only fds — before ``asyncio.run`` builds its own loop. The
master's signals stay blocked from before the fork until the child has
reset them: one that landed earlier would run asyncio's inherited
handler, which writes it to the wakeup fd the child still shares with
the master. The child exits via ``os._exit`` so the master's finalizers
never run twice.
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal
import socket
import time
import traceback
from collections import deque
from dataclasses import dataclass

from repro.gencache.store import DEFAULT_GENCACHE_BYTES
from repro.obs import (
    MetricsRegistry,
    dump_registry,
    events_to_columnar,
    events_to_jsonl,
    load_registry,
    merge_registry_dumps,
    merge_snapshots,
)
from repro.serving.cachetier import CacheTierServer
from repro.serving.h2util import MiniH2Server
from repro.serving.protocol import FrameError, read_frame
from repro.serving.supervisor import BOOT_FAILURE, Supervisor
from repro.serving.worker import worker_main

logger = logging.getLogger("repro.serving.arbiter")

#: The signals the master's loop handles.
_MASTER_SIGNALS = (signal.SIGCHLD, signal.SIGTERM, signal.SIGINT, signal.SIGTTIN, signal.SIGTTOU, signal.SIGHUP)


@dataclass
class ArbiterConfig:
    host: str = "127.0.0.1"
    port: int = 8443
    workers: int = 2
    #: SIGKILL a worker whose last heartbeat is older than this.
    worker_timeout_s: float = 30.0
    heartbeat_interval_s: float = 1.0
    #: Retire (gracefully) after this many requests; 0 disables. A
    #: deterministic jitter of up to 10% — seeded by the worker id — is
    #: added so a uniformly loaded fleet never recycles in lockstep.
    max_requests: int = 0
    #: Cap on connections a worker holds at once; 0 means unlimited. A
    #: cap of 1 turns shared-socket accept into least-loaded balancing.
    connection_limit: int = 0
    #: The admin plane binds ``host`` on this port (0 = ephemeral).
    admin_port: int = 0
    cache_capacity_bytes: int = DEFAULT_GENCACHE_BYTES


class Arbiter:
    """Master process: fork/supervise workers, host tier + admin planes.

    ``runtime_factory(cache_address)`` is called *in the child, post-fork,
    on the worker's event loop* with the ``(host, port)`` of the shared
    gencache tier, and returns the worker's ``(server, sampler)``.
    """

    def __init__(self, config: ArbiterConfig, runtime_factory) -> None:
        self.config = config
        self.runtime_factory = runtime_factory
        self.supervisor = Supervisor(config.workers, config.worker_timeout_s)
        self.registry = MetricsRegistry()
        self.registry.source(self)
        self.tier = CacheTierServer(config.cache_capacity_bytes, registry=self.registry)
        self._listen_sock: socket.socket | None = None
        self._departed_dumps: deque[dict] = deque(maxlen=64)
        self._timeseries: deque[dict] = deque(maxlen=4096)
        self._events: deque[dict] = deque(maxlen=8192)
        self._readers: set[asyncio.Task] = set()
        self._master_fds: set[int] = set()
        self._started_at = 0.0
        #: The next tick's timer; the first tick boots the fleet.
        self._ticker: asyncio.TimerHandle | None = None
        # Imported here: repro.sww.admin imports this package's h2util.
        from repro.sww.admin import AdminPlane

        shipped = _Shipped(self._timeseries, self._events)
        #: The admin plane, over the fleet's merged sources.
        self.admin = AdminPlane(self._merged_registry, sampler=shipped, events=shipped, fleet=self)

    # ------------------------------------------------------------------ #
    # Entry
    # ------------------------------------------------------------------ #

    def run(self) -> int:
        return asyncio.run(self._amain())

    async def _amain(self) -> int:
        loop = asyncio.get_running_loop()
        self._started_at = time.monotonic()
        self._halted = loop.create_future()
        config = self.config

        self._listen_sock = self._bind(config.host, config.port, backlog=128)
        host, port = self._listen_sock.getsockname()[:2]

        # The tier takes cache writes, so it never leaves loopback.
        cache_sock = self._bind("127.0.0.1", 0)
        self.cache_address = cache_sock.getsockname()[:2]
        self._master_fds.add(cache_sock.fileno())
        cache_server = await self.tier.server().serve(sock=cache_sock)

        admin_sock = self._bind(config.host, config.admin_port)
        admin_host, admin_port = admin_sock.getsockname()[:2]
        self._master_fds.add(admin_sock.fileno())
        admin_server = await MiniH2Server(self.admin.handle, registry=self.registry).serve(
            sock=admin_sock
        )

        print(f"sww arbiter serving on {host}:{port} workers={config.workers}", flush=True)
        print(f"sww arbiter admin on {admin_host}:{admin_port}", flush=True)
        print(f"sww arbiter cache tier on {self.cache_address[0]}:{self.cache_address[1]}", flush=True)

        loop.add_signal_handler(signal.SIGCHLD, self._on_sigchld)
        for sig in _MASTER_SIGNALS[1:]:
            loop.add_signal_handler(sig, self._dispatch, ("signal", sig.name))
        self._tick()  # the first tick boots the fleet
        try:
            status = await self._halted
        finally:
            self._ticker.cancel()
            cache_server.close()
            admin_server.close()
            self._listen_sock.close()
        print("sww arbiter stopped", flush=True)
        return status

    # ------------------------------------------------------------------ #
    # Events in, actions out
    # ------------------------------------------------------------------ #

    def _dispatch(self, event: tuple) -> None:
        """Step the policy with ``event`` and carry out its actions."""
        events = [event]
        while events:
            event = events.pop(0)
            actions = self.supervisor.step(event, time.monotonic())
            for action in actions:
                match action:
                    case ("spawn", worker_id, restart):
                        if restart:
                            self.registry.counter(
                                "serving_worker_restarts_total", "Workers respawned after unplanned exits",
                                layer="serving", operation="respawn",
                            ).inc()
                        try:
                            events.append(("forked", worker_id, self._fork(worker_id)))
                        except OSError as exc:
                            logger.warning("fork of worker %d failed: %s", worker_id, exc)
                            events.append(("fork-failed", worker_id))
                    case ("kill", pid, name):
                        logger.info("%s to worker pid %d", name, pid)
                        try:
                            os.kill(pid, signal.Signals[name])
                        except ProcessLookupError:
                            pass
                    case ("halt", status, reason):
                        if reason:
                            print(f"sww arbiter halting: {reason}", flush=True)
                        self._halted.set_result(status)

    def samples(self, out, _owner) -> None:
        """The live workers, read from the policy when the master registry
        is scraped, once the first tick has booted the fleet."""
        if self._ticker is not None:
            live = sum(w.state in ("starting", "live") for w in self.supervisor.workers.values())
            out.gauge("serving_workers_size", "Live workers under the arbiter", live, layer="serving")

    def _tick(self) -> None:
        self._ticker = asyncio.get_running_loop().call_later(
            max(self.config.heartbeat_interval_s, 0.1), self._tick
        )
        self._dispatch(("tick",))

    def _on_sigchld(self) -> None:
        """SIGCHLD: every exited child becomes an ``exited`` event."""
        while True:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return
            record = self.supervisor.workers.get(pid)
            if record is not None and record.metrics_dump is not None:
                # Keep the dead worker's final counters in /metrics.
                self._departed_dumps.append(record.metrics_dump)
            self._dispatch(("exited", pid, os.waitstatus_to_exitcode(status)))

    # ------------------------------------------------------------------ #
    # Sockets & fork
    # ------------------------------------------------------------------ #

    @staticmethod
    def _bind(host: str, port: int, backlog: int = 16) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(backlog)
        sock.setblocking(False)
        return sock

    def _fork(self, worker_id: int) -> int:
        """Fork one worker; the parent reads its control pipe, the child serves.

        Raises ``OSError`` when the pipe or the fork fails, with no fd left open.
        """
        read_fd, write_fd = os.pipe()
        signal.pthread_sigmask(signal.SIG_BLOCK, _MASTER_SIGNALS)
        try:
            pid = os.fork()
            if pid == 0:
                self._child(worker_id, read_fd, write_fd)  # never returns
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, _MASTER_SIGNALS)
        os.close(write_fd)
        self._master_fds.add(read_fd)
        reader = asyncio.get_running_loop().create_task(self._read_pipe(pid, read_fd))
        self._readers.add(reader)
        reader.add_done_callback(self._readers.discard)
        print(f"sww arbiter worker {worker_id} pid {pid}", flush=True)
        return pid

    def _child(self, worker_id: int, read_fd: int, write_fd: int) -> None:
        """Post-fork hygiene, then the worker's own world. Never returns."""
        status = BOOT_FAILURE  # pre-empts "worker_main never ran"
        try:
            # The fork happened inside the master's *running* loop; shed
            # every trace of it so asyncio.run can build a fresh one.
            asyncio.events._set_running_loop(None)
            asyncio.set_event_loop(None)
            signal.set_wakeup_fd(-1)
            for sig in _MASTER_SIGNALS:
                signal.signal(sig, signal.SIG_DFL)
            # Blocked since before the fork; one that arrived meanwhile is
            # delivered now, with its default action.
            signal.pthread_sigmask(signal.SIG_UNBLOCK, _MASTER_SIGNALS)
            os.close(read_fd)
            for fd in self._master_fds:
                # Raw close: the master's socket objects still wrap these
                # in this child, but os._exit below skips finalizers.
                try:
                    os.close(fd)
                except OSError:
                    pass
            status = worker_main(
                self._listen_sock,
                write_fd,
                worker_id,
                self.config,
                lambda: self.runtime_factory(self.cache_address),
            )
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)

    # ------------------------------------------------------------------ #
    # Control pipe
    # ------------------------------------------------------------------ #

    async def _read_pipe(self, pid: int, fd: int) -> None:
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        protocol = asyncio.StreamReaderProtocol(reader)
        pipe = os.fdopen(fd, "rb", buffering=0)
        self._master_fds.discard(fd)
        transport, _ = await loop.connect_read_pipe(lambda: protocol, pipe)
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except FrameError as exc:
                    logger.warning("worker %d: bad control frame: %s", pid, exc)
                    break
                if frame is None:
                    break
                self._handle_frame(pid, frame)
        finally:
            transport.close()

    def _handle_frame(self, pid: int, frame: dict) -> None:
        kind = frame.get("type")
        if kind == "timeseries":
            snapshot = frame.get("snapshot")
            if snapshot:
                self._timeseries.append(snapshot)
            return
        if kind == "events":
            self._events.extend(frame.get("events", ()))
            return
        record = self.supervisor.workers.get(pid)
        if record is None:
            return  # already reaped
        if kind == "hello":
            self._dispatch(("hello", pid))
        elif kind == "heartbeat":
            record.requests = int(frame.get("requests", 0))
            record.inflight = int(frame.get("inflight", 0))
            record.connections = int(frame.get("connections", 0))
            record.generation_sim_s = float(frame.get("generation_sim_s", 0.0))
            self.registry.counter(
                "serving_heartbeats_total", "Worker control-pipe heartbeats received",
                layer="serving", operation="heartbeat",
            ).inc()
            self._dispatch(("heartbeat", pid))
        elif kind == "metrics":
            record.metrics_dump = frame.get("dump")
        elif kind == "bye":
            record.requests = int(frame.get("requests", record.requests))
            record.generation_sim_s = float(frame.get("generation_sim_s", record.generation_sim_s))
            logger.info("worker %d pid %d leaving (%s)", record.worker_id, pid, frame.get("exit", "?"))

    # ------------------------------------------------------------------ #
    # Admin plane sources (read on an executor thread)
    # ------------------------------------------------------------------ #

    def _merged_registry(self) -> MetricsRegistry:
        dumps = list(self._departed_dumps)
        dumps.extend(
            record.metrics_dump
            for record in list(self.supervisor.workers.values())
            if record.metrics_dump is not None
        )
        merged = merge_registry_dumps(dumps)
        # The master's own counters (restarts, heartbeats, tier traffic)
        # ride along in the same exposition.
        load_registry(dump_registry(self.registry), into=merged)
        return merged

    def healthz(self) -> dict:
        """The fleet's ``/healthz`` document: per-worker verdicts."""
        now = time.monotonic()
        records = sorted(self.supervisor.workers.values(), key=lambda r: r.worker_id)
        workers = []
        stale = 0
        for record in records:
            age = now - record.last_heartbeat
            is_stale = age > self.config.worker_timeout_s
            stale += is_stale
            workers.append(
                {
                    "worker_id": record.worker_id,
                    "pid": record.pid,
                    "state": record.state,
                    "heartbeat_age_s": round(age, 3),
                    "stale": is_stale,
                    "requests": record.requests,
                    "inflight": record.inflight,
                }
            )
        live = sum(1 for r in records if r.state in ("starting", "live"))
        status = "ok" if live >= 1 and stale == 0 else "degraded"
        return {
            "status": status,
            "workers": workers,
            "live": live,
            "stale": stale,
            "restarts": self.supervisor.restarts,
            "uptime_s": round(now - self._started_at, 3),
        }

    def workers_state(self) -> dict:
        """The fleet's ``/debug/workers`` document."""
        now = time.monotonic()
        stats = self.tier.cache.stats
        return {
            "workers": [
                {
                    "worker_id": record.worker_id,
                    "pid": record.pid,
                    "state": record.state,
                    "heartbeat_age_s": round(now - record.last_heartbeat, 3),
                    "uptime_s": round(now - record.spawned_at, 3),
                    "requests": record.requests,
                    "inflight": record.inflight,
                    "connections": record.connections,
                    "generation_sim_s": record.generation_sim_s,
                }
                for record in sorted(self.supervisor.workers.values(), key=lambda r: r.worker_id)
            ],
            "restarts": self.supervisor.restarts,
            "events_buffered": len(self._events),
            "timeseries_deltas": len(self._timeseries),
            "cache_tier": {
                "address": list(self.cache_address),
                "hits": stats.hits,
                "misses": stats.misses,
                "coalesced": stats.coalesced,
                "hit_rate": stats.hit_rate,
                "entry_count": self.tier.cache.entry_count,
                "used_bytes": self.tier.cache.used_bytes,
                "flights": len(self.tier._flights),
            },
        }


class _Shipped:
    """The workers' shipped telemetry, read the way the admin plane reads a
    sampler and an event log."""

    def __init__(self, timeseries: deque[dict], events: deque[dict]) -> None:
        self._timeseries = timeseries
        self._events = events

    def snapshot(self, since: int | None = None) -> dict:
        """Every shipped delta merged; the merge is always whole."""
        return merge_snapshots(list(self._timeseries))

    def _ordered(self, last: int | None) -> list[dict]:
        ordered = sorted(self._events, key=lambda e: (e.get("worker", 0), e.get("seq", 0)))
        if last is not None and last >= 0:
            ordered = ordered[len(ordered) - min(last, len(ordered)):]
        return ordered

    def to_jsonl(self, last: int | None = None) -> str:
        return events_to_jsonl(self._ordered(last))

    def to_columnar(self, last: int | None = None) -> dict:
        return events_to_columnar(self._ordered(last))
