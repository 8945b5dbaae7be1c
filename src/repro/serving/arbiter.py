"""The pre-fork worker arbiter (master process).

One process binds the serving socket and forks N workers that all accept
from it; the kernel load-balances the backlog across blocked acceptors.
The master itself never serves site traffic — it supervises:

* **reap & respawn** — SIGCHLD reaps exited children; any worker that
  died without being asked to (crash, ``kill -9``, recycle) is respawned
  immediately, so a murdered worker is back within one heartbeat
  interval while its siblings' in-flight requests never notice;
* **heartbeat murder loop** — a worker whose last control-pipe heartbeat
  is older than the worker timeout is presumed wedged and SIGKILLed
  (SIGCHLD then respawns it);
* **signals** — SIGTERM/SIGINT drain the fleet gracefully (workers
  finish in-flight streams and flush queued writer bytes before exit);
  SIGTTIN forks one more worker, SIGTTOU retires the newest; SIGHUP
  rolls the fleet one worker at a time (spawn replacement, wait for its
  hello, then drain the old one) so capacity never dips;
* **boot errors** — a worker that exits with status 70 before its hello
  (its runtime factory raised) would fail the same way on every respawn,
  so the master halts the fleet instead and exits 70 itself;
* **shared gencache tier** — a
  :class:`~repro.serving.cachetier.CacheTierServer` runs on the master's
  own event loop, on a loopback-only ephemeral port, under the reserved
  ``sww-cache.internal`` authority, extending single-flight generation
  leadership across the fleet;
* **telemetry aggregation** — per-worker registry dumps, timeseries
  deltas and wide events arrive over the control pipes and are merged
  with the existing ``sww-metrics/1`` / ``sww-timeseries/1`` plumbing.
  The master serves them through the same
  :class:`~repro.sww.admin.AdminPlane` a single process runs, on its own
  listener, over these sources:

  * ``/metrics`` — one OpenMetrics exposition for the whole fleet
    (latest dump per live worker + final dumps of departed workers +
    the master's own registry);
  * ``/healthz`` — per-worker verdicts (alive, heartbeat age, stale)
    and a fleet status;
  * ``/debug/workers`` — pids, states, restart counts, per-worker
    request/inflight/generation gauges, cache-tier stats;
  * ``/debug/timeseries`` — ``merge_snapshots`` over every shipped
    delta (same-worker deltas concatenate by tick index; cross-worker
    points sum);
  * ``/debug/events`` — the fleet's wide events, ordered by
    ``(worker, seq)``.

  The plane's routes run on an executor thread, so every source copies
  the loop's containers before it reads them.

Fork hygiene: the master forks from *inside its running event loop*
(respawns happen in SIGCHLD handling), so the child must carefully shed
inherited asyncio state — detach the "running" loop marker, clear the
wakeup fd, restore default signal dispositions and close master-only
fds — before ``asyncio.run`` builds its own loop. The master's signals
stay blocked from before the fork until the child has reset them: one
that landed earlier would run asyncio's inherited handler, which writes
it to the wakeup fd the child still shares with the master. The child
never returns: it exits via ``os._exit`` so the master's finalizers
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
from dataclasses import dataclass, field

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
from repro.serving.worker import worker_main

logger = logging.getLogger("repro.serving.arbiter")

_CHILD_FAILURE_STATUS = 70  # EX_SOFTWARE; pre-empts "worker_main never ran"
#: How long SIGTERMed workers get before SIGKILL: a session's default
#: drain budget (``ServerSession.shutdown``) plus slack for the final flush.
_DRAIN_WAIT_S = 35.0
#: The signals the master's loop handles.
_MASTER_SIGNALS = (
    signal.SIGCHLD,
    signal.SIGTERM,
    signal.SIGINT,
    signal.SIGTTIN,
    signal.SIGTTOU,
    signal.SIGHUP,
)


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


@dataclass
class _WorkerRecord:
    worker_id: int
    pid: int
    pipe_fd: int
    state: str = "starting"  # starting | live | retiring | killed
    spawned_at: float = 0.0
    last_heartbeat: float = 0.0
    requests: int = 0
    inflight: int = 0
    connections: int = 0
    generation_sim_s: float = 0.0
    metrics_dump: dict | None = None
    hello: asyncio.Event = field(default_factory=asyncio.Event)
    reader_task: asyncio.Task | None = None


class Arbiter:
    """Master process: fork/supervise workers, host tier + admin planes.

    ``runtime_factory(cache_address)`` is called *in the child, post-fork,
    on the worker's event loop* with the ``(host, port)`` of the shared
    gencache tier, and returns the worker's ``(server, sampler)``.
    """

    def __init__(self, config: ArbiterConfig, runtime_factory) -> None:
        self.config = config
        self.runtime_factory = runtime_factory
        self.registry = MetricsRegistry()
        self.tier = CacheTierServer(config.cache_capacity_bytes, registry=self.registry)
        self._listen_sock: socket.socket | None = None
        self._workers: dict[int, _WorkerRecord] = {}
        self._departed_dumps: deque[dict] = deque(maxlen=64)
        self._timeseries: deque[dict] = deque(maxlen=4096)
        self._events: deque[dict] = deque(maxlen=8192)
        self._restarts = 0
        self._exit_status = 0
        self._stopping = False
        self._stop = asyncio.Event()
        self._next_worker_id = 0
        self._master_fds: set[int] = set()
        self._started_at = 0.0
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

    @property
    def port(self) -> int:
        """The bound serving port (after :meth:`_amain` binds it)."""
        if self._listen_sock is None:
            return self.config.port
        return self._listen_sock.getsockname()[1]

    async def _amain(self) -> int:
        loop = asyncio.get_running_loop()
        self._started_at = time.monotonic()
        config = self.config

        self._listen_sock = self._bind(config.host, config.port, backlog=128)
        host, port = self._listen_sock.getsockname()[:2]

        # The tier takes cache writes, so it never leaves loopback.
        cache_sock = self._bind("127.0.0.1", 0)
        self.cache_address = cache_sock.getsockname()[:2]
        self._master_fds.add(cache_sock.fileno())
        cache_server = await self.tier.server().serve(sock=cache_sock)

        admin_sock = self._bind(config.host, config.admin_port)
        self.admin_address = admin_sock.getsockname()[:2]
        self._master_fds.add(admin_sock.fileno())
        admin_server = await MiniH2Server(self.admin.handle, registry=self.registry).serve(
            sock=admin_sock
        )

        print(f"sww arbiter serving on {host}:{port} workers={config.workers}", flush=True)
        print(f"sww arbiter admin on {self.admin_address[0]}:{self.admin_address[1]}", flush=True)
        print(
            f"sww arbiter cache tier on {self.cache_address[0]}:{self.cache_address[1]}",
            flush=True,
        )

        loop.add_signal_handler(signal.SIGCHLD, self._on_sigchld)
        loop.add_signal_handler(signal.SIGTERM, self._request_stop)
        loop.add_signal_handler(signal.SIGINT, self._request_stop)
        loop.add_signal_handler(signal.SIGTTIN, self._on_ttin)
        loop.add_signal_handler(signal.SIGTTOU, self._on_ttou)
        loop.add_signal_handler(signal.SIGHUP, self._on_hup)

        for _ in range(config.workers):
            await self._spawn(self._allocate_worker_id())
        self._gauge_workers()

        murder = asyncio.create_task(self._murder_loop())
        try:
            await self._stop.wait()
        finally:
            murder.cancel()
            try:
                await murder
            except asyncio.CancelledError:
                pass
            await self._shutdown_fleet()
            cache_server.close()
            admin_server.close()
            self._listen_sock.close()
        print("sww arbiter stopped", flush=True)
        return self._exit_status

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

    def _allocate_worker_id(self) -> int:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        return worker_id

    async def _spawn(self, worker_id: int) -> _WorkerRecord:
        """Fork one worker; parent wires the control pipe, child serves."""
        read_fd, write_fd = os.pipe()
        signal.pthread_sigmask(signal.SIG_BLOCK, _MASTER_SIGNALS)
        try:
            pid = os.fork()
            if pid == 0:
                self._child(worker_id, read_fd, write_fd)  # never returns
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, _MASTER_SIGNALS)
        os.close(write_fd)
        record = _WorkerRecord(
            worker_id=worker_id,
            pid=pid,
            pipe_fd=read_fd,
            spawned_at=time.monotonic(),
            last_heartbeat=time.monotonic(),
        )
        self._workers[pid] = record
        self._master_fds.add(read_fd)
        record.reader_task = asyncio.create_task(self._read_pipe(record))
        print(f"sww arbiter worker {worker_id} pid {pid}", flush=True)
        return record

    def _child(self, worker_id: int, read_fd: int, write_fd: int) -> None:
        """Post-fork hygiene, then the worker's own world. Never returns."""
        status = _CHILD_FAILURE_STATUS
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

    async def _read_pipe(self, record: _WorkerRecord) -> None:
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        protocol = asyncio.StreamReaderProtocol(reader)
        pipe = os.fdopen(record.pipe_fd, "rb", buffering=0)
        self._master_fds.discard(record.pipe_fd)
        transport, _ = await loop.connect_read_pipe(lambda: protocol, pipe)
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except FrameError as exc:
                    logger.warning("worker %d: bad control frame: %s", record.pid, exc)
                    break
                if frame is None:
                    break
                self._handle_frame(record, frame)
        finally:
            transport.close()

    def _handle_frame(self, record: _WorkerRecord, frame: dict) -> None:
        kind = frame.get("type")
        now = time.monotonic()
        if kind == "hello":
            if record.state == "starting":
                record.state = "live"
            record.last_heartbeat = now
            record.hello.set()
        elif kind == "heartbeat":
            record.last_heartbeat = now
            record.requests = int(frame.get("requests", 0))
            record.inflight = int(frame.get("inflight", 0))
            record.connections = int(frame.get("connections", 0))
            record.generation_sim_s = float(frame.get("generation_sim_s", 0.0))
            self._count("heartbeat")
        elif kind == "metrics":
            record.metrics_dump = frame.get("dump")
        elif kind == "timeseries":
            snapshot = frame.get("snapshot")
            if snapshot:
                self._timeseries.append(snapshot)
        elif kind == "events":
            self._events.extend(frame.get("events", ()))
        elif kind == "bye":
            record.requests = int(frame.get("requests", record.requests))
            record.generation_sim_s = float(
                frame.get("generation_sim_s", record.generation_sim_s)
            )
            if record.state == "live":
                # Self-initiated exit (max-requests recycle): the reap
                # handler will respawn because the state is still live.
                logger.info(
                    "worker %d pid %d leaving (%s)",
                    record.worker_id,
                    record.pid,
                    frame.get("exit", "?"),
                )

    # ------------------------------------------------------------------ #
    # Signals & supervision
    # ------------------------------------------------------------------ #

    def _request_stop(self) -> None:
        self._stopping = True
        self._stop.set()

    def _on_sigchld(self) -> None:
        asyncio.get_running_loop().create_task(self._reap())

    def _on_ttin(self) -> None:
        if self._stopping:
            return
        asyncio.get_running_loop().create_task(self._scale_up())

    def _on_ttou(self) -> None:
        asyncio.get_running_loop().create_task(self._retire_newest())

    def _on_hup(self) -> None:
        if self._stopping:
            return
        asyncio.get_running_loop().create_task(self._rolling_reload())

    async def _scale_up(self) -> None:
        await self._spawn(self._allocate_worker_id())
        self._gauge_workers()

    async def _retire_newest(self) -> None:
        live = [r for r in self._workers.values() if r.state in ("starting", "live")]
        if len(live) <= 1:
            return  # never drain the last worker via scale-down
        newest = max(live, key=lambda r: r.worker_id)
        newest.state = "retiring"
        # A worker installs its signal handlers before it ships hello; a
        # SIGTERM delivered in the fork window would hit the inherited
        # (master) handler and be swallowed. Wait for hello, then drain.
        try:
            await asyncio.wait_for(newest.hello.wait(), self.config.worker_timeout_s)
        except asyncio.TimeoutError:
            self._kill(newest.pid, signal.SIGKILL)
            return
        self._kill(newest.pid, signal.SIGTERM)

    async def _rolling_reload(self) -> None:
        """SIGHUP: replace every worker one at a time, capacity intact."""
        for pid in list(self._workers):
            old = self._workers.get(pid)
            if old is None or old.state not in ("starting", "live"):
                continue
            replacement = await self._spawn(self._allocate_worker_id())
            try:
                await asyncio.wait_for(
                    replacement.hello.wait(), self.config.worker_timeout_s
                )
            except asyncio.TimeoutError:
                logger.warning("reload: replacement worker never said hello")
            if self._stopping:
                return
            old.state = "retiring"
            try:  # same fork-window guard as _retire_newest
                await asyncio.wait_for(old.hello.wait(), self.config.worker_timeout_s)
            except asyncio.TimeoutError:
                self._kill(old.pid, signal.SIGKILL)
                continue
            self._kill(old.pid, signal.SIGTERM)
        self._gauge_workers()

    async def _reap(self) -> None:
        while True:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return
            record = self._workers.pop(pid, None)
            if record is None:
                continue
            if record.metrics_dump is not None:
                # Keep the dead worker's final counters in /metrics.
                self._departed_dumps.append(record.metrics_dump)
            if (
                not self._stopping
                and record.state == "starting"
                and os.waitstatus_to_exitcode(status) == _CHILD_FAILURE_STATUS
            ):
                # It raised before its hello; a respawn would fail the
                # same way, forever. (A signal during boot still respawns.)
                print(
                    f"sww arbiter halting: worker {record.worker_id} pid {pid} "
                    f"failed to boot (exit status {_CHILD_FAILURE_STATUS})",
                    flush=True,
                )
                self._exit_status = _CHILD_FAILURE_STATUS
                self._request_stop()
            respawn = not self._stopping and record.state in ("starting", "live", "killed")
            logger.info(
                "reaped worker %d pid %d (state=%s, respawn=%s)",
                record.worker_id,
                pid,
                record.state,
                respawn,
            )
            if respawn:
                self._restarts += 1
                self._count("respawn", name="serving_worker_restarts_total",
                            help="Workers respawned after unplanned exits")
                await self._spawn(record.worker_id)
            self._gauge_workers()

    async def _murder_loop(self) -> None:
        """SIGKILL workers whose heartbeat went stale (wedged loop)."""
        interval = max(self.config.heartbeat_interval_s, 0.1)
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for record in list(self._workers.values()):
                if record.state not in ("starting", "live"):
                    continue
                if now - record.last_heartbeat > self.config.worker_timeout_s:
                    logger.warning(
                        "worker %d pid %d heartbeat stale (%.1fs); killing",
                        record.worker_id,
                        record.pid,
                        now - record.last_heartbeat,
                    )
                    record.state = "killed"
                    self._kill(record.pid, signal.SIGKILL)

    async def _shutdown_fleet(self) -> None:
        for record in self._workers.values():
            self._kill(record.pid, signal.SIGTERM)
        deadline = time.monotonic() + _DRAIN_WAIT_S
        while self._workers and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
            await self._reap()
        for record in list(self._workers.values()):
            logger.warning("worker pid %d ignored drain; SIGKILL", record.pid)
            self._kill(record.pid, signal.SIGKILL)
        while self._workers:
            await asyncio.sleep(0.05)
            await self._reap()

    @staticmethod
    def _kill(pid: int, sig: int) -> None:
        try:
            os.kill(pid, sig)
        except ProcessLookupError:
            pass

    # ------------------------------------------------------------------ #
    # Admin plane sources (read on an executor thread)
    # ------------------------------------------------------------------ #

    def _merged_registry(self) -> MetricsRegistry:
        dumps = list(self._departed_dumps)
        dumps.extend(
            record.metrics_dump
            for record in list(self._workers.values())
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
        records = sorted(self._workers.values(), key=lambda r: r.worker_id)
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
            "restarts": self._restarts,
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
                for record in sorted(self._workers.values(), key=lambda r: r.worker_id)
            ],
            "restarts": self._restarts,
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

    # ------------------------------------------------------------------ #
    # Master metrics
    # ------------------------------------------------------------------ #

    def _gauge_workers(self) -> None:
        live = sum(1 for r in self._workers.values() if r.state in ("starting", "live"))
        self.registry.gauge(
            "serving_workers_size",
            "Live workers under the arbiter",
            layer="serving",
        ).set(live)

    def _count(
        self,
        operation: str,
        name: str = "serving_heartbeats_total",
        help: str = "Worker control-pipe heartbeats received",
    ) -> None:
        self.registry.counter(name, help, layer="serving", operation=operation).inc()


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
