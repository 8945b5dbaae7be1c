"""One forked serving worker: accept loop, telemetry shipping, drain.

A worker owns nothing global. It inherits two fds from the arbiter — the
shared listening socket and the write end of its control pipe — and
builds *everything else* post-fork via the ``runtime_factory`` callable:
its own :class:`~repro.sww.server.GenerativeServer`, its own
:class:`~repro.obs.MetricsRegistry` / :class:`~repro.obs.EventLog`
(stamped with the worker's pid) / :class:`~repro.obs.TimeSeriesSampler`,
and — when the arbiter hosts a cache tier — a
:class:`~repro.serving.remote.RemoteGenerationCache` facade in place of
a process-local gencache.

The accept loop is deliberately hand-rolled (``loop.sock_accept`` rather
than ``asyncio.start_server``): every worker accepts from the same
inherited socket (the kernel load-balances the backlog across blocked
acceptors), and an optional connection semaphore caps how many
connections this worker holds at once — with a cap of 1 the fleet
degenerates to least-loaded balancing, which the scaling benchmark uses
for determinism.

Each heartbeat interval the worker ships, over its control pipe:

* a ``heartbeat`` frame of cheap gauges (requests served, inflight
  streams, open connections, the cumulative simulated generation seconds
  this worker has paid);
* its full ``sww-metrics/1`` registry dump (replaces the previous one on
  the master);
* an ``sww-timeseries/1`` *delta* (only ticks newer than the last
  shipped);
* newly finished wide events (``seq`` greater than the last shipped).

On SIGTERM the worker stops accepting, drains every live session via
:meth:`~repro.sww.server.ServerSession.shutdown` (in-flight streams
finish and queued writer bytes flush before sockets close), ships a
final telemetry flush plus a ``bye`` frame, and exits 0. The same path
runs when ``--max-requests`` (plus a deterministic per-worker jitter, so
a fleet never recycles in lockstep) retires the worker.
"""

from __future__ import annotations

import asyncio
import logging
import os
import random
import signal
import socket
from dataclasses import dataclass, field

from repro.serving.protocol import write_frame_blocking

logger = logging.getLogger("repro.serving.worker")


@dataclass
class WorkerOptions:
    """Per-worker behaviour knobs, decided by the arbiter pre-fork."""

    worker_id: int = 0
    heartbeat_interval_s: float = 1.0
    drain_timeout_s: float = 30.0
    #: Retire (gracefully) after this many requests; 0 disables. A
    #: deterministic jitter of up to 10% — seeded by ``worker_id`` — is
    #: added so a uniformly loaded fleet never recycles in lockstep.
    max_requests: int = 0
    #: Cap on concurrently held connections; 0 means unlimited. A cap of
    #: 1 turns shared-socket accept into least-loaded balancing.
    connection_limit: int = 0


@dataclass
class WorkerRuntime:
    """Everything a worker builds post-fork (via ``runtime_factory``)."""

    server: object
    registry: object | None = None
    events: object | None = None
    sampler: object | None = None
    #: A close()-able cache facade (RemoteGenerationCache) when the
    #: arbiter hosts a shared tier; closed on the way out.
    gencache: object | None = None
    #: Extra banner lines the factory wants printed once (under the
    #: arbiter's worker-spawn line); purely informational.
    banner: list = field(default_factory=list)


def _recycle_threshold(options: WorkerOptions) -> int:
    """``max_requests`` plus up to 10% deterministic per-worker jitter."""
    if options.max_requests <= 0:
        return 0
    jitter_span = options.max_requests // 10
    jitter = random.Random(options.worker_id).randint(0, jitter_span) if jitter_span else 0
    return options.max_requests + jitter


def worker_main(listen_sock, pipe_fd: int, options: WorkerOptions, runtime_factory) -> int:
    """Run one worker to completion; returns the process exit status.

    Called in the child straight after fork (the arbiter has already
    detached the inherited asyncio state), so ``asyncio.run`` builds this
    process's own fresh event loop.
    """
    try:
        return asyncio.run(_amain(listen_sock, pipe_fd, options, runtime_factory))
    except KeyboardInterrupt:
        return 0


async def _amain(listen_sock, pipe_fd: int, options: WorkerOptions, runtime_factory) -> int:
    loop = asyncio.get_running_loop()
    pid = os.getpid()
    runtime: WorkerRuntime = runtime_factory()
    server = runtime.server

    ship_lock = asyncio.Lock()

    async def ship(doc: dict) -> None:
        """Write one control frame; serialized so frames never interleave."""
        doc.setdefault("worker", pid)
        async with ship_lock:
            try:
                await loop.run_in_executor(None, write_frame_blocking, pipe_fd, doc)
            except (BrokenPipeError, OSError):
                # Master gone; keep serving (its SIGTERM/SIGKILL decides).
                pass

    stop = asyncio.Event()
    exit_reason = "drain"

    def request_stop() -> None:
        stop.set()

    loop.add_signal_handler(signal.SIGTERM, request_stop)
    loop.add_signal_handler(signal.SIGINT, request_stop)

    await ship({"type": "hello", "worker_id": options.worker_id, "pid": pid})
    for line in runtime.banner:
        print(line, flush=True)

    sampler_task = None
    if runtime.sampler is not None:
        sampler_task = asyncio.create_task(runtime.sampler.run(stop))

    # ------------------------------------------------------------------ #
    # Accept loop over the shared inherited socket
    # ------------------------------------------------------------------ #

    listen_sock.setblocking(False)
    semaphore = (
        asyncio.Semaphore(options.connection_limit) if options.connection_limit > 0 else None
    )
    conn_tasks: set[asyncio.Task] = set()

    async def serve_socket(sock: socket.socket) -> None:
        sock.setblocking(False)
        reader = asyncio.StreamReader()
        protocol = asyncio.StreamReaderProtocol(reader)
        transport, _ = await loop.connect_accepted_socket(lambda: protocol, sock)
        writer = asyncio.StreamWriter(transport, protocol, reader, loop)
        try:
            await server.handle_connection(reader, writer)
        except (ConnectionError, OSError):
            pass
        except Exception:
            logger.exception("worker %d: connection handler failed", pid)

    async def accept_loop() -> None:
        while True:
            if semaphore is not None:
                await semaphore.acquire()
            try:
                sock, _addr = await loop.sock_accept(listen_sock)
            except asyncio.CancelledError:
                if semaphore is not None:
                    semaphore.release()
                raise
            except OSError:
                if semaphore is not None:
                    semaphore.release()
                continue
            task = asyncio.create_task(serve_socket(sock))
            conn_tasks.add(task)

            def _done(finished: asyncio.Task) -> None:
                conn_tasks.discard(finished)
                if semaphore is not None:
                    semaphore.release()

            task.add_done_callback(_done)

    acceptor = asyncio.create_task(accept_loop())

    # ------------------------------------------------------------------ #
    # Heartbeat + telemetry shipping
    # ------------------------------------------------------------------ #

    last_tick_shipped = -1
    last_seq_shipped = 0

    def generation_sim_s() -> float:
        if runtime.registry is None:
            return 0.0
        return runtime.registry.value(
            "sww_generation_seconds", layer="sww", operation="materialise"
        )

    async def ship_telemetry() -> None:
        nonlocal last_tick_shipped, last_seq_shipped
        if runtime.registry is not None:
            from repro.obs import dump_registry

            await ship({"type": "metrics", "dump": dump_registry(runtime.registry)})
        if runtime.sampler is not None:
            snapshot = runtime.sampler.snapshot(since=last_tick_shipped)
            if snapshot["ticks"]:
                last_tick_shipped = snapshot["tick"]
                await ship({"type": "timeseries", "snapshot": snapshot})
        if runtime.events is not None and getattr(runtime.events, "enabled", False):
            fresh = [
                record.to_dict()
                for record in runtime.events.events()
                if record.fields.get("seq", 0) > last_seq_shipped
            ]
            if fresh:
                last_seq_shipped = max(record["seq"] for record in fresh)
                await ship({"type": "events", "events": fresh})

    recycle_at = _recycle_threshold(options)

    async def heartbeat_loop() -> None:
        nonlocal exit_reason
        while not stop.is_set():
            try:
                await asyncio.wait_for(stop.wait(), options.heartbeat_interval_s)
                return
            except asyncio.TimeoutError:
                pass
            sessions = server.sessions()
            await ship(
                {
                    "type": "heartbeat",
                    "worker_id": options.worker_id,
                    "requests": server.requests_served,
                    "inflight": sum(session.inflight for session in sessions),
                    "connections": len(sessions),
                    "generation_sim_s": generation_sim_s(),
                }
            )
            await ship_telemetry()
            if recycle_at and server.requests_served >= recycle_at:
                exit_reason = "recycle"
                stop.set()
                return

    await heartbeat_loop()

    # ------------------------------------------------------------------ #
    # Graceful drain
    # ------------------------------------------------------------------ #

    acceptor.cancel()
    try:
        await acceptor
    except asyncio.CancelledError:
        pass
    sessions = server.sessions()
    if sessions:
        await asyncio.gather(
            *(session.shutdown(options.drain_timeout_s) for session in sessions),
            return_exceptions=True,
        )
    if conn_tasks:
        await asyncio.gather(*conn_tasks, return_exceptions=True)
    if sampler_task is not None:
        sampler_task.cancel()
        try:
            await sampler_task
        except asyncio.CancelledError:
            pass
    if runtime.sampler is not None:
        # One last tick so the drain window's deltas reach the master.
        runtime.sampler.tick()
    await ship_telemetry()
    await ship(
        {
            "type": "bye",
            "worker_id": options.worker_id,
            "exit": exit_reason,
            "requests": server.requests_served,
            "generation_sim_s": generation_sim_s(),
        }
    )
    if runtime.gencache is not None:
        await loop.run_in_executor(None, runtime.gencache.close)
    return 0
