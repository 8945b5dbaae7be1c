"""One forked serving worker: accept loop, telemetry shipping, drain.

A worker owns nothing global. It inherits two fds from the arbiter — the
shared listening socket and the write end of its control pipe — and
builds *everything else* post-fork via the ``runtime_factory`` callable,
which returns ``(server, sampler)``: its own
:class:`~repro.sww.server.GenerativeServer` (with its own
:class:`~repro.obs.MetricsRegistry`, :class:`~repro.obs.EventLog` stamped
with the worker's pid, and a
:class:`~repro.serving.remote.RemoteGenerationCache` facade over the
arbiter's shared cache tier as its gencache) and its own
:class:`~repro.obs.TimeSeriesSampler`.

The accept loop is deliberately hand-rolled (a readiness wait plus a
non-blocking ``accept``, rather than ``asyncio.start_server``): every
worker accepts from the same inherited socket (the kernel load-balances
the backlog across blocked acceptors), and an optional connection
semaphore caps how many connections this worker holds at once — with a
cap of 1 the fleet degenerates to least-loaded balancing, which the
scaling benchmark uses for determinism.

Each heartbeat interval the worker ships, over its control pipe:

* a ``heartbeat`` frame of cheap gauges (requests served, inflight
  streams, open connections, the cumulative simulated generation seconds
  this worker has paid);
* its full ``sww-metrics/1`` registry dump (replaces the previous one on
  the master);
* an ``sww-timeseries/1`` *delta* (only ticks newer than the last
  shipped);
* newly finished wide events (``seq`` greater than the last shipped).

Frames are written on the event loop through an asyncio pipe transport,
never through the thread pool that generation shares: a heartbeat then
proves exactly what the master's stale-heartbeat rule tests — that this
worker's event loop still turns — however many requests are blocked in
the pool.

On SIGTERM the worker stops accepting at once, drains every live session via
:meth:`~repro.sww.server.ServerSession.shutdown` (in-flight streams
finish and queued writer bytes flush before sockets close), ships a
final telemetry flush plus a ``bye`` frame, and exits 0. The same path
runs when ``max_requests`` (plus a deterministic per-worker jitter, so
a fleet never recycles in lockstep) retires the worker.
"""

from __future__ import annotations

import asyncio
import logging
import os
import random
import signal
import socket

from repro.http2.transport import serve_socket
from repro.obs import dump_registry
from repro.serving.protocol import encode_frame

logger = logging.getLogger("repro.serving.worker")


def _recycle_threshold(max_requests: int, worker_id: int) -> int:
    """``max_requests`` plus up to 10% deterministic per-worker jitter."""
    if max_requests <= 0:
        return 0
    jitter_span = max_requests // 10
    jitter = random.Random(worker_id).randint(0, jitter_span) if jitter_span else 0
    return max_requests + jitter


def worker_main(listen_sock, pipe_fd: int, worker_id: int, config, runtime_factory) -> int:
    """Run one worker to completion; returns the process exit status.

    ``config`` is the arbiter's :class:`~repro.serving.arbiter.ArbiterConfig`.
    Called in the child straight after fork (the arbiter has already
    detached the inherited asyncio state), so ``asyncio.run`` builds this
    process's own fresh event loop.
    """
    try:
        return asyncio.run(_amain(listen_sock, pipe_fd, worker_id, config, runtime_factory))
    except KeyboardInterrupt:
        return 0


async def _amain(listen_sock, pipe_fd: int, worker_id: int, config, runtime_factory) -> int:
    loop = asyncio.get_running_loop()
    pid = os.getpid()
    server, sampler = runtime_factory()

    pipe, pipe_protocol = await loop.connect_write_pipe(
        asyncio.streams.FlowControlMixin, os.fdopen(pipe_fd, "wb", buffering=0)
    )
    # No write buffering past the pipe: drain() returns once a frame is in
    # the kernel, so nothing shipped is lost when the process exits.
    pipe.set_write_buffer_limits(high=0)
    control = asyncio.StreamWriter(pipe, pipe_protocol, None, loop)

    async def ship(doc: dict) -> None:
        """Write one control frame; one write() per frame, so none interleave."""
        doc.setdefault("worker", pid)
        control.write(encode_frame(doc))
        try:
            await control.drain()
        except (ConnectionError, OSError):
            # Master gone; keep serving (its SIGTERM/SIGKILL decides).
            pass

    stop = asyncio.Event()
    exit_reason = "drain"
    acceptor: asyncio.Task | None = None

    def request_stop() -> None:
        # gunicorn's worker ``alive = False``: nothing is accepted after
        # this, and everything accepted before it is served by the drain.
        stop.set()
        if acceptor is not None:
            acceptor.cancel()

    loop.add_signal_handler(signal.SIGTERM, request_stop)
    loop.add_signal_handler(signal.SIGINT, request_stop)

    await ship({"type": "hello", "worker_id": worker_id, "pid": pid})

    sampler_task = asyncio.create_task(sampler.run(stop))

    # ------------------------------------------------------------------ #
    # Accept loop over the shared inherited socket
    # ------------------------------------------------------------------ #

    listen_sock.setblocking(False)
    semaphore = (
        asyncio.Semaphore(config.connection_limit) if config.connection_limit > 0 else None
    )
    conn_tasks: set[asyncio.Task] = set()

    async def serve_connection(sock: socket.socket) -> None:
        try:
            await serve_socket(sock, server.new_connection, server.handle_connection)
        except (ConnectionError, OSError):
            pass
        except Exception:
            logger.exception("worker %d: connection handler failed", pid)

    async def accept_loop() -> None:
        """Accept until cancelled. A cancel lands only in the semaphore or the
        readiness wait: the accept that follows hands its socket to a task in
        the same step (inside ``loop.sock_accept`` it could drop the socket)."""
        fd = listen_sock.fileno()
        while True:
            if semaphore is not None:
                await semaphore.acquire()
            readable = loop.create_future()
            loop.add_reader(fd, lambda: readable.done() or readable.set_result(None))
            try:
                await readable
            except asyncio.CancelledError:
                if semaphore is not None:
                    semaphore.release()
                raise
            finally:
                loop.remove_reader(fd)
            try:
                sock, _addr = listen_sock.accept()
            except OSError:  # most often BlockingIOError: a sibling took it
                if semaphore is not None:
                    semaphore.release()
                continue
            task = asyncio.create_task(serve_connection(sock))
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
        return server.registry.value(
            "sww_generation_seconds", layer="sww", operation="materialise"
        )

    async def ship_telemetry() -> None:
        nonlocal last_tick_shipped, last_seq_shipped
        await ship({"type": "metrics", "dump": dump_registry(server.registry)})
        snapshot = sampler.snapshot(since=last_tick_shipped)
        if snapshot["ticks"]:
            last_tick_shipped = snapshot["tick"]
            await ship({"type": "timeseries", "snapshot": snapshot})
        fresh = [
            record.to_dict()
            for record in server.events.events()
            if record.fields.get("seq", 0) > last_seq_shipped
        ]
        if fresh:
            last_seq_shipped = max(record["seq"] for record in fresh)
            await ship({"type": "events", "events": fresh})

    recycle_at = _recycle_threshold(config.max_requests, worker_id)

    async def heartbeat_loop() -> None:
        nonlocal exit_reason
        while not stop.is_set():
            try:
                await asyncio.wait_for(stop.wait(), config.heartbeat_interval_s)
                return
            except asyncio.TimeoutError:
                pass
            sessions = server.sessions()
            await ship(
                {
                    "type": "heartbeat",
                    "worker_id": worker_id,
                    "requests": server.requests_served,
                    "inflight": sum(session.inflight for session in sessions),
                    "connections": len(sessions),
                    "generation_sim_s": generation_sim_s(),
                }
            )
            await ship_telemetry()
            if recycle_at and server.requests_served >= recycle_at:
                exit_reason = "recycle"
                request_stop()
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
    if conn_tasks:
        # A connection accepted just before the stop may not have delivered
        # its first request yet, and shutting it down now would drop that
        # request: connections get one heartbeat interval to finish alone.
        await asyncio.wait(conn_tasks, timeout=config.heartbeat_interval_s)
    sessions = server.sessions()
    if sessions:
        await asyncio.gather(
            *(session.shutdown() for session in sessions),
            return_exceptions=True,
        )
    if conn_tasks:
        await asyncio.gather(*conn_tasks, return_exceptions=True)
    sampler_task.cancel()
    try:
        await sampler_task
    except asyncio.CancelledError:
        pass
    # One last tick so the drain window's deltas reach the master.
    sampler.tick()
    await ship_telemetry()
    await ship(
        {
            "type": "bye",
            "worker_id": worker_id,
            "exit": exit_reason,
            "requests": server.requests_served,
            "generation_sim_s": generation_sim_s(),
        }
    )
    await loop.run_in_executor(None, server.gencache.close)
    control.close()
    return 0
