"""Priority scheduling and BDP window tuning on a modelled WAN path.

Two experiments over the real HTTP/2 engines with a simulated link
(fixed RTT, finite bandwidth, simulated clock):

* **TTATF under contention** — 8 concurrent responses (2 critical
  above-the-fold streams injected while 6 bulk assets are mid-flight).
  RFC 9218 scheduling must cut time-to-above-the-fold p50/p99 by ≥1.5x
  versus the flat round robin while delivering byte-identical payloads.
* **BDP-adaptive windows** — one bulk transfer on the fleet's high-RTT
  (0.1 s) path. The tuner starts at the 64 KiB default and must recover
  ≥90% of the steady-state throughput of an oracle-tuned fixed window,
  while crushing the stalling fixed-small baseline.
"""

from __future__ import annotations

import hashlib
import statistics

from _shared import print_table, record_bench
from repro.http2.bdp import AdaptiveReceiveWindow, BdpEstimator
from repro.http2.connection import DataReceived, H2Connection, RequestReceived, Role
from repro.http2.frames import DataFrame, parse_frames
from repro.http2.priority import DEFAULT_URGENCY
from repro.http2.writer import ConnectionWriter

RTT_S = 0.1  # the fleet's shield→origin leg (PR 9 LatencyModel's worst path)
BANDWIDTH_BPS = 25_000_000  # 25 MB/s modelled link rate
REQUEST = [
    (b":method", b"GET"),
    (b":scheme", b"https"),
    (b":path", b"/page"),
    (b":authority", b"bench"),
]


class SimLink:
    """One client/server pair over a modelled path.

    Each :meth:`round` is one congestion-window exchange: the writer fills
    the engine's buffer up to the flow-control windows, the bytes cross
    the link at ``bandwidth`` after ``rtt/2`` latency, the client's grants
    ride back, and the simulated clock advances ``max(rtt, bytes/bandwidth)``.

    ``round_robin`` builds the flat reference arm: every response is
    enqueued at the default urgency, incremental, whatever the request's
    ``priority`` header said (explicit ``enqueue`` arguments win).
    """

    def __init__(
        self,
        window: int,
        round_robin: bool = False,
        adaptive: bool = False,
        rtt_s: float = RTT_S,
        bandwidth_bps: float = BANDWIDTH_BPS,
    ) -> None:
        self.t = 0.0
        self.rtt_s = rtt_s
        self.bandwidth_bps = bandwidth_bps
        self.client = H2Connection(Role.CLIENT, initial_window_size=window)
        self.server = H2Connection(Role.SERVER)
        self.round_robin = round_robin
        self.writer = ConnectionWriter(self.server)
        self.adaptive: AdaptiveReceiveWindow | None = None
        if adaptive:
            self.adaptive = AdaptiveReceiveWindow(
                self.client,
                BdpEstimator(lambda: self.t, rtt_s=rtt_s, min_window=window),
            )
        self.completion_s: dict[int, float] = {}
        self.received: dict[int, bytearray] = {}
        self.frame_log: list[int] = []
        self._expected: dict[int, int] = {}
        # Handshake (not charged to the simulated clock: connection setup
        # is common to every scenario).
        self.client.initiate_connection()
        self.server.initiate_connection()
        for _ in range(4):
            self.server.receive_data(self.client.data_to_send())
            self.client.receive_data(self.server.data_to_send())

    def request(self, path: str, body: bytes, priority: bytes | None = None) -> int:
        """Open a request and enqueue the server's response for it."""
        headers = [(k, path.encode() if k == b":path" else v) for k, v in REQUEST]
        if priority is not None:
            headers.append((b"priority", priority))
        stream_id = self.client.get_next_available_stream_id()
        self.client.send_headers(stream_id, headers, end_stream=True)
        events = self.server.receive_data(self.client.data_to_send())
        assert any(isinstance(e, RequestReceived) for e in events)
        self.server.send_headers(stream_id, [(b":status", b"200")])
        if self.round_robin:
            self.writer.enqueue(stream_id, body, urgency=DEFAULT_URGENCY, incremental=True)
        else:
            self.writer.enqueue(stream_id, body)
        self._expected[stream_id] = len(body)
        self.received[stream_id] = bytearray()
        return stream_id

    def round(self) -> int:
        """One link exchange; returns payload bytes that crossed."""
        self.writer.pump()
        wire = self.server.data_to_send()
        frames, rest = parse_frames(wire)
        assert rest == b""
        # Per-frame arrival times: serialisation delay at link rate after
        # half-RTT propagation.
        cum = 0
        payload = 0
        for frame in frames:
            cum += 9 + len(frame.payload())
            if isinstance(frame, DataFrame) and len(frame.data):
                sid = frame.stream_id
                self.frame_log.append(sid)
                self.received[sid] += bytes(frame.data)
                payload += len(frame.data)
                if len(self.received[sid]) >= self._expected[sid]:
                    self.completion_s.setdefault(
                        sid, self.t + self.rtt_s / 2 + cum / self.bandwidth_bps
                    )
        # Grants are pipelined: credit for the first bytes is already on
        # its way back while the tail is still serialising, so a window of
        # at least one BDP keeps the pipe busy. A round therefore costs
        # max(RTT, serialisation time) — window-limited paths idle for the
        # RTT, bandwidth-limited paths pay only the link rate.
        self.t += max(self.rtt_s, len(wire) / self.bandwidth_bps)
        # The client processes arrivals and returns credit (its grants are
        # charged to the same round's RTT).
        for event in self.client.receive_data(wire):
            if isinstance(event, DataReceived) and event.flow_controlled_length:
                if self.adaptive is not None:
                    self.adaptive.on_data(event.stream_id, event.flow_controlled_length)
                else:
                    self.client.increment_flow_control_window(event.flow_controlled_length)
                    stream = self.client.streams.get(event.stream_id)
                    if stream is not None and not stream.closed:
                        self.client.increment_flow_control_window(
                            event.flow_controlled_length, event.stream_id
                        )
        self.server.receive_data(self.client.data_to_send())
        return payload

    def run(self, max_rounds: int = 2000) -> None:
        for _ in range(max_rounds):
            if self.writer.idle:
                return
            self.round()
        raise AssertionError("transfer did not finish within the round budget")

    def digests(self) -> dict[int, str]:
        return {
            sid: hashlib.sha256(bytes(body)).hexdigest()
            for sid, body in sorted(self.received.items())
        }


def bulk_size(trial: int, index: int) -> int:
    return (72 + 16 * ((trial * 7 + index) % 4)) * 1024


def body_for(name: str, size: int) -> bytes:
    pattern = name.encode() * (size // len(name) + 1)
    return pattern[:size]


def ttatf_trial(trial: int, round_robin: bool):
    """2 critical streams injected while 6 bulk streams are mid-flight."""
    sim = SimLink(window=65_535, round_robin=round_robin)
    for index in range(6):
        sim.request(
            f"/bulk-{index}.png",
            body_for(f"bulk{trial}:{index}|", bulk_size(trial, index)),
            priority=b"u=5, i",
        )
    sim.round()  # bulk is now mid-flight
    inject_t = sim.t
    critical = [
        sim.request(
            f"/fold-{index}",
            body_for(f"fold{trial}:{index}|", 24 * 1024),
            priority=b"u=1",
        )
        for index in range(2)
    ]
    sim.run()
    ttatf = max(sim.completion_s[sid] for sid in critical) - inject_t
    return ttatf, sim


def run_ttatf_experiment(trials: int = 8):
    results = {}
    for label, round_robin in (("round_robin", True), ("priorities", False)):
        ttatfs, sims = [], []
        for trial in range(trials):
            ttatf, sim = ttatf_trial(trial, round_robin)
            ttatfs.append(ttatf)
            sims.append(sim)
        ttatfs.sort()
        results[label] = {
            "p50": statistics.median(ttatfs),
            "p99": ttatfs[max(0, int(len(ttatfs) * 0.99) - 1)] if len(ttatfs) > 1 else ttatfs[-1],
            "worst": ttatfs[-1],
            "sims": sims,
            "stall_s": sum(s.writer.connection_stalls for s in sims) * RTT_S / trials,
        }
    return results


class TestPrioritySchedulingTTATF:
    def test_priorities_cut_ttatf_with_identical_bytes(self):
        results = run_ttatf_experiment()
        rr, prio = results["round_robin"], results["priorities"]
        p50_speedup = rr["p50"] / prio["p50"]
        p99_speedup = rr["p99"] / prio["p99"]

        # Byte identity: scheduling reorders frames, never payloads.
        identical = True
        reordered = False
        for rr_sim, prio_sim in zip(rr["sims"], prio["sims"]):
            identical = identical and rr_sim.digests() == prio_sim.digests()
            reordered = reordered or rr_sim.frame_log != prio_sim.frame_log
        assert identical, "per-stream payloads must not depend on the scheduler"
        assert reordered, "priority scheduling never changed the frame order"

        print_table(
            "TTATF: 2 critical streams vs 6 bulk (RTT 100 ms)",
            ["scheduler", "p50 (s)", "p99 (s)", "stall s/trial"],
            [
                ["round-robin", f"{rr['p50']:.3f}", f"{rr['p99']:.3f}", f"{rr['stall_s']:.2f}"],
                ["RFC 9218", f"{prio['p50']:.3f}", f"{prio['p99']:.3f}", f"{prio['stall_s']:.2f}"],
                ["speedup", f"{p50_speedup:.2f}x", f"{p99_speedup:.2f}x", ""],
            ],
        )
        record_bench(
            "priorities",
            "round_robin",
            ttatf_p50_s=round(rr["p50"], 4),
            ttatf_p99_s=round(rr["p99"], 4),
            window_stall_s=round(rr["stall_s"], 4),
        )
        record_bench(
            "priorities",
            "priorities",
            ttatf_p50_s=round(prio["p50"], 4),
            ttatf_p99_s=round(prio["p99"], 4),
            window_stall_s=round(prio["stall_s"], 4),
            p50_speedup=round(p50_speedup, 3),
            p99_speedup=round(p99_speedup, 3),
            byte_identity=identical,
        )
        assert p99_speedup >= 1.5, f"p99 TTATF speedup only {p99_speedup:.2f}x (gate: 1.5x)"
        assert p50_speedup >= 1.5, f"p50 TTATF speedup only {p50_speedup:.2f}x (gate: 1.5x)"


TRANSFER_BYTES = 24_000_000
ORACLE_WINDOW = int(2 * BANDWIDTH_BPS * RTT_S)  # gain x BDP, the tuner's own target


def window_trial(window: int, adaptive: bool):
    sim = SimLink(window=window, adaptive=adaptive)
    sim.request("/bulk.bin", body_for("bdp|", TRANSFER_BYTES), priority=b"u=5, i")
    # Steady state excludes the first half (slow start / probe phase).
    half_t = None
    half_bytes = 0
    delivered = 0
    while not sim.writer.idle:
        delivered += sim.round()
        if half_t is None and delivered >= TRANSFER_BYTES // 2:
            half_t = sim.t
            half_bytes = delivered
    total_s = sim.t
    steady_bps = (TRANSFER_BYTES - half_bytes) / (total_s - half_t)
    return {
        "total_s": total_s,
        "throughput_bps": TRANSFER_BYTES / total_s,
        "steady_bps": steady_bps,
        "stall_s": sim.writer.connection_stalls * RTT_S,
        "resizes": sim.adaptive.resizes if sim.adaptive else 0,
        "final_window": sim.client.local_settings.initial_window_size,
    }


class TestBdpAdaptiveWindows:
    def test_adaptive_window_recovers_fixed_window_throughput(self):
        small = window_trial(65_535, adaptive=False)
        oracle = window_trial(ORACLE_WINDOW, adaptive=False)
        tuned = window_trial(65_535, adaptive=True)

        steady_recovery = tuned["steady_bps"] / oracle["steady_bps"]
        vs_small = small["total_s"] / tuned["total_s"]

        print_table(
            f"BDP tuning: {TRANSFER_BYTES // 1_000_000} MB over a 100 ms path",
            ["window", "total (s)", "MB/s", "steady MB/s", "stall (s)"],
            [
                [
                    "fixed 64 KiB",
                    f"{small['total_s']:.2f}",
                    f"{small['throughput_bps'] / 1e6:.2f}",
                    f"{small['steady_bps'] / 1e6:.2f}",
                    f"{small['stall_s']:.1f}",
                ],
                [
                    f"fixed {ORACLE_WINDOW // 1_000_000} MB (oracle)",
                    f"{oracle['total_s']:.2f}",
                    f"{oracle['throughput_bps'] / 1e6:.2f}",
                    f"{oracle['steady_bps'] / 1e6:.2f}",
                    f"{oracle['stall_s']:.1f}",
                ],
                [
                    "adaptive (BDP)",
                    f"{tuned['total_s']:.2f}",
                    f"{tuned['throughput_bps'] / 1e6:.2f}",
                    f"{tuned['steady_bps'] / 1e6:.2f}",
                    f"{tuned['stall_s']:.1f}",
                ],
            ],
        )
        for name, trial in (
            ("window_fixed_small", small),
            ("window_fixed_bdp", oracle),
            ("window_adaptive", tuned),
        ):
            record_bench(
                "priorities",
                name,
                total_sim_s=round(trial["total_s"], 6),
                throughput_mbps=round(trial["throughput_bps"] / 1e6, 3),
                steady_mbps=round(trial["steady_bps"] / 1e6, 3),
                window_stall_s=round(trial["stall_s"], 3),
                resizes=trial["resizes"],
                final_window=trial["final_window"],
            )
        record_bench(
            "priorities",
            "bdp_summary",
            steady_recovery=round(steady_recovery, 4),
            speedup_vs_small=round(vs_small, 3),
        )
        assert tuned["resizes"] >= 3, "the tuner never grew the window"
        assert steady_recovery >= 0.90, (
            f"adaptive steady-state at {steady_recovery:.1%} of the oracle window (gate: 90%)"
        )
        assert vs_small >= 5.0, f"adaptive only {vs_small:.1f}x over the 64 KiB default (gate: 5x)"
