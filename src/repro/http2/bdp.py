"""BDP-adaptive receive-window tuning (receiver-driven autotuning).

A fixed flow-control window couples throughput to round-trip time: a
sender can have at most ``window`` bytes in flight, so goodput tops out
at ``window / RTT``. The 64 KiB default that is fine on a 1 ms LAN path
caps a 100 ms cross-region fleet path (PR 9's ``LatencyModel`` shield →
origin leg) at ~640 KB/s regardless of link speed.

The cure — what Linux does for TCP receive buffers and Chromium/gRPC do
for HTTP/2 — is to estimate the path's bandwidth-delay product and grow
the advertised window to cover it:

* :class:`BdpEstimator` watches the receiver's two observables: DATA
  arrival (bytes per interval → delivery-rate estimate, max-filtered so
  a momentarily idle sender does not collapse the estimate) and RTT
  samples (smoothed EWMA, seeded from the transport's hint). While the
  transfer is window-limited the observed rate *is* ``window / RTT``, so
  a target of ``gain × rate × RTT`` with ``gain`` = 2 doubles the window
  each estimation interval — the same multiplicative probe DRS uses —
  until the sender stops filling it (line rate reached).
* :class:`AdaptiveReceiveWindow` applies the estimate to a connection:
  stream windows are resized via ``SETTINGS_INITIAL_WINDOW_SIZE`` (which
  re-bases every open stream per RFC 9113 §6.9.2) and the connection
  window — not covered by SETTINGS — gets an explicit WINDOW_UPDATE
  catch-up grant. Resizes are hysteresis-gated (target must beat the
  current window by 25%) so a steady path settles instead of oscillating.

Everything takes an injected ``clock`` so the estimator runs identically
on the simulated RTT clock in tests/benchmarks and on wall time in the
live client.
"""

from __future__ import annotations

from typing import Callable

from repro.http2.connection import H2Connection
from repro.http2.flow_control import DEFAULT_WINDOW
from repro.http2.settings import MAX_WINDOW, Setting

#: Smoothing factor for RTT samples (RFC 6298's alpha).
RTT_EWMA_WEIGHT = 0.125
#: A new rate sample must beat this fraction of the decayed old maximum
#: to matter — keeps one slow interval from halving the estimate.
RATE_DECAY = 0.9
#: Grow only when the target beats the current window by this factor.
RESIZE_HYSTERESIS = 1.25
#: Ceiling for the tuned per-stream window; half the protocol max so a
#: SETTINGS re-base (§6.9.2 delta on every stream) can never overflow.
WINDOW_CEILING = MAX_WINDOW // 2


class BdpEstimator:
    """Delivery-rate × RTT estimator fed by receive-side observations."""

    def __init__(
        self,
        clock: Callable[[], float],
        rtt_s: float = 0.05,
        min_window: int = DEFAULT_WINDOW,
        max_window: int = WINDOW_CEILING,
        gain: float = 2.0,
    ) -> None:
        self.clock = clock
        self.srtt_s = max(1e-6, rtt_s)
        self.min_window = min_window
        self.max_window = min(max_window, WINDOW_CEILING)
        self.gain = gain
        self._rate_bps = 0.0  # bytes per second, max-filtered
        self._interval_bytes = 0
        self._interval_start: float | None = None
        self.samples = 0

    def on_rtt_sample(self, rtt_s: float) -> None:
        """Fold in an RTT observation (e.g. PING or WINDOW_UPDATE echo)."""
        if rtt_s <= 0:
            return
        self.srtt_s = (1 - RTT_EWMA_WEIGHT) * self.srtt_s + RTT_EWMA_WEIGHT * rtt_s

    def on_data(self, nbytes: int) -> None:
        """Record DATA arrival; closes a rate interval once per SRTT."""
        now = self.clock()
        if self._interval_start is None:
            self._interval_start = now
            self._interval_bytes = nbytes
            return
        self._interval_bytes += nbytes
        elapsed = now - self._interval_start
        if elapsed < self.srtt_s:
            return
        rate = self._interval_bytes / elapsed
        # Max filter with decay: the estimate tracks the best recently
        # observed delivery rate, not the latest (possibly app-limited) one.
        self._rate_bps = max(rate, RATE_DECAY * self._rate_bps)
        self._interval_start = now
        self._interval_bytes = 0
        self.samples += 1

    @property
    def rate_bps(self) -> float:
        return self._rate_bps

    def bdp_bytes(self) -> int:
        return int(self._rate_bps * self.srtt_s)

    def target_window(self) -> int:
        """The window that would keep the observed path busy: gain × BDP,
        clamped to the configured range."""
        target = int(self.gain * self._rate_bps * self.srtt_s)
        return max(self.min_window, min(self.max_window, target))


class AdaptiveReceiveWindow:
    """Applies a :class:`BdpEstimator` to one connection's receive side.

    :class:`~repro.http2.endpoint.ClientConnection` calls :meth:`on_data`
    for every DataReceived event in place of the plain
    ``acknowledge_received_data``; the tuner returns the same credit and,
    when the estimator says the path deserves more, raises the advertised
    windows.
    """

    def __init__(self, conn: H2Connection, estimator: BdpEstimator) -> None:
        self.conn = conn
        self.estimator = estimator
        self.resizes = 0

    @property
    def current_window(self) -> int:
        return self.conn.local_settings.initial_window_size

    def on_data(self, stream_id: int, flow_controlled_length: int) -> int:
        """Account received DATA; returns the window size after tuning."""
        if flow_controlled_length > 0:
            self.estimator.on_data(flow_controlled_length)
            self.conn.acknowledge_received_data(flow_controlled_length, stream_id)
        return self._maybe_resize()

    def _maybe_resize(self) -> int:
        current = self.current_window
        target = self.estimator.target_window()
        if target < current * RESIZE_HYSTERESIS:
            return current
        # Stream windows: SETTINGS re-bases every open stream by the delta
        # (the engine mirrors the adjustment locally — §6.9.2). Connection
        # window: explicit catch-up grant, since SETTINGS does not touch it.
        self.conn.update_settings({Setting.INITIAL_WINDOW_SIZE: target})
        deficit = self.conn.inbound_window.deficit(target)
        if deficit > 0:
            self.conn.increment_flow_control_window(deficit)
        self.resizes += 1
        if self.conn.registry.enabled:
            self.conn.registry.counter(
                "http2_window_resizes_total",
                "BDP-driven receive-window grows (SETTINGS + catch-up grant)",
                layer="http2",
                operation="grow",
            ).inc()
            self.conn.registry.gauge(
                "http2_adaptive_window_bytes",
                "Current BDP-tuned per-stream receive window",
                layer="http2",
                operation="stream",
            ).set(float(target))
        return target
