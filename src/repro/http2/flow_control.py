"""Connection and stream flow-control windows (RFC 9113 §5.2, §6.9)."""

from __future__ import annotations

from repro.http2.errors import FlowControlError
from repro.http2.settings import MAX_WINDOW

DEFAULT_WINDOW = 65_535


class FlowControlWindow:
    """One direction of a flow-control window.

    A sender consumes credit when emitting DATA; a receiver consumes its own
    receive window when accepting DATA and replenishes the peer by sending
    WINDOW_UPDATE. Both connection-level and stream-level windows use this
    class. The window may go negative only through a SETTINGS-initiated
    resize (RFC 9113 §6.9.2), never through consumption.
    """

    def __init__(self, initial: int = DEFAULT_WINDOW) -> None:
        if initial > MAX_WINDOW:
            raise FlowControlError(f"initial window {initial} exceeds 2^31-1")
        self._available = initial

    @property
    def available(self) -> int:
        return self._available

    def consume(self, amount: int) -> None:
        """Spend credit; raises if the frame overruns the window."""
        if amount < 0:
            raise ValueError("cannot consume a negative amount")
        if amount > self._available:
            raise FlowControlError(f"flow-control violation: need {amount}, window has {self._available}")
        self._available -= amount

    def replenish(self, amount: int) -> None:
        """Apply a WINDOW_UPDATE increment."""
        if not 1 <= amount <= MAX_WINDOW:
            raise FlowControlError(f"window increment {amount} outside [1, 2^31-1]")
        if self._available + amount > MAX_WINDOW:
            raise FlowControlError("window overflow beyond 2^31-1")
        self._available += amount

    def adjust(self, delta: int) -> None:
        """Resize due to a SETTINGS_INITIAL_WINDOW_SIZE change (§6.9.2).

        The result may legitimately be negative; it must still not exceed
        the maximum.
        """
        new_value = self._available + delta
        if new_value > MAX_WINDOW:
            raise FlowControlError("SETTINGS window adjustment overflows")
        self._available = new_value
