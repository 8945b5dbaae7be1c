"""Incident flight recorder: armed triggers snapshot a debugging bundle.

The live plane (metrics, timeseries, SLO burn) tells you *that* the
system degraded; by the time a human attaches, the interesting state is
gone. The flight recorder closes that gap: it rides along armed, and the
moment a trigger fires it snapshots everything a post-mortem needs into
one **incident bundle** — the recent wide events, the tail-retained
traces, a timeseries delta covering the incident window, the concurrent
scheduler's live debug state, the SLO report and optionally a short
profile — then disarms that trigger so one sustained failure produces
one bundle, not a bundle per tick.

Triggers come in two kinds:

* **polled** — evaluated on every sampler tick (:meth:`check`, wired via
  :meth:`attach`): ``slo-fast-burn`` (any objective's fast-window burn at
  or over the alert threshold) and ``loop-stall`` (the event-loop
  heartbeat gauge over ``stall_threshold_s``);
* **pushed** — reported by the layer that saw the failure via
  :meth:`note`: ``protocol-error`` (connection terminated with a non-zero
  GOAWAY error code, or an H2 protocol violation) and
  ``generation-failure`` (an exception out of request materialisation).

Bundles are **deterministic** modulo wall-clock: :func:`bundle_signature`
projects a bundle onto its order- and identity-relevant content (trigger,
event fields minus durations, trace names, SLO objective names) and
hashes it — the telemetry benchmark asserts the same injected incident
yields the same signature across runs at a fixed seed.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path

#: Trigger kinds a recorder can arm.
TRIGGER_SLO_FAST_BURN = "slo-fast-burn"
TRIGGER_LOOP_STALL = "loop-stall"
TRIGGER_PROTOCOL_ERROR = "protocol-error"
TRIGGER_GENERATION_FAILURE = "generation-failure"

DEFAULT_TRIGGERS = (
    TRIGGER_SLO_FAST_BURN,
    TRIGGER_LOOP_STALL,
    TRIGGER_PROTOCOL_ERROR,
    TRIGGER_GENERATION_FAILURE,
)

#: Fields stripped from events/traces when computing a bundle signature —
#: everything wall-clock- or run-dependent.
_VOLATILE_FIELDS = frozenset(
    {"duration_s", "writer_queue_s", "trace_id", "seq", "stream_id"}
)

BUNDLE_FORMAT = "sww-incident/1"

#: How many of the most recent wide events a bundle carries.
RECENT_EVENTS = 256

#: How many sampler ticks of timeseries delta a bundle carries.
TIMESERIES_WINDOW_TICKS = 64


class FlightRecorder:
    """Armed incident capture over the observability plane."""

    def __init__(
        self,
        registry=None,
        events=None,
        tracer=None,
        slo=None,
        server=None,
        capacity: int = 8,
        stall_threshold_s: float = 0.05,
    ) -> None:
        if capacity <= 0:
            raise ValueError("incident capacity must be positive")
        self.registry = registry
        self.events = events
        self.tracer = tracer
        #: The timeseries sampler whose ticks poll the triggers; set by :meth:`attach`.
        self.sampler = None
        self.slo = slo
        self.server = server
        self.capacity = capacity
        self.stall_threshold_s = stall_threshold_s
        self._lock = threading.Lock()
        self._armed: set[str] = set(DEFAULT_TRIGGERS)
        self._incidents: list[dict] = []
        self._seq = 0

    # ------------------------------------------------------------------ #
    # Arming
    # ------------------------------------------------------------------ #

    def armed(self) -> set[str]:
        with self._lock:
            return set(self._armed)

    def _take(self, kind: str) -> bool:
        """Atomically consume an armed trigger; False when not armed."""
        with self._lock:
            if kind not in self._armed:
                return False
            self._armed.discard(kind)
            return True

    # ------------------------------------------------------------------ #
    # Triggers
    # ------------------------------------------------------------------ #

    def attach(self, sampler) -> "FlightRecorder":
        """Poll the tick-driven triggers on every sampler tick."""
        self.sampler = sampler
        sampler.listeners.append(lambda _s: self.check())
        return self

    def note(self, kind: str, detail: str = "") -> dict | None:
        """Pushed trigger from a layer that saw a failure first-hand."""
        if kind not in DEFAULT_TRIGGERS:
            raise ValueError(f"unknown trigger {kind!r}")
        if not self._take(kind):
            return None
        return self._capture(kind, detail)

    def check(self) -> list[dict]:
        """Evaluate the polled triggers; returns any captured incidents."""
        captured: list[dict] = []
        burn = self._fast_burn_detail()
        if burn is not None and self._take(TRIGGER_SLO_FAST_BURN):
            captured.append(self._capture(TRIGGER_SLO_FAST_BURN, burn))
        stall = self._stall_detail()
        if stall is not None and self._take(TRIGGER_LOOP_STALL):
            captured.append(self._capture(TRIGGER_LOOP_STALL, stall))
        return captured

    def _fast_burn_detail(self) -> str | None:
        if self.slo is None:
            return None
        fast_alert = next(
            (w.alert_burn for w in self.slo.windows if w.label == "fast"), None
        )
        if fast_alert is None:
            return None
        burning = []
        for name, entry in sorted(self.slo.report().items()):
            burn = entry.get("windows", {}).get("fast")
            if burn is not None and burn >= fast_alert:
                burning.append(f"{name} fast-burn {burn:.1f}x")
        return "; ".join(burning) if burning else None

    def _stall_detail(self) -> str | None:
        if self.registry is None:
            return None
        worst = self.registry.value(
            "sww_server_loop_stall_max_seconds", layer="sww", operation="loop"
        )
        if worst > self.stall_threshold_s:
            return f"event-loop stall {worst * 1000:.0f}ms (threshold {self.stall_threshold_s * 1000:.0f}ms)"
        return None

    # ------------------------------------------------------------------ #
    # Capture
    # ------------------------------------------------------------------ #

    def _capture(self, kind: str, detail: str) -> dict:
        with self._lock:
            self._seq += 1
            incident_id = f"incident-{self._seq}"
        bundle = {
            "format": BUNDLE_FORMAT,
            "incident": incident_id,
            "trigger": {"kind": kind, "detail": detail},
            "events": [
                event.to_dict()
                for event in (
                    self.events.events(last=RECENT_EVENTS)
                    if self.events is not None
                    else []
                )
            ],
            "traces": [
                span.to_dict()
                for span in (self.tracer.roots() if self.tracer is not None else [])
            ],
            "timeseries": self._timeseries_delta(),
            "scheduler": self._scheduler_state(),
            "slo": self.slo.report() if self.slo is not None else {},
        }
        with self._lock:
            self._incidents.append(bundle)
            while len(self._incidents) > self.capacity:
                self._incidents.pop(0)
        if self.registry is not None and self.registry.enabled:
            self.registry.counter(
                "obs_incidents_total",
                "Incident bundles captured, by trigger kind",
                layer="obs",
                operation=kind,
            ).inc()
        return bundle

    def _timeseries_delta(self) -> dict | None:
        if self.sampler is None:
            return None
        since = max(0, self.sampler.last_tick - TIMESERIES_WINDOW_TICKS)
        return self.sampler.snapshot(since=since if since > 0 else None)

    def _scheduler_state(self) -> dict | None:
        if self.server is None:
            return None
        return {
            "connections": [session.debug_state() for session in self.server.sessions()]
        }

    # ------------------------------------------------------------------ #
    # Access / export
    # ------------------------------------------------------------------ #

    def incidents(self) -> list[dict]:
        """Captured bundles, oldest first."""
        with self._lock:
            return list(self._incidents)

    def summaries(self) -> list[dict]:
        """One row per incident for listings."""
        return [
            {
                "incident": bundle["incident"],
                "trigger": bundle["trigger"],
                "events": len(bundle["events"]),
                "traces": len(bundle["traces"]),
            }
            for bundle in self.incidents()
        ]

    def get(self, incident_id: str) -> dict | None:
        for bundle in self.incidents():
            if bundle["incident"] == incident_id:
                return bundle
        return None

    def dump(self, directory: str | Path) -> list[Path]:
        """Write each bundle to ``<dir>/<incident-id>.json``."""
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        written = []
        for bundle in self.incidents():
            path = target / f"{bundle['incident']}.json"
            path.write_text(json.dumps(bundle, sort_keys=True, indent=2) + "\n")
            written.append(path)
        return written


def _signature_projection(bundle: dict) -> dict:
    """The deterministic slice of a bundle: drop wall-clock/id fields."""

    def clean_event(fields: dict) -> dict:
        return {
            key: value
            for key, value in sorted(fields.items())
            if key not in _VOLATILE_FIELDS
        }

    def clean_span(span: dict) -> dict:
        return {
            "name": span.get("name"),
            "attributes": {
                key: value
                for key, value in sorted(span.get("attributes", {}).items())
                if key not in _VOLATILE_FIELDS
            },
            "children": [clean_span(child) for child in span.get("children", [])],
        }

    return {
        "format": bundle.get("format"),
        "trigger_kind": bundle.get("trigger", {}).get("kind"),
        "events": [clean_event(event) for event in bundle.get("events", [])],
        "traces": [clean_span(span) for span in bundle.get("traces", [])],
        "slo_objectives": sorted(bundle.get("slo", {})),
    }


def bundle_signature(bundle: dict) -> str:
    """Stable hash of a bundle's deterministic content.

    Two captures of the same injected incident at the same seed must
    produce the same signature; wall-clock durations, minted ids and
    stream numbering are excluded.
    """
    canonical = json.dumps(
        _signature_projection(bundle), sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
