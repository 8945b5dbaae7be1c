"""Flight-recorder tests: one-shot arming, polled and pushed triggers,
bundle contents and bounds, and signature determinism."""

import json

import pytest

from repro.obs import (
    BUNDLE_FORMAT,
    DEFAULT_TRIGGERS,
    DEFAULT_WINDOWS,
    EventLog,
    FlightRecorder,
    IdSource,
    MetricsRegistry,
    TailSampler,
    Tracer,
    bundle_signature,
)
from repro.obs.recorder import (
    TRIGGER_GENERATION_FAILURE,
    TRIGGER_LOOP_STALL,
    TRIGGER_PROTOCOL_ERROR,
    TRIGGER_SLO_FAST_BURN,
)

FAST_ALERT = next(w.alert_burn for w in DEFAULT_WINDOWS if w.label == "fast")


class _StubSLO:
    """Just enough SLO surface for the fast-burn trigger."""

    windows = DEFAULT_WINDOWS

    def __init__(self, fast_burn: float) -> None:
        self.fast_burn = fast_burn

    def report(self) -> dict:
        return {
            "availability": {
                "windows": {"fast": self.fast_burn, "slow": 1.0},
                "healthy": self.fast_burn < FAST_ALERT,
                "budget_remaining": 0.5,
            }
        }


class TestArming:
    def test_starts_with_all_default_triggers_armed(self):
        recorder = FlightRecorder()
        assert recorder.armed() == set(DEFAULT_TRIGGERS)

    def test_note_captures_once_then_disarms(self):
        recorder = FlightRecorder()
        first = recorder.note(TRIGGER_GENERATION_FAILURE, "boom")
        assert first is not None
        assert TRIGGER_GENERATION_FAILURE not in recorder.armed()
        assert recorder.note(TRIGGER_GENERATION_FAILURE, "again") is None
        assert len(recorder.incidents()) == 1

    def test_every_trigger_fires_once(self):
        recorder = FlightRecorder()
        for kind in DEFAULT_TRIGGERS:
            assert recorder.note(kind, "x") is not None
        assert recorder.armed() == set()
        assert all(recorder.note(kind, "again") is None for kind in DEFAULT_TRIGGERS)
        assert len(recorder.incidents()) == len(DEFAULT_TRIGGERS)

    def test_unknown_trigger_rejected(self):
        recorder = FlightRecorder()
        with pytest.raises(ValueError, match="unknown trigger"):
            recorder.note("disk-full")

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestPolledTriggers:
    def test_fast_burn_fires_once(self):
        recorder = FlightRecorder(slo=_StubSLO(fast_burn=FAST_ALERT + 1.0))
        captured = recorder.check()
        assert [b["trigger"]["kind"] for b in captured] == [TRIGGER_SLO_FAST_BURN]
        assert "availability fast-burn" in captured[0]["trigger"]["detail"]
        # Disarmed: a sustained burn does not produce a second bundle.
        assert recorder.check() == []

    def test_healthy_slo_captures_nothing(self):
        recorder = FlightRecorder(slo=_StubSLO(fast_burn=0.5))
        assert recorder.check() == []
        assert TRIGGER_SLO_FAST_BURN in recorder.armed()

    def test_loop_stall_fires_over_threshold(self):
        registry = MetricsRegistry()
        registry.gauge(
            "sww_server_loop_stall_max_seconds",
            "worst observed event-loop stall",
            layer="sww",
            operation="loop",
        ).set(0.2)
        recorder = FlightRecorder(registry=registry, stall_threshold_s=0.05)
        captured = recorder.check()
        assert [b["trigger"]["kind"] for b in captured] == [TRIGGER_LOOP_STALL]
        assert "event-loop stall 200ms" in captured[0]["trigger"]["detail"]

    def test_loop_stall_under_threshold_stays_armed(self):
        registry = MetricsRegistry()
        registry.gauge(
            "sww_server_loop_stall_max_seconds",
            "worst observed event-loop stall",
            layer="sww",
            operation="loop",
        ).set(0.01)
        recorder = FlightRecorder(registry=registry, stall_threshold_s=0.05)
        assert recorder.check() == []
        assert TRIGGER_LOOP_STALL in recorder.armed()


class TestBundles:
    def _recorder(self):
        registry = MetricsRegistry()
        events = EventLog(registry=registry)
        tracer = Tracer(
            ids=IdSource(3),
            tail=TailSampler(baseline_rate=1.0, ids=IdSource(3)),
        )
        events.begin("server.request", path="/page", serve_mode="sww").finish(
            status=200
        )
        with tracer.span("server.handle", path="/page"):
            pass
        return FlightRecorder(
            registry=registry,
            events=events,
            tracer=tracer,
            slo=_StubSLO(fast_burn=0.1),
        ), registry

    def test_bundle_carries_events_traces_and_slo(self):
        recorder, registry = self._recorder()
        bundle = recorder.note(TRIGGER_GENERATION_FAILURE, "ValueError in materialise")
        assert bundle["format"] == BUNDLE_FORMAT
        assert bundle["incident"] == "incident-1"
        assert bundle["trigger"] == {
            "kind": TRIGGER_GENERATION_FAILURE,
            "detail": "ValueError in materialise",
        }
        assert [e["path"] for e in bundle["events"]] == ["/page"]
        assert [t["name"] for t in bundle["traces"]] == ["server.handle"]
        assert "availability" in bundle["slo"]
        assert bundle["timeseries"] is None
        assert bundle["scheduler"] is None
        assert (
            registry.value(
                "obs_incidents_total",
                layer="obs",
                operation=TRIGGER_GENERATION_FAILURE,
            )
            == 1
        )

    def test_capacity_bounds_retained_incidents(self):
        recorder = FlightRecorder(capacity=2)
        for kind in DEFAULT_TRIGGERS:
            recorder.note(kind, "x")
        ids = [b["incident"] for b in recorder.incidents()]
        assert ids == ["incident-3", "incident-4"]

    def test_summaries_get_and_dump(self, tmp_path):
        recorder, _registry = self._recorder()
        recorder.note(TRIGGER_PROTOCOL_ERROR, "GOAWAY 0x1")
        rows = recorder.summaries()
        assert rows == [
            {
                "incident": "incident-1",
                "trigger": {"kind": TRIGGER_PROTOCOL_ERROR, "detail": "GOAWAY 0x1"},
                "events": 1,
                "traces": 1,
            }
        ]
        assert recorder.get("incident-1")["format"] == BUNDLE_FORMAT
        assert recorder.get("incident-99") is None
        written = recorder.dump(tmp_path / "incidents")
        assert [p.name for p in written] == ["incident-1.json"]
        loaded = json.loads(written[0].read_text())
        assert loaded["trigger"]["kind"] == TRIGGER_PROTOCOL_ERROR


class TestSignature:
    def _bundle(self, trigger=TRIGGER_GENERATION_FAILURE, status=500):
        events = EventLog()
        events.begin("server.request", path="/page", model="sd-3-medium").finish(
            status=status, error="ValueError"
        )
        tracer = Tracer(
            ids=IdSource(11),
            tail=TailSampler(baseline_rate=1.0, ids=IdSource(11)),
        )
        with tracer.span("server.handle", path="/page"):
            pass
        recorder = FlightRecorder(
            events=events, tracer=tracer, slo=_StubSLO(fast_burn=0.1)
        )
        return recorder.note(trigger, "injected")

    def test_same_injected_state_yields_same_signature(self):
        assert bundle_signature(self._bundle()) == bundle_signature(self._bundle())

    def test_volatile_fields_do_not_change_the_signature(self):
        first, second = self._bundle(), self._bundle()
        # Perturb every volatile field; the signature must not move.
        second["events"][0]["duration_s"] = 123.0
        second["events"][0]["seq"] = 999
        second["events"][0]["trace_id"] = "feedfacefeedface"
        second["traces"][0]["duration_s"] = 42.0
        assert bundle_signature(first) == bundle_signature(second)

    def test_different_trigger_or_content_changes_the_signature(self):
        base = bundle_signature(self._bundle())
        assert bundle_signature(self._bundle(trigger=TRIGGER_LOOP_STALL)) != base
        assert bundle_signature(self._bundle(status=503)) != base
