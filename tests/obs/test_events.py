"""Wide-event unit tests: schema strictness, idempotent finish, per-context
binding, the bounded ring, and both export shapes."""

import asyncio
import json
import threading

import pytest

from repro.obs import (
    EVENTS_FORMAT,
    NULL_EVENT_LOG,
    EventLog,
    MetricsRegistry,
    NullEventLog,
    add_current,
    annotate_current,
    current_event,
)


class TestWideEvent:
    def test_set_rejects_unknown_field(self):
        log = EventLog()
        record = log.begin("server.request")
        with pytest.raises(ValueError, match="unknown wide-event field"):
            record.set(bogus_field=1)

    def test_add_rejects_unknown_field(self):
        log = EventLog()
        record = log.begin("server.request")
        with pytest.raises(ValueError, match="unknown wide-event field"):
            record.add(bogus_field=1)

    def test_begin_rejects_unknown_event_type(self):
        log = EventLog()
        with pytest.raises(ValueError, match="unknown event type"):
            log.begin("server.bogus")

    def test_add_accumulates_while_set_replaces(self):
        log = EventLog()
        record = log.begin("server.request")
        record.add(gencache_hits=1).add(gencache_hits=2)
        assert record.fields["gencache_hits"] == 3
        record.set(gencache_hits=7)
        assert record.fields["gencache_hits"] == 7

    def test_finish_is_idempotent_first_call_wins(self):
        log = EventLog()
        record = log.begin("server.request")
        record.finish(status=200)
        record.finish(status=500, error="Late")
        assert len(log.events()) == 1
        assert record.fields["status"] == 200
        assert "error" not in record.fields
        assert record.finished

    def test_finish_defaults_status_and_stamps_duration(self):
        log = EventLog()
        record = log.begin("server.request")
        record.finish()
        assert record.fields["status"] == 0
        assert record.fields["duration_s"] >= 0.0

    def test_finish_records_error(self):
        log = EventLog()
        record = log.begin("server.request").finish(status=500, error="ValueError")
        assert record.fields["error"] == "ValueError"


class TestBinding:
    def test_bind_makes_event_current_and_nests(self):
        log = EventLog()
        outer = log.begin("server.request")
        inner = log.begin("batch.execute")
        assert current_event() is None
        with outer.bind():
            assert current_event() is outer
            with inner.bind():
                assert current_event() is inner
            assert current_event() is outer
        assert current_event() is None
        outer.finish()
        inner.finish()

    def test_annotate_current_targets_bound_event(self):
        log = EventLog()
        record = log.begin("server.request")
        with record.bind():
            annotate_current(model="sd-3-medium")
            add_current(gencache_hits=1)
            add_current(gencache_hits=1)
        assert record.fields["model"] == "sd-3-medium"
        assert record.fields["gencache_hits"] == 2
        record.finish()

    def test_annotate_without_binding_is_a_noop(self):
        annotate_current(model="ignored")
        add_current(gencache_hits=1)
        assert current_event() is None

    def test_binding_is_per_thread(self):
        log = EventLog()
        record = log.begin("server.request")
        seen = []
        with record.bind():
            thread = threading.Thread(target=lambda: seen.append(current_event()))
            thread.start()
            thread.join()
        assert seen == [None]
        record.finish()

    def test_tasks_binding_across_awaits_keep_their_own_annotations(self):
        """Two requests on one event loop, each bound across ``await``s:
        whichever resumes first annotates its own event, not the other's."""
        log = EventLog()
        first, second = log.begin("server.request"), log.begin("server.request")

        async def request(record, path):
            with record.bind():
                await asyncio.sleep(0)
                annotate_current(path=path)
                add_current(gencache_hits=1)
                await asyncio.sleep(0)
                return current_event() is record

        async def main():
            mine = await asyncio.gather(request(first, "/a"), request(second, "/b"))
            return mine, current_event()

        mine, after = asyncio.run(main())
        assert mine == [True, True] and after is None
        assert (first.fields["path"], first.fields["gencache_hits"]) == ("/a", 1)
        assert (second.fields["path"], second.fields["gencache_hits"]) == ("/b", 1)

class TestEventLog:
    def test_seq_is_monotonic(self):
        log = EventLog()
        records = [log.begin("server.request") for _ in range(3)]
        assert [r.fields["seq"] for r in records] == [1, 2, 3]
        for r in records:
            r.finish()

    def test_ring_bounds_and_counts_drops(self):
        registry = MetricsRegistry()
        log = EventLog(capacity=2, registry=registry)
        for _ in range(5):
            log.begin("server.request").finish(status=200)
        events = log.events()
        assert len(events) == 2
        assert [e.fields["seq"] for e in events] == [4, 5]
        assert log.dropped == 3
        dropped = registry.value(
            "obs_events_dropped_total", layer="obs", operation="evicted"
        )
        assert dropped == 3
        total = registry.value(
            "obs_events_total", layer="obs", operation="server.request"
        )
        assert total == 5

    def test_open_count_tracks_unfinished_events(self):
        log = EventLog()
        a = log.begin("server.request")
        b = log.begin("client.fetch")
        assert log.open_count == 2
        a.finish()
        assert log.open_count == 1
        b.finish()
        assert log.open_count == 0

    def test_events_last_trims_to_newest(self):
        log = EventLog()
        for _ in range(5):
            log.begin("server.request").finish()
        assert [e.fields["seq"] for e in log.events(last=2)] == [4, 5]
        assert len(log.events(last=0)) == 0
        assert len(log.events(last=99)) == 5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_reset_clears_the_ring(self):
        log = EventLog()
        log.begin("server.request").finish()
        log.reset()
        assert log.events() == []


class TestExport:
    def test_jsonl_one_sorted_object_per_line(self):
        log = EventLog()
        log.begin("server.request", path="/a").finish(status=200)
        log.begin("client.fetch", path="/b").finish(status=200)
        text = log.to_jsonl()
        assert text.endswith("\n")
        lines = text.strip().split("\n")
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["event"] == "server.request"
        assert first["path"] == "/a"
        assert list(first) == sorted(first)

    def test_jsonl_empty_log_is_empty_string(self):
        assert EventLog().to_jsonl() == ""

    def test_columnar_pads_missing_fields_with_none(self):
        log = EventLog()
        log.begin("server.request", path="/a", model="m").finish(status=200)
        log.begin("cdn.serve", cache_key="k").finish(status=200)
        doc = log.to_columnar()
        assert doc["format"] == EVENTS_FORMAT
        assert doc["count"] == 2
        assert doc["columns"]["model"] == ["m", None]
        assert doc["columns"]["cache_key"] == [None, "k"]
        assert doc["columns"]["event"] == ["server.request", "cdn.serve"]
        lengths = {len(col) for col in doc["columns"].values()}
        assert lengths == {2}


class TestNullEventLog:
    def test_begin_returns_shared_noop(self):
        log = NullEventLog()
        record = log.begin("server.request", path="/x")
        record.set(model="m").add(gencache_hits=1)
        with record.bind():
            # The null binding never becomes the thread's current event,
            # so inner-layer annotations stay no-ops too.
            assert current_event() is None
            annotate_current(model="still-ignored")
        record.finish(status=500, error="X")
        assert record.to_dict() == {}
        assert log.events() == []
        assert not log.enabled

    def test_module_singleton_is_a_null_log(self):
        assert isinstance(NULL_EVENT_LOG, NullEventLog)
