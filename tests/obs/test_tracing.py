"""Unit tests for the span tracer."""

import asyncio
import sys
import threading

import pytest

from repro.obs import (
    NULL_TRACER,
    EventLog,
    IdSource,
    MetricsRegistry,
    NullTracer,
    TraceContext,
    Tracer,
    parse_traceparent,
    stitch_spans,
)


class TestSpanNesting:
    def test_parent_child_linking(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert tracer.roots() == [outer]
        assert outer.children == [inner]
        assert inner.children == []

    def test_walk_preorder_with_depths(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        (root,) = tracer.roots()
        assert [(d, s.name) for d, s in root.walk()] == [(0, "a"), (1, "b"), (2, "c"), (1, "d")]

    def test_sequential_roots_both_recorded(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.roots()] == ["first", "second"]

    def test_duration_positive_and_contains_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(1000))
        (root,) = tracer.roots()
        assert root.duration_s > 0
        assert root.duration_s >= root.children[0].duration_s


class TestSpanAttributes:
    def test_constructor_and_annotate(self):
        tracer = Tracer()
        with tracer.span("op", page="/x") as sp:
            sp.annotate(items=3)
        assert sp.attributes == {"page": "/x", "items": 3}

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("no")
        (root,) = tracer.roots()
        assert root.attributes["error"] == "RuntimeError"

    def test_to_dict_round_trips_structure(self):
        tracer = Tracer()
        with tracer.span("outer", k="v"):
            with tracer.span("inner"):
                pass
        data = tracer.roots()[0].to_dict()
        assert data["name"] == "outer"
        assert data["attributes"] == {"k": "v"}
        assert data["children"][0]["name"] == "inner"


class TestRingBuffer:
    def test_old_roots_fall_off(self):
        tracer = Tracer(capacity=2)
        for i in range(4):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.roots()] == ["s2", "s3"]

    def test_reset_clears(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.roots() == []

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestThreadIsolation:
    def test_stacks_are_per_thread(self):
        tracer = Tracer()
        seen = []

        def work(name):
            with tracer.span(name):
                seen.append(tracer.current.name)

        with tracer.span("main-root"):
            t = threading.Thread(target=work, args=("thread-root",))
            t.start()
            t.join()
        # The thread's span must be its own root, not a child of main-root.
        names = {s.name for s in tracer.roots()}
        assert names == {"main-root", "thread-root"}
        assert seen == ["thread-root"]
        main = next(s for s in tracer.roots() if s.name == "main-root")
        assert main.children == []



class TestContextIsolation:
    def test_tasks_on_one_loop_keep_their_own_trees(self):
        """Two requests awaiting inside their spans on one event loop: each
        child nests under its own task's root, never the other's."""
        tracer = Tracer()

        async def request(name):
            with tracer.span(name):
                await asyncio.sleep(0)
                with tracer.span(f"{name}.child"):
                    await asyncio.sleep(0)
            return tracer.current

        async def main():
            left = await asyncio.gather(request("a"), request("b"))
            return left, tracer.current

        left, after = asyncio.run(main())
        assert left == [None, None] and after is None
        trees = {root.name: [child.name for child in root.children] for root in tracer.roots()}
        assert trees == {"a": ["a.child"], "b": ["b.child"]}

    def test_threads_sharing_a_tracer_keep_their_own_trees(self):
        """More threads than cores, switching as often as the interpreter
        allows, each nesting spans on one tracer."""
        tracer = Tracer()

        def work(n):
            for _ in range(50):
                with tracer.span(f"t{n}"):
                    with tracer.span(f"t{n}.child"):
                        pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        roots = tracer.roots()
        assert len(roots) == 400
        assert all([child.name for child in root.children] == [f"{root.name}.child"] for root in roots)

    def test_a_span_never_parents_another_tracers_span(self):
        """Tracers standing for separate processes share one thread."""
        client, server = Tracer(), Tracer()
        with client.span("client.fetch"):
            with server.span("server.request"):
                assert client.current.name == "client.fetch"
                assert server.current.name == "server.request"
        assert [root.name for root in server.roots()] == ["server.request"]
        assert client.roots()[0].children == []

    def test_reset_while_a_span_is_open(self):
        tracer = Tracer()
        with tracer.span("open"):
            tracer.reset()
            assert tracer.current is None
            with tracer.span("after-reset"):
                pass
        assert tracer.current is None
        assert [root.name for root in tracer.roots()] == ["after-reset", "open"]


class TestEventTraceId:
    def test_first_span_under_a_bound_event_gives_it_its_trace_id(self):
        tracer, other = Tracer(), Tracer()
        record = EventLog().begin("server.request")
        with record.bind():
            with tracer.span("server.request") as first:
                with other.span("unrelated-root") as second:
                    pass
        assert second.trace_id != first.trace_id
        assert record.fields["trace_id"] == first.trace_id

    def test_an_event_keeps_the_trace_id_it_has(self):
        tracer = Tracer()
        record = EventLog().begin("server.request", trace_id="ab" * 16)
        with record.bind(), tracer.span("server.request"):
            pass
        assert record.fields["trace_id"] == "ab" * 16

    def test_unbound_and_null_spans_write_no_event(self):
        record = EventLog().begin("server.request")
        with Tracer().span("before-bind"):
            pass
        with record.bind(), NULL_TRACER.span("null"):
            pass
        assert "trace_id" not in record.fields

class TestNullTracer:
    def test_disabled_and_recordless(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", k=1) as sp:
            sp.annotate(more=2)
        assert NULL_TRACER.roots() == []

    def test_shared_span_singleton(self):
        t = NullTracer()
        assert t.span("a") is t.span("b")

    def test_singleton_has_no_shared_mutable_state(self):
        # Regression: attributes/children used to be class-level dict/list,
        # so one caller's mutation leaked into every later null span.
        sp = NULL_TRACER.span("a")
        sp.attributes["poison"] = True
        sp.children.append("poison")
        again = NULL_TRACER.span("b")
        assert again.attributes == {}
        assert again.children == []
        assert again.context is None


class TestTraceIdentity:
    def test_ids_assigned_and_shared_within_trace(self):
        tracer = Tracer(ids=IdSource(seed=0))
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert len(outer.trace_id) == 32 and len(outer.span_id) == 16
        assert inner.trace_id == outer.trace_id
        assert inner.span_id != outer.span_id

    def test_new_root_new_trace_id(self):
        tracer = Tracer(ids=IdSource(seed=0))
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_context_round_trips_through_traceparent(self):
        tracer = Tracer(ids=IdSource(seed=4))
        with tracer.span("op") as sp:
            ctx = tracer.current_context()
        assert ctx == sp.context
        assert parse_traceparent(f"00-{ctx.trace_id}-{ctx.span_id}-01") == ctx

    def test_current_context_none_when_idle(self):
        tracer = Tracer()
        assert tracer.current_context() is None
        assert tracer.current_trace_id() is None


class TestRemoteChildren:
    def test_remote_child_joins_senders_trace(self):
        client, server = Tracer(ids=IdSource(seed=1)), Tracer(ids=IdSource(seed=2))
        with client.span("client.fetch") as fetch:
            ctx = fetch.context
        with server.span("server.request", remote=ctx) as handled:
            pass
        assert handled.trace_id == fetch.trace_id
        assert handled.remote_parent == ctx
        assert server.roots() == [handled]  # a root fragment on its side

    def test_remote_detaches_from_unrelated_local_parent(self):
        server = Tracer(ids=IdSource(seed=2))
        ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        with server.span("server.housekeeping") as outer:
            with server.span("server.request", remote=ctx) as handled:
                pass
        assert handled.trace_id == ctx.trace_id != outer.trace_id
        assert outer.children == []
        assert {s.name for s in server.roots()} == {"server.housekeeping", "server.request"}

    def test_loopback_remote_nests_locally(self):
        # In-memory transport: the "remote" context is the local ancestor.
        tracer = Tracer(ids=IdSource(seed=3))
        with tracer.span("client.fetch") as fetch:
            with tracer.span("server.request", remote=fetch.context) as handled:
                pass
        assert fetch.children == [handled]
        assert handled.remote_parent is None

    def test_stitch_attaches_fragment_under_named_parent(self):
        client, server = Tracer(ids=IdSource(seed=1)), Tracer(ids=IdSource(seed=2))
        with client.span("client.fetch") as fetch:
            with server.span("server.request", remote=fetch.context):
                with server.span("server.materialise"):
                    pass
        (stitched,) = stitch_spans([*client.roots(), *server.roots()])
        assert stitched is fetch
        assert [(d, s.name) for d, s in stitched.walk()] == [
            (0, "client.fetch"),
            (1, "server.request"),
            (2, "server.materialise"),
        ]
        # Idempotent: stitching again must not duplicate the child.
        stitch_spans([*client.roots(), *server.roots()])
        assert len(fetch.children) == 1

    def test_stitch_keeps_orphan_fragment_as_root(self):
        server = Tracer(ids=IdSource(seed=2))
        ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        with server.span("server.request", remote=ctx) as handled:
            pass
        assert stitch_spans(server.roots()) == [handled]


class TestSampling:
    def test_unsampled_root_not_recorded(self):
        tracer = Tracer(ids=IdSource(seed=0), sample_rate=0.0)
        with tracer.span("root") as root:
            with tracer.span("child"):
                pass
        assert root.sampled is False
        assert root.children == []
        assert tracer.roots() == []

    def test_children_inherit_sampling_decision(self):
        tracer = Tracer(ids=IdSource(seed=0), sample_rate=0.0)
        with tracer.span("root"):
            with tracer.span("child") as child:
                pass
        assert child.sampled is False

    def test_remote_unsampled_honoured(self):
        server = Tracer(ids=IdSource(seed=2))
        ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8, sampled=False)
        with server.span("server.request", remote=ctx):
            assert server.current_trace_id() is None
        assert server.roots() == []

    def test_unsampled_trace_id_hidden_from_exemplars(self):
        tracer = Tracer(ids=IdSource(seed=0), sample_rate=0.0)
        with tracer.span("root"):
            assert tracer.current_context() is not None  # still propagates
            assert tracer.current_trace_id() is None

    def test_bad_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)


class TestDroppedRoots:
    def test_eviction_counts_and_increments_registry(self):
        registry = MetricsRegistry()
        tracer = Tracer(capacity=2, registry=registry)
        for i in range(3):  # capacity + 1 completed roots
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.roots()] == ["s1", "s2"]
        assert tracer.dropped_roots == 1
        assert (
            registry.value("obs_traces_dropped_total", layer="obs", operation="evicted") == 1
        )

    def test_no_eviction_no_counter(self):
        registry = MetricsRegistry()
        tracer = Tracer(capacity=2, registry=registry)
        with tracer.span("only"):
            pass
        assert tracer.dropped_roots == 0
        assert registry.value("obs_traces_dropped_total", layer="obs", operation="evicted") == 0
