"""Distributed tracing end to end over the HTTP/2 wire.

Client and server (and, for the CDN scenario, edge and origin) run with
*separate* tracers — one ring buffer per simulated process. Causality
crosses the wire only through the ``traceparent`` request header, so
these tests pin down the propagation path itself: extraction, remote
parenting, sampling inheritance, and stitching back into one tree.
"""

import pytest

from repro import (
    LAPTOP,
    GenerativeClient,
    GenerativeServer,
    PageResource,
    SiteStore,
    build_news_article,
    connect_in_memory,
)
from repro.obs import IdSource, MetricsRegistry, Tracer, stitch_spans


@pytest.fixture()
def page():
    return build_news_article()


def traced_fetch(page, client_gen: bool, server_gen: bool, registry=None, sample_rate=1.0):
    registry = registry if registry is not None else MetricsRegistry()
    client_tracer = Tracer(ids=IdSource(seed=1), sample_rate=sample_rate, registry=registry)
    server_tracer = Tracer(ids=IdSource(seed=2), registry=registry)
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    server = GenerativeServer(
        store, gen_ability=server_gen, registry=registry, tracer=server_tracer
    )
    client = GenerativeClient(
        device=LAPTOP, gen_ability=client_gen, registry=registry, tracer=client_tracer
    )
    result = client.fetch_via_pair(connect_in_memory(client, server), page.path)
    return result, client_tracer, server_tracer


def stitched_fetch_roots(client_tracer, server_tracer):
    stitched = stitch_spans([*client_tracer.roots(), *server_tracer.roots()])
    return [root for root in stitched if root.name == "client.fetch"]


class TestNegotiationMatrix:
    """Every §6.2 capability cell must still stitch into one trace — the
    traceparent header rides on the request whatever GEN_ABILITY says."""

    @pytest.mark.parametrize("client_gen", [True, False])
    @pytest.mark.parametrize("server_gen", [True, False])
    def test_each_cell_yields_one_stitched_trace(self, page, client_gen, server_gen):
        _result, client_tracer, server_tracer = traced_fetch(page, client_gen, server_gen)
        (fetch,) = stitched_fetch_roots(client_tracer, server_tracer)
        spans = [span for _, span in fetch.walk()]
        assert len({span.trace_id for span in spans}) == 1
        assert any(span.name == "server.request" for span in spans)
        # No orphaned server fragments left outside the stitched tree.
        assert all(root.name != "server.request" for root in server_tracer.roots()) or any(
            span.name == "server.request" for span in spans
        )

    def test_server_side_generation_lands_inside_the_clients_trace(self, page):
        # Naive client + capable server: materialisation (and its genai
        # work) happens across the wire yet must be a descendant of the
        # client's fetch span with the same trace-id.
        _result, client_tracer, server_tracer = traced_fetch(page, False, True)
        (fetch,) = stitched_fetch_roots(client_tracer, server_tracer)
        by_name = {span.name: span for _, span in fetch.walk()}
        assert "server.materialise" in by_name
        assert by_name["server.materialise"].trace_id == fetch.trace_id

    def test_trace_ids_deterministic_given_seeds(self, page):
        _r1, c1, s1 = traced_fetch(page, True, True)
        _r2, c2, s2 = traced_fetch(page, True, True)
        (a,) = stitched_fetch_roots(c1, s1)
        (b,) = stitched_fetch_roots(c2, s2)
        assert a.trace_id == b.trace_id


class TestHeaderRobustness:
    def test_malformed_traceparent_ignored_without_error(self, page, monkeypatch):
        # Corrupt the header on its way out: the fetch must still succeed
        # and the server must simply start its own trace fragment.
        original = GenerativeClient.request_headers

        def corrupted(self, path, authority="sww.example", priority=None):
            return [
                (name, b"00-garbage" if name == b"traceparent" else value)
                for name, value in original(self, path, authority, priority)
            ]

        monkeypatch.setattr(GenerativeClient, "request_headers", corrupted)
        result, client_tracer, server_tracer = traced_fetch(page, True, True)
        assert result.status == 200
        server_spans = [s.name for root in server_tracer.roots() for _, s in root.walk()]
        assert "server.request" in server_spans
        # Nothing stitched: the corrupted id can't match the client's.
        assert stitched_fetch_roots(client_tracer, server_tracer)[0].children != server_tracer.roots()
        client_ids = {root.trace_id for root in client_tracer.roots()}
        assert all(root.trace_id not in client_ids for root in server_tracer.roots())

    def test_unsampled_client_suppresses_recording_on_both_sides(self, page):
        result, client_tracer, server_tracer = traced_fetch(page, True, True, sample_rate=0.0)
        assert result.status == 200  # the request itself is unaffected
        assert client_tracer.roots() == []
        assert server_tracer.roots() == []  # decision propagated and honoured


class TestExemplars:
    def test_exemplar_trace_ids_resolve_to_recorded_spans(self, page):
        registry = MetricsRegistry()
        _result, client_tracer, server_tracer = traced_fetch(page, False, True, registry=registry)
        (fetch,) = stitched_fetch_roots(client_tracer, server_tracer)
        known_ids = {span.trace_id for _, span in fetch.walk()}
        exemplars = [
            (name, bound, trace_id)
            for name, kind, _help, instruments in registry.collect()
            if kind == "histogram"
            for inst in instruments
            for bound, trace_id, _value in inst.exemplars()
        ]
        assert exemplars, "server-side generation must record at least one exemplar"
        assert any(name == "genai_generation_seconds" for name, _b, _t in exemplars)
        for _name, _bound, trace_id in exemplars:
            assert trace_id in known_ids


class TestCdnChain:
    def test_client_edge_origin_stitches_one_tree(self):
        from repro.cdn.edge import CatalogItem, EdgeNode, OriginCatalog
        from repro.media.jpeg_model import jpeg_size
        from repro.obs import encode_traceparent

        registry = MetricsRegistry()
        client_tracer = Tracer(ids=IdSource(seed=1), registry=registry)
        edge_tracer = Tracer(ids=IdSource(seed=2), registry=registry)
        origin_tracer = Tracer(ids=IdSource(seed=3), registry=registry)
        catalog = OriginCatalog(tracer=origin_tracer)
        key = "/media/ridge-512.jpg"
        catalog.add(
            CatalogItem(
                key=key,
                prompt="a ridge line at dusk",
                width=512,
                height=512,
                media_bytes=jpeg_size(512, 512),
            )
        )
        edge = EdgeNode(
            catalog, cache_capacity_bytes=1 << 20, mode="prompt",
            registry=registry, tracer=edge_tracer,
        )
        for _ in range(2):  # miss, then hit
            with client_tracer.span("client.fetch", key=key) as span:
                edge.serve(key, traceparent=encode_traceparent(span.context))

        stitched = stitch_spans(
            [*client_tracer.roots(), *edge_tracer.roots(), *origin_tracer.roots()]
        )
        miss, hit = stitched
        miss_names = [(d, s.name) for d, s in miss.walk()]
        assert miss_names == [
            (0, "client.fetch"),
            (1, "cdn.serve"),
            (2, "origin.fetch"),  # the edge→origin hop, re-injected header
            (2, "genai.image"),  # prompt mode regenerates at the edge
        ]
        assert len({s.trace_id for _, s in miss.walk()}) == 1
        hit_names = [s.name for _, s in hit.walk()]
        assert "origin.fetch" not in hit_names  # cache hit: no origin hop
        (serve_span,) = [s for _, s in hit.walk() if s.name == "cdn.serve"]
        assert serve_span.attributes["hit"] is True
        assert miss.trace_id != hit.trace_id
