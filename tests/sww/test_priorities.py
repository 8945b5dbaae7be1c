"""Tests for the page-aware priority policy and its end-to-end wiring:
fold classification → the client's ``priority`` header → the server
engine's per-stream scheduling parameters."""

import pytest

from repro.devices import LAPTOP
from repro.html.parser import parse_html
from repro.http2.streams import H2Stream
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.priorities import (
    ABOVE_FOLD,
    AGENT,
    BELOW_FOLD,
    FOLD_ITEM_COUNT,
    PAGE,
    classify_document,
    priority_for_path,
)
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.workloads import build_travel_blog
from repro.workloads.corpus import populate_traditional_assets


def make_server(**kwargs) -> GenerativeServer:
    page = build_travel_blog()
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    populate_traditional_assets(store, page)
    return GenerativeServer(store, **kwargs)


class TestClassifyDocument:
    def test_first_items_above_the_fold(self):
        doc = parse_html(build_travel_blog().sww_html)
        fold_map = classify_document(doc)
        assert fold_map  # the corpus page has generated items
        priorities = list(fold_map.values())
        assert priorities[:FOLD_ITEM_COUNT] == [ABOVE_FOLD] * min(
            FOLD_ITEM_COUNT, len(priorities)
        )
        assert all(p == BELOW_FOLD for p in priorities[FOLD_ITEM_COUNT:])

    def test_asset_paths_are_generated_pngs(self):
        doc = parse_html(build_travel_blog().sww_html)
        for path in classify_document(doc):
            assert path.startswith("/generated/")

    def test_document_without_generated_items_is_empty(self):
        assert classify_document(parse_html("<html><body><p>hi</p></body></html>")) == {}


class TestPriorityForPath:
    def test_page_documents_get_page_priority(self):
        assert priority_for_path("/blog/ridgeline-hike") == PAGE

    def test_fold_map_wins_for_known_assets(self):
        fold_map = {"/generated/hero.png": ABOVE_FOLD}
        assert priority_for_path("/generated/hero.png", fold_map) == ABOVE_FOLD

    def test_unknown_assets_default_below_the_fold(self):
        assert priority_for_path("/generated/other.png") == BELOW_FOLD
        assert priority_for_path("/static/site.css") == BELOW_FOLD
        assert priority_for_path("/app.js?v=3") == BELOW_FOLD

    def test_agent_fetches_preempt_everything(self):
        assert priority_for_path("/api/metadata", agent=True) == AGENT
        assert AGENT.urgency < ABOVE_FOLD.urgency < BELOW_FOLD.urgency

    def test_policy_constants_match_issue_spec(self):
        assert (PAGE.urgency, PAGE.incremental) == (1, False)
        assert (ABOVE_FOLD.urgency, ABOVE_FOLD.incremental) == (1, False)
        assert (BELOW_FOLD.urgency, BELOW_FOLD.incremental) == (5, True)
        assert (AGENT.urgency, AGENT.incremental) == (0, False)


class TestClientSignalling:
    def test_page_request_carries_priority_header(self):
        client = GenerativeClient(device=LAPTOP)
        headers = dict(client.request_headers("/blog/ridgeline-hike"))
        assert headers[b"priority"] == PAGE.serialize()

    def test_asset_request_carries_below_fold_priority(self):
        client = GenerativeClient(device=LAPTOP)
        headers = dict(client.request_headers("/generated/stock-9.png"))
        assert headers[b"priority"] == b"u=5, i"

    def test_explicit_priority_overrides_policy(self):
        client = GenerativeClient(device=LAPTOP)
        headers = dict(client.request_headers("/x.png", priority=AGENT))
        assert headers[b"priority"] == b"u=0"

    def test_default_priority_serializes_to_nothing_and_is_omitted(self):
        # urgency 3, non-incremental is the protocol default: zero bytes.
        from repro.http2.priority import Priority

        client = GenerativeClient(device=LAPTOP)
        headers = client.request_headers("/page", priority=Priority())
        assert all(name != b"priority" for name, _ in headers)


@pytest.fixture
def priority_signals(monkeypatch):
    """``(stream_id, urgency, incremental)`` each time a stream takes a
    priority signal, read while the stream is live: the engine drops a
    stream from its table once it closes. In a fetch only the server
    engine receives signals (the client sends them)."""
    signals = []
    set_priority = H2Stream.set_priority

    def spy(stream, urgency, incremental):
        set_priority(stream, urgency, incremental)
        signals.append((stream.stream_id, stream.urgency, stream.incremental))

    monkeypatch.setattr(H2Stream, "set_priority", spy)
    return signals


class TestEndToEnd:
    def test_fetch_lands_priorities_in_server_stream_table(self, priority_signals):
        """The full path: policy → header → HPACK → server engine →
        per-stream urgency the writer schedules by."""
        client = GenerativeClient(device=LAPTOP)
        server = make_server()
        pair = connect_in_memory(client, server)
        result = client.fetch_via_pair(pair, "/blog/ridgeline-hike")
        assert result.status == 200

        assert priority_signals, "no stream carried a priority signal"
        _, urgency, incremental = min(priority_signals)
        assert urgency == PAGE.urgency
        assert incremental is False

    def test_naive_asset_fetches_signal_fold_priorities(self, priority_signals):
        """A naive client pulls media over the wire; its asset streams
        must signal the below-the-fold default class."""
        client = GenerativeClient(device=LAPTOP, gen_ability=False)
        server = make_server()
        pair = connect_in_memory(client, server)
        result = client.fetch_via_pair(pair, "/blog/ridgeline-hike")
        assert result.status == 200
        urgencies = {urgency for _, urgency, _ in priority_signals}
        assert PAGE.urgency in urgencies
