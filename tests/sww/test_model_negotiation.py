"""Tests for model negotiation (§7 Next Steps)."""

import random
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.devices import LAPTOP
from repro.genai.registry import IMAGE_MODELS, TEXT_MODELS
from repro.html import parse_html, serialize
from repro.http2.endpoint import ServerConnection
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.content import GeneratedContent
from repro.sww.model_negotiation import (
    MODELS_HEADER,
    encode_models_header,
    negotiate_models,
    parse_models_header,
)
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.sww.trust import TrustAuthority


def page_html(*items: GeneratedContent) -> str:
    body = "".join(serialize(item.to_element()) for item in items)
    return f"<html><body>{body}</body></html>"


class TestHeaderCodec:
    def test_roundtrip(self):
        models = ["sd-3-medium", "deepseek-r1-8b"]
        assert parse_models_header(encode_models_header(models)) == models

    def test_whitespace_tolerated(self):
        assert parse_models_header(b" sd-2.1-base , llama-3.2 ") == ["sd-2.1-base", "llama-3.2"]

    def test_empty(self):
        assert parse_models_header(b"") == []

    def test_a_repeated_name_keeps_its_first_place(self):
        assert parse_models_header(b"b, a,b ,c,a") == ["b", "a", "c"]


class TestNegotiateModels:
    def test_requested_model_installed_unchanged(self):
        html = page_html(GeneratedContent.image("a fjord", model="sd-2.1-base"))
        out, report = negotiate_models(html, ["sd-2.1-base"])
        assert report.compatible and report.rewritten == 0
        assert out == html

    def test_missing_model_substituted_with_best(self):
        html = page_html(GeneratedContent.image("a fjord", name="f", model="sd-3.5-medium"))
        out, report = negotiate_models(html, ["sd-2.1-base", "sd-3-medium"])
        assert report.compatible
        assert report.substitutions == [("f", "sd-3.5-medium", "sd-3-medium")]
        item = GeneratedContent.from_element(parse_html(out).find_by_class("generated-content")[0])
        assert item.model == "sd-3-medium"

    def test_quality_delta_tracked(self):
        html = page_html(GeneratedContent.image("a fjord", model="dalle-3"))
        _out, report = negotiate_models(html, ["sd-2.1-base"])
        assert report.image_quality_delta == pytest.approx(0.885 - 0.385)

    def test_unpinned_item_gets_pinned(self):
        html = page_html(GeneratedContent.image("a fjord", name="f"))
        out, report = negotiate_models(html, ["sd-2.1-base"])
        assert report.rewritten == 1
        item = GeneratedContent.from_element(parse_html(out).find_by_class("generated-content")[0])
        assert item.model == "sd-2.1-base"

    def test_no_model_of_modality_incompatible(self):
        html = page_html(GeneratedContent.text("- a point", model="deepseek-r1-8b"))
        out, report = negotiate_models(html, ["sd-3-medium"])  # images only
        assert not report.compatible
        assert out == html  # untouched

    def test_best_image_model_by_fidelity(self):
        html = page_html(GeneratedContent.image("a fjord", model="dalle-3"))
        out, _report = negotiate_models(html, ["sd-2.1-base", "sd-3.5-medium", "sd-3-medium"])
        item = GeneratedContent.from_element(parse_html(out).find_by_class("generated-content")[0])
        assert item.model == "sd-3.5-medium"

    def test_best_text_model_by_drift(self):
        html = page_html(GeneratedContent.text("- a point", model="deepseek-r1-14b"))
        out, _report = negotiate_models(html, ["llama-3.2", "deepseek-r1-8b"])
        item = GeneratedContent.from_element(parse_html(out).find_by_class("generated-content")[0])
        assert item.model == "deepseek-r1-8b"

    def test_mixed_page(self):
        html = page_html(
            GeneratedContent.image("a fjord", name="i", model="sd-3.5-medium"),
            GeneratedContent.text("- a point", model="llama-3.2"),
        )
        out, report = negotiate_models(html, ["sd-3-medium", "llama-3.2"])
        assert report.compatible
        assert report.rewritten == 1 and report.unchanged == 1


class TestEndToEnd:
    def make_store(self, item: GeneratedContent) -> SiteStore:
        store = SiteStore()
        store.add_page(PageResource("/p", page_html(item)))
        return store

    def test_server_rewrites_for_client_models(self):
        item = GeneratedContent.image("a fjord", name="f", model="sd-3.5-medium")
        server = GenerativeServer(self.make_store(item))
        client = GenerativeClient(device=LAPTOP, installed_models=["sd-2.1-base"])
        pair = connect_in_memory(client, server)
        result = client.fetch_via_pair(pair, "/p")
        assert result.sww_mode
        # The client generated with ITS model, as negotiated.
        assert result.report.outputs[0].item.model == "sd-2.1-base"
        # And faster than SD 3.5 would have been (Table 1 step times).
        assert result.generation_time_s < 4.0

    def test_incompatible_modality_falls_back_to_server(self):
        item = GeneratedContent.text("- a point about networks", model="deepseek-r1-8b")
        server = GenerativeServer(self.make_store(item))
        client = GenerativeClient(device=LAPTOP, installed_models=["sd-3-medium"])  # no text model
        pair = connect_in_memory(client, server)
        result = client.fetch_via_pair(pair, "/p")
        assert not result.sww_mode  # server generated instead
        assert "generated-content" not in result.received_html

    def test_header_sent_only_by_capable_clients(self):
        capable = GenerativeClient(device=LAPTOP)
        naive = GenerativeClient(device=LAPTOP, gen_ability=False)
        assert any(n == MODELS_HEADER for n, _v in capable.request_headers("/x"))
        assert not any(n == MODELS_HEADER for n, _v in naive.request_headers("/x"))


#: A page whose negotiation reads every input a decision has: two
#: modalities, two explicitly requested models and an unpinned item.
MIXED_PAGE = page_html(
    GeneratedContent.image("a fjord", name="a", model="sd-3.5-medium"),
    GeneratedContent.image("a glacier", name="b", model="dalle-3"),
    GeneratedContent.image("a harbour", name="c"),
    GeneratedContent.text("- a point", model="llama-3.2"),
)
KNOWN = [*IMAGE_MODELS, *TEXT_MODELS]
UNKNOWN = ["sd-9-turbo", "my-llm", "DALLE-3", "llama-3.2 "]


class TestNegotiationTable:
    """A server keeps each page's negotiated prompts per decision and
    answers a request with a known decision inside its read turn."""

    @staticmethod
    def _server(trust_authority=None) -> GenerativeServer:
        store = SiteStore()
        store.add_page(PageResource("/p", MIXED_PAGE))
        return GenerativeServer(store, trust_authority=trust_authority)

    def test_distinct_headers_grow_the_table_only_by_distinct_decisions(self):
        server = self._server()
        page = server.store.pages["/p"]
        draw = random.Random(46)
        headers = set()
        while len(headers) < 1_000:
            names = draw.sample(KNOWN + UNKNOWN, draw.randint(0, 7))
            headers.add(encode_models_header(names))
        compatible = set()
        for header in sorted(headers):
            models = parse_models_header(header)
            route = server._route("/p", True, models)
            html, report = negotiate_models(MIXED_PAGE, models)
            if report.compatible:
                served = server.handle_request("/p", True, models, route=route)
                # Whatever the table answered is what this client's own
                # negotiation produces.
                assert (served.mode.value, served.body) == ("generative", html.encode())
                compatible.add(report.page_models.decision(models))
            else:
                # Served by falling back, never from the table.
                assert route.answer is None
        assert len(page.negotiated) == len(compatible)
        assert set(page.negotiated) == compatible
        # Bounded by the registry and the page, not by the 1 000 lists.
        assert len(compatible) <= len(IMAGE_MODELS) * len(TEXT_MODELS) * 2**3
        # Permuting a list or adding unknown names is the same decision.
        models = ["sd-2.1-base", "sd-3-medium", "llama-3.2"]
        decision = page.models.decision(models)
        grown = len(page.negotiated) + (decision not in page.negotiated)
        for variant in (models[::-1], [*models, *UNKNOWN], ["x", *models[1:], models[0]]):
            assert page.models.decision(variant) == decision
            served = server.handle_request("/p", True, variant)
            assert served.body == negotiate_models(MIXED_PAGE, variant)[0].encode()
        assert len(page.negotiated) == grown

    def test_negotiated_answer_is_served_in_the_read_turn_as_it_was_cold(self, monkeypatch):
        server = self._server()
        responses, spawned, submitted = [], [], []
        for models in (["sd-3-medium", "llama-3.2"], ["llama-3.2", "nope", "sd-3-medium"]):
            client = GenerativeClient(device=LAPTOP, installed_models=models)
            pair = connect_in_memory(client, server)
            headers = [(MODELS_HEADER, encode_models_header(models))]
            with monkeypatch.context() as patch:
                patch.setattr(ServerConnection, "spawn", _recording(ServerConnection.spawn, spawned))
                patch.setattr(ThreadPoolExecutor, "submit", _recording(ThreadPoolExecutor.submit, submitted))
                responses.append(pair.run(pair.client.request("GET", "/p", headers)))
            pair.close()
            # Only the first, cold request went to the executor.
            assert (len(spawned), len(submitted)) == (1, 1)
        cold, warm = responses
        assert (warm.status, warm.headers, warm.body) == (cold.status, cold.headers, cold.body)
        assert cold.body == negotiate_models(MIXED_PAGE, ["sd-3-medium", "llama-3.2"])[0].encode()

    def test_signed_server_negotiates_and_signs_every_request(self, monkeypatch):
        server = self._server(TrustAuthority(b"k" * 16))
        negotiated, signed = [], []
        monkeypatch.setattr(
            "repro.sww.server.negotiate_models",
            _recording(negotiate_models, negotiated),
        )
        monkeypatch.setattr(server, "_sign_page", _recording(server._sign_page, signed))
        models = ["sd-3-medium", "llama-3.2"]
        bodies = set()
        for _ in range(3):
            assert server._route("/p", True, models).answer is None
            served = server.handle_request("/p", True, models)
            assert dict(served.headers)[b"x-sww-manifests"]
            bodies.add(served.body)
        assert (len(negotiated), len(signed), len(bodies)) == (3, 3, 1)
        assert server.store.pages["/p"].negotiated == {}

    def test_a_long_header_of_repeats_is_routed_in_linear_time(self):
        # Half one image model, half another: a tie-break that searched the
        # list for each name's place would compare ~n**2/4 strings here.
        server = self._server()
        distinct = ["sd-2.1-base", "sd-3-medium", "llama-3.2"]
        repeated = [name for name in distinct for _ in range(50_000)]
        server.handle_request("/p", True, distinct)
        header = encode_models_header(repeated)
        started = time.perf_counter()
        parsed = parse_models_header(header)
        from_header = server._route("/p", True, parsed)
        from_list = server._route("/p", True, repeated)
        elapsed = time.perf_counter() - started
        assert parsed == distinct
        answer = server._route("/p", True, distinct).answer
        assert answer is not None
        assert from_header.answer is answer and from_list.answer is answer
        assert negotiate_models(MIXED_PAGE, repeated)[0] == negotiate_models(MIXED_PAGE, distinct)[0]
        assert elapsed < 1.0

    def test_a_full_table_leaves_new_decisions_to_the_executor(self, monkeypatch):
        monkeypatch.setattr("repro.sww.server._NEGOTIATED_PER_PAGE", 2)
        server = self._server()
        page = server.store.pages["/p"]
        lists = (["sd-3-medium", "llama-3.2"], ["dalle-3", "llama-3.2"], ["sd-2.1-base", "deepseek-r1-8b"])
        for _ in range(2):
            for models in lists:
                served = server.handle_request("/p", True, models)
                expected = negotiate_models(MIXED_PAGE, models)[0].encode()
                assert (served.mode.value, served.body) == ("generative", expected)
        assert set(page.negotiated) == {page.models.decision(models) for models in lists[:2]}
        assert server._route("/p", True, lists[2]).answer is None

    def test_replacing_a_page_drops_its_table(self):
        server = self._server()
        models = ["sd-3-medium", "llama-3.2"]
        server.handle_request("/p", True, models)
        assert server._route("/p", True, models).answer is not None
        server.store.add_page(PageResource("/p", MIXED_PAGE.replace("a fjord", "a delta")))
        assert server._route("/p", True, models).answer is None
        assert b"a delta" in server.handle_request("/p", True, models).body


def _recording(function, calls: list):
    def recorded(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    return recorded
