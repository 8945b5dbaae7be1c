"""Tests for the generative server (§5.1)."""

import pytest

from repro.devices import WORKSTATION
from repro.sww.capability import ServeMode, ServePolicy
from repro.sww.server import AssetResource, GenerativeServer, PageResource, SiteStore
from repro.workloads import build_travel_blog, build_wikimedia_landscape_page


@pytest.fixture
def store() -> SiteStore:
    page = build_travel_blog()
    s = SiteStore()
    s.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    s.add_asset(AssetResource("/photos/hike-0.jpg", b"\xff\xd8fakejpeg", "image/jpeg"))
    return s


class TestSiteStore:
    def test_storage_accounting(self, store):
        with_traditional = store.storage_bytes(include_traditional=True)
        prompts_only = store.storage_bytes(include_traditional=False)
        assert prompts_only < with_traditional

    def test_page_has_prompts_detection(self):
        assert PageResource("/x", '<div class="generated-content"></div>').has_prompts
        assert not PageResource("/y", "<p>plain</p>").has_prompts


class TestRequestHandling:
    def test_capable_client_gets_prompts(self, store):
        server = GenerativeServer(store)
        response = server.handle_request("/blog/ridgeline-hike", client_gen_ability=True)
        assert response.status == 200
        assert response.mode == ServeMode.GENERATIVE
        assert b"generated-content" in response.body
        assert (b"x-sww-content", b"prompts") in response.headers

    def test_naive_client_gets_materialised_page(self, store):
        server = GenerativeServer(store, device=WORKSTATION)
        response = server.handle_request("/blog/ridgeline-hike", client_gen_ability=False)
        assert response.mode == ServeMode.SERVER_GENERATED
        assert b"generated-content" not in response.body
        assert b"/generated/" in response.body  # rewritten img paths
        assert response.sim_time_s > 0  # the server paid generation

    def test_server_generated_assets_registered(self, store):
        server = GenerativeServer(store)
        server.handle_request("/blog/ridgeline-hike", client_gen_ability=False)
        generated = [p for p in store.assets if p.startswith("/generated/")]
        assert generated
        asset = server.handle_request(generated[0], client_gen_ability=False)
        assert asset.status == 200
        assert asset.body.startswith(b"\x89PNG")

    def test_server_side_generation_cached(self, store):
        """Repeat naive requests must not re-pay generation (§6.2: the
        server avoids 'saving two copies' but caches what it renders)."""
        server = GenerativeServer(store)
        first = server.handle_request("/blog/ridgeline-hike", client_gen_ability=False)
        second = server.handle_request("/blog/ridgeline-hike", client_gen_ability=False)
        assert first.sim_time_s > 0
        assert second.sim_time_s == 0.0
        assert first.body == second.body

    def test_asset_fetch(self, store):
        server = GenerativeServer(store)
        response = server.handle_request("/photos/hike-0.jpg", client_gen_ability=True)
        assert response.status == 200
        assert response.body.startswith(b"\xff\xd8")

    def test_missing_path_404(self, store):
        assert GenerativeServer(store).handle_request("/nope", True).status == 404

    def test_request_counter(self, store):
        server = GenerativeServer(store)
        server.handle_request("/blog/ridgeline-hike", True)
        server.handle_request("/nope", True)
        assert server.requests_served == 2


class TestPolicy:
    def test_performance_policy_serves_generated_media(self, store):
        server = GenerativeServer(store, policy=ServePolicy(prefer_performance=True))
        response = server.handle_request("/blog/ridgeline-hike", client_gen_ability=True)
        assert response.mode == ServeMode.SERVER_GENERATED

    def test_naive_server_serves_traditional(self, store):
        server = GenerativeServer(store, gen_ability=False)
        response = server.handle_request("/blog/ridgeline-hike", client_gen_ability=True)
        assert response.mode == ServeMode.TRADITIONAL
        assert b"generated-content" not in response.body
        assert response.sim_time_s == 0.0

    def test_traditional_falls_back_to_sww_html_when_no_variant(self):
        store = SiteStore()
        store.add_page(PageResource("/p", "<p>only form</p>", traditional_html=None))
        server = GenerativeServer(store, gen_ability=False)
        response = server.handle_request("/p", client_gen_ability=False)
        assert response.body == b"<p>only form</p>"


class TestContentTypes:
    def test_html_content_type(self, store):
        response = GenerativeServer(store).handle_request("/blog/ridgeline-hike", True)
        assert dict(response.headers)[b"content-type"].startswith(b"text/html")

    def test_jpeg_content_type(self, store):
        response = GenerativeServer(store).handle_request("/photos/hike-0.jpg", True)
        assert dict(response.headers)[b"content-type"] == b"image/jpeg"

    def test_content_length_matches_body(self, store):
        response = GenerativeServer(store).handle_request("/blog/ridgeline-hike", True)
        assert int(dict(response.headers)[b"content-length"]) == len(response.body)


class TestWikimediaWorkload:
    def test_server_generation_time_matches_paper(self):
        """§6.2: materialising the 49-image page on the workstation takes
        ≈49 s ('roughly 1 second per image')."""
        page = build_wikimedia_landscape_page()
        store = SiteStore()
        store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
        server = GenerativeServer(store, device=WORKSTATION)
        response = server.handle_request(page.path, client_gen_ability=False)
        assert 38 < response.sim_time_s < 55


class TestMaterialiseSingleFlight:
    """Concurrent naive requests for one page must generate it once: the
    leader pays, followers coalesce onto the leader's in-flight result."""

    def _make_server(self):
        page = build_travel_blog()
        store = SiteStore()
        store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
        return GenerativeServer(store), page.path

    def test_racing_threads_generate_once(self, monkeypatch):
        import threading

        server, path = self._make_server()
        page = server.store.pages[path]
        cold_calls = []
        original_cold = server._materialise_cold

        def counting_cold(p):
            cold_calls.append(p.path)
            return original_cold(p)

        monkeypatch.setattr(server, "_materialise_cold", counting_cold)

        workers = 6
        barrier = threading.Barrier(workers)
        results = [None] * workers
        errors = []

        def fetch(i):
            try:
                barrier.wait(timeout=10)
                results[i] = server._claim(page)[1]
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=fetch, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert len(cold_calls) == 1, "materialisation ran more than once"
        htmls = {r[0] for r in results}
        assert len(htmls) == 1
        # Followers pay nothing: only the leader reports generation time.
        paid = [r for r in results if r[2] > 0]
        assert len(paid) == 1

    def test_leader_failure_releases_flight(self, monkeypatch):
        server, path = self._make_server()
        page = server.store.pages[path]

        calls = []
        original_cold = server._materialise_cold

        def flaky_cold(p):
            calls.append(p.path)
            if len(calls) == 1:
                raise RuntimeError("generation blew up")
            return original_cold(p)

        monkeypatch.setattr(server, "_materialise_cold", flaky_cold)
        with pytest.raises(RuntimeError):
            server._claim(page)[1]
        # The failed flight must not wedge the path: a retry generates.
        html, assets, gen_time, _energy = server._claim(page)[1]
        assert "/generated/" in html
        assert gen_time > 0
        assert len(calls) == 2

    def test_repeat_materialise_hits_cache(self):
        server, path = self._make_server()
        page = server.store.pages[path]
        first = server._claim(page)[1]
        second = server._claim(page)[1]
        assert second[0] == first[0]
        assert second[2] == 0.0  # cached repeat is free


class _Reached(Exception):
    """A tripwire: the handler got to work that must not run on the event loop."""


class TestAnswersFromMemory:
    """``_route`` decides, once, whether a request is answered from memory
    (the asyncio session serves those on the event loop) or left to work
    in the executor: routing never reaches a generating / parsing /
    negotiating / signing / cache entry point, a route that carries its
    answer is served with every one of them armed to raise, and a route
    left to the executor reaches one."""

    ASSET, UNKNOWN, PLAIN = "/photos/stored.jpg", "/nope", "/plain"
    COMPATIBLE, INCOMPATIBLE = ["sd-3-medium", "llama-3.2"], ["llama-3.2"]

    def _server(self, trusted, policy, memoise_pages, server_gen_ability):
        from repro.gencache import GenerationCache
        from repro.sww.trust import TrustAuthority
        from repro.workloads.corpus import build_uniform_pages

        prompts_only, with_variant = build_uniform_pages(2, side=32)
        store = SiteStore()
        store.add_asset(AssetResource(self.ASSET, b"\xff\xd8stored", "image/jpeg"))
        store.add_page(PageResource(prompts_only.path, prompts_only.sww_html))
        store.add_page(
            PageResource(with_variant.path, with_variant.sww_html, with_variant.traditional_html)
        )
        store.add_page(PageResource(self.PLAIN, "<p>plain</p>"))
        server = GenerativeServer(
            store,
            policy=policy,
            gen_ability=server_gen_ability,
            trust_authority=TrustAuthority(b"k" * 16) if trusted else None,
            gencache=GenerationCache(),
            memoise_pages=memoise_pages,
        )
        return server, [self.ASSET, self.UNKNOWN, self.PLAIN, prompts_only.path, with_variant.path]

    @staticmethod
    def _arm(monkeypatch, server):
        def tripwire(*args, **kwargs):
            raise _Reached()

        monkeypatch.setattr("repro.sww.server.parse_html", tripwire)
        monkeypatch.setattr("repro.sww.server.negotiate_models", tripwire)
        monkeypatch.setattr(server, "_materialise_cold", tripwire)
        monkeypatch.setattr(server, "_sign_page", tripwire)
        monkeypatch.setattr(server.gencache, "lookup", tripwire)

    @pytest.mark.parametrize("server_gen_ability", [True, False], ids=["gen-server", "naive-server"])
    @pytest.mark.parametrize("memoise_pages", [True, False], ids=["memo", "no-memo"])
    @pytest.mark.parametrize(
        "policy", [ServePolicy(), ServePolicy(prefer_performance=True)], ids=["default", "no-generative"]
    )
    @pytest.mark.parametrize("trusted", [False, True], ids=["unsigned", "signed"])
    def test_predicate_and_handler_agree(
        self, monkeypatch, trusted, policy, memoise_pages, server_gen_ability
    ):
        server, paths = self._server(trusted, policy, memoise_pages, server_gen_ability)
        answered = 0
        for memo in ("cold", "warm"):
            with monkeypatch.context() as patch:
                self._arm(patch, server)
                for path in paths:
                    for client_gen_ability in (True, False):
                        for client_models in (None, self.COMPATIBLE, self.INCOMPATIBLE):
                            case = (memo, path, client_gen_ability, client_models)
                            route = server._route(path, client_gen_ability, client_models)
                            try:
                                served = server.handle_request(
                                    path, client_gen_ability, client_models, route=route
                                )
                            except _Reached:
                                assert route.answer is None, f"would have blocked the event loop: {case}"
                                continue
                            assert route.answer is not None, f"sent to the executor for nothing: {case}"
                            assert served is route.answer, f"decided again: {case}"
                            answered += 1
            # Warm: every page has been materialised once for a naive client.
            for path in paths[2:]:
                server.handle_request(path, client_gen_ability=False)
        assert answered

    def test_memo_hit_is_inline_only_while_the_memo_is_on(self):
        for memoise_pages in (False, True):
            server, paths = self._server(False, ServePolicy(), memoise_pages, True)
            page = paths[3]
            assert server._route(page, False, None).answer is None
            cold = server.handle_request(page, client_gen_ability=False)
            hit = server._route(page, False, None).answer
            if memoise_pages:
                assert (hit.body, hit.memo, hit.sim_time_s) == (cold.body, "hit", 0.0)
            else:
                assert hit is None
        # Switched off on a warm server, the finished entry is no longer an
        # answer: the route leaves the page to be materialised again.
        assert server._pages
        server.memoise_pages = False
        assert server._route(page, False, None).answer is None


class TestPageTable:
    """The page memo and its single-flight are one table: under contention
    one leader generates per flight, followers pay nothing, and with the
    memo off no entry outlives its flight."""

    @pytest.mark.parametrize("memoise_pages", [True, False], ids=["memo", "no-memo"])
    def test_contended_table_keeps_one_leader_per_flight(self, monkeypatch, memoise_pages):
        import sys
        import threading
        import time

        server = GenerativeServer(SiteStore(), memoise_pages=memoise_pages)
        page = PageResource("/p", '<div class="generated-content"></div>')
        cold_calls = []

        def fake_cold(p):
            cold_calls.append(p.path)
            time.sleep(0.001)
            return "<p>done</p>", {}, 1.0, 0.5

        monkeypatch.setattr(server, "_materialise_cold", fake_cold)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # Daemons, so a wedged follower fails the test instead of hanging it.
            threads = [
                threading.Thread(
                    target=lambda: results.extend(server._claim(page) for _ in range(50)), daemon=True
                )
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 60
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 400 and {entry[0] for _memo, entry in results} == {"<p>done</p>"}
        # Each generation's cost is reported once, by its leader.
        assert sum(entry[2] > 0 for _memo, entry in results) == len(cold_calls)
        memos = [memo for memo, _entry in results]
        assert memos.count("miss") == len(cold_calls)
        if memoise_pages:
            assert len(cold_calls) == 1
        else:
            # A follower joins only a pending flight: never a hit.
            assert "hit" not in memos
            assert server._pages == {}

    @pytest.mark.parametrize("memoise_pages", [True, False], ids=["memo", "no-memo"])
    def test_follower_that_joined_a_pending_flight_is_coalesced(self, monkeypatch, memoise_pages):
        """Held open between the follower joining and reading its flight,
        the leader finishes: the follower still counts as coalesced, since
        the flight was pending when it joined."""
        import threading

        server = GenerativeServer(SiteStore(), memoise_pages=memoise_pages)
        page = PageResource("/p", '<div class="generated-content"></div>')
        leading, joined = threading.Event(), threading.Event()

        def fake_cold(p):
            leading.set()
            assert joined.wait(10)
            return "<p>done</p>", {}, 1.0, 0.5

        monkeypatch.setattr(server, "_materialise_cold", fake_cold)
        results = {}
        leader = threading.Thread(target=lambda: results.update(leader=server._claim(page)), daemon=True)
        leader.start()
        assert leading.wait(10)

        class JoinThenFinish:
            """The page lock; the follower's release lets the leader finish
            before the follower goes on."""

            def __init__(self, lock):
                self.lock = lock

            def __enter__(self):
                return self.lock.__enter__()

            def __exit__(self, *exc):
                self.lock.__exit__(*exc)
                if threading.current_thread() is follower and not joined.is_set():
                    joined.set()
                    leader.join(10)

        server._pages_lock = JoinThenFinish(server._pages_lock)
        follower = threading.Thread(target=lambda: results.update(follower=server._claim(page)), daemon=True)
        follower.start()
        follower.join(10)
        assert not leader.is_alive() and not follower.is_alive()
        assert results["leader"][0] == "miss"
        assert results["follower"] == ("coalesced", ("<p>done</p>", {}, 0.0, 0.0))
