"""End-to-end trust: manifests over the wire, verification on-device."""

from repro.devices import WORKSTATION
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.sww.trust import TrustAuthority
from repro.workloads import build_travel_blog, build_wikimedia_landscape_page

KEY = b"shared-site-key-0123456789abcdef"


def trusted_pair(page, client_kwargs=None, server_kwargs=None):
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    server = GenerativeServer(store, trust_authority=TrustAuthority(KEY), **(server_kwargs or {}))
    client = GenerativeClient(
        device=WORKSTATION, trust_authority=TrustAuthority(KEY), **(client_kwargs or {})
    )
    pair = connect_in_memory(client, server)
    return client, server, pair


class TestTrustedFlow:
    def test_manifests_travel_and_verify(self):
        page = build_travel_blog()
        client, _server, pair = trusted_pair(page)
        result = client.fetch_via_pair(pair, page.path)
        assert result.sww_mode
        # Three image items on the blog; all verified, all trusted.
        assert len(result.verifications) == 3
        assert all(v.trusted for v in result.verifications.values())
        assert all(v.signature_valid for v in result.verifications.values())

    def test_whole_wikimedia_page_verifies(self):
        page = build_wikimedia_landscape_page(count=10)
        client, _server, pair = trusted_pair(page)
        result = client.fetch_via_pair(pair, page.path)
        assert len(result.verifications) == 10
        assert all(v.trusted for v in result.verifications.values())

    def test_wrong_client_key_rejects_everything(self):
        page = build_travel_blog()
        store = SiteStore()
        store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
        server = GenerativeServer(store, trust_authority=TrustAuthority(KEY))
        client = GenerativeClient(
            device=WORKSTATION, trust_authority=TrustAuthority(b"some-other-key-9876543210")
        )
        pair = connect_in_memory(client, server)
        result = client.fetch_via_pair(pair, page.path)
        assert len(result.verifications) == 3
        assert not any(v.trusted for v in result.verifications.values())
        assert all(not v.signature_valid for v in result.verifications.values())

    def test_untrusting_server_sends_no_manifests(self):
        page = build_travel_blog()
        store = SiteStore()
        store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
        server = GenerativeServer(store)  # no authority
        client = GenerativeClient(device=WORKSTATION, trust_authority=TrustAuthority(KEY))
        pair = connect_in_memory(client, server)
        result = client.fetch_via_pair(pair, page.path)
        assert result.verifications == {}

    def test_unverifying_client_skips_checks(self):
        page = build_travel_blog()
        client, _server, pair = trusted_pair(page)
        plain = GenerativeClient(device=WORKSTATION)  # no authority
        pair2 = connect_in_memory(
            plain,
            GenerativeServer(
                SiteStore(pages={page.path: PageResource(page.path, page.sww_html)}),
                trust_authority=TrustAuthority(KEY),
            ),
        )
        result = plain.fetch_via_pair(pair2, page.path)
        assert result.verifications == {}
        assert result.report is not None  # generation unaffected

    def test_manifests_cover_negotiated_models(self):
        """Signing happens after model negotiation: a client with only
        SD 2.1 still verifies cleanly because the manifest matches the
        rewritten metadata it generated from."""
        page = build_travel_blog()
        client, _server, pair = trusted_pair(
            page, client_kwargs={"installed_models": ["sd-2.1-base", "deepseek-r1-8b"]}
        )
        result = client.fetch_via_pair(pair, page.path)
        assert result.verifications
        assert all(v.anchor_consistent for v in result.verifications.values())
        # SD 2.1's fidelity is lower; faithfulness may sit near the floor,
        # but the signature/anchor machinery must hold regardless.
        assert all(v.signature_valid for v in result.verifications.values())
