"""Tests for the edge node (§2.2)."""

import pytest

from repro.cdn.edge import CatalogItem, EdgeNode, OriginCatalog
from repro.devices import WORKSTATION
from repro.obs import EventLog


@pytest.fixture
def catalog() -> OriginCatalog:
    cat = OriginCatalog()
    for i in range(10):
        cat.add(
            CatalogItem(
                key=f"img-{i}",
                prompt=f"a landscape photograph of scene number {i} with water and hills",
                width=256,
                height=256,
                media_bytes=32_768,
            )
        )
    return cat


class TestCatalog:
    def test_prompt_bytes_much_smaller(self, catalog):
        assert catalog.total_prompt_bytes() * 50 < catalog.total_media_bytes()

    def test_missing_key_raises(self, catalog):
        with pytest.raises(KeyError):
            catalog.get("nope")


class TestBlobMode:
    def test_miss_pulls_media_over_backbone(self, catalog):
        edge = EdgeNode(catalog, 10 * 32_768, mode="blob")
        result = edge.serve("img-0")
        assert not result.cache_hit
        assert result.backbone_bytes == 32_768
        assert result.egress_bytes == 32_768
        assert result.generation_energy_wh == 0.0

    def test_hit_skips_backbone(self, catalog):
        edge = EdgeNode(catalog, 10 * 32_768, mode="blob")
        edge.serve("img-0")
        result = edge.serve("img-0")
        assert result.cache_hit and result.backbone_bytes == 0


class TestPromptMode:
    def test_miss_pulls_only_prompt(self, catalog):
        edge = EdgeNode(catalog, 10 * 32_768, mode="prompt", device=WORKSTATION)
        result = edge.serve("img-0")
        assert not result.cache_hit
        assert result.backbone_bytes < 500

    def test_egress_still_media_sized(self, catalog):
        """§2.2: 'maintains the storage benefits, but loses data
        transmission benefits' — the user still receives media bytes."""
        edge = EdgeNode(catalog, 10 * 32_768, mode="prompt")
        result = edge.serve("img-0")
        assert result.egress_bytes == 32_768

    def test_every_request_pays_generation(self, catalog):
        edge = EdgeNode(catalog, 10 * 32_768, mode="prompt")
        first = edge.serve("img-0")
        second = edge.serve("img-0")
        assert first.generation_time_s > 0
        assert second.generation_time_s > 0
        assert second.cache_hit  # the prompt was cached, generation still ran

    def test_storage_advantage(self, catalog):
        blob = EdgeNode(catalog, 10 * 32_768, mode="blob")
        prompt = EdgeNode(catalog, 10 * 32_768, mode="prompt")
        for i in range(10):
            blob.serve(f"img-{i}")
            prompt.serve(f"img-{i}")
        assert prompt.storage_used_bytes * 50 < blob.storage_used_bytes

    def test_energy_tradeoff(self, catalog):
        """Prompt mode trades backbone transmission energy for generation
        energy — and generation currently dominates (§6.4)."""
        blob = EdgeNode(catalog, 10 * 32_768, mode="blob")
        prompt = EdgeNode(catalog, 10 * 32_768, mode="prompt")
        for i in range(10):
            blob.serve(f"img-{i}")
            prompt.serve(f"img-{i}")
        blob_energy = sum(r.total_energy_wh for r in blob.results)
        prompt_energy = sum(r.total_energy_wh for r in prompt.results)
        assert prompt_energy > blob_energy


class TestWideEvents:
    def test_one_cdn_serve_event_per_request(self, catalog):
        events = EventLog()
        edge = EdgeNode(catalog, 10 * 32_768, mode="prompt", events=events)
        results = [edge.serve("img-0"), edge.serve("img-0"), edge.serve("img-1")]
        recorded = [event.to_dict() for event in events.events()]
        assert [event["event"] for event in recorded] == ["cdn.serve"] * 3
        assert events.open_count == 0
        for event, result in zip(recorded, results):
            assert event["status"] == 200
            assert event["cache_key"] == result.key
            assert event["serve_mode"] == "prompt"
            assert event["cache_hit"] == result.cache_hit
            assert event["backbone_bytes"] == result.backbone_bytes
            assert event["egress_bytes"] == result.egress_bytes
            assert event["sim_time_s"] == result.generation_time_s > 0
            assert event["energy_wh"] == result.total_energy_wh
            assert event["device"] == edge.device.name
            assert event["model"] == "sd-3-medium"
        assert [event["cache_hit"] for event in recorded] == [False, True, False]

    def test_a_blob_mode_event_names_no_model(self, catalog):
        events = EventLog()
        edge = EdgeNode(catalog, 10 * 32_768, mode="blob", events=events)
        result = edge.serve("img-0")
        (event,) = [event.to_dict() for event in events.events()]
        assert event["status"] == 200 and event["serve_mode"] == "blob"
        assert event["egress_bytes"] == result.egress_bytes
        assert "model" not in event and "device" not in event

    def test_unknown_key_records_a_404(self, catalog):
        events = EventLog()
        edge = EdgeNode(catalog, 10 * 32_768, mode="blob", events=events)
        with pytest.raises(KeyError):
            edge.serve("nope")
        (event,) = [event.to_dict() for event in events.events()]
        assert event["status"] == 404 and event["error"] == "KeyError"


class TestValidation:
    def test_bad_mode_rejected(self, catalog):
        with pytest.raises(ValueError):
            EdgeNode(catalog, 1000, mode="hybrid")

    def test_aggregates(self, catalog):
        edge = EdgeNode(catalog, 10 * 32_768, mode="blob")
        edge.serve("img-0")
        edge.serve("img-1")
        assert edge.backbone_bytes_total == 2 * 32_768
        assert edge.egress_bytes_total == 2 * 32_768
