"""Tests for the traffic projection (§7)."""

import pytest

from repro.devices.energy import EB, PB
from repro.workloads.traffic import MOBILE_WEB_EB_PER_MONTH, TrafficModel


class TestPaperProjection:
    def test_cited_volume_range(self):
        assert MOBILE_WEB_EB_PER_MONTH == (2.0, 3.0)

    def test_two_orders_of_magnitude_gives_tens_of_pb(self):
        """§7: 2-3 EB/month ÷ ~100 → tens of PB/month."""
        for volume in MOBILE_WEB_EB_PER_MONTH:
            projection = TrafficModel(volume).project(compression_factor=100)
            assert 10 <= projection.compressed_pb < 100

    def test_measured_page_factor_lands_in_tens_of_pb(self):
        """Using the Fig. 2 measured ratio instead of a round 100."""
        from repro.workloads import build_wikimedia_landscape_page

        ratio = build_wikimedia_landscape_page().account.ratio
        projection = TrafficModel(2.5).project(ratio)
        assert 10 <= projection.compressed_pb < 100


class TestModel:
    def test_reduction_factor(self):
        projection = TrafficModel(1.0).project(50)
        assert projection.reduction_factor == pytest.approx(50)

    def test_incompressible_share_limits_savings(self):
        projection = TrafficModel(1.0, compressible_share=0.5).project(100)
        # Half the traffic is untouched: reduction can't exceed 2x.
        assert projection.reduction_factor < 2.1
        assert projection.compressed_bytes > 0.5 * EB

    def test_energy_savings_positive(self):
        projection = TrafficModel(2.0).project(100)
        # ~2 EB saved at 38 MWh/PB ≈ 75,000 MWh.
        assert projection.monthly_energy_savings_mwh == pytest.approx(
            38 * (projection.original_bytes - projection.compressed_bytes) / PB, rel=0.01
        )
        assert projection.monthly_energy_savings_mwh > 10_000

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficModel(0)
        with pytest.raises(ValueError):
            TrafficModel(1.0, compressible_share=1.5)
        with pytest.raises(ValueError):
            TrafficModel(1.0).project(0.5)


class TestPoissonArrivals:
    def test_pinned_sequence_for_fixed_seed(self):
        """The open-loop process is a pure function of its inputs; this
        pin catches any accidental change to the draw order."""
        from repro.workloads.traffic import poisson_arrivals

        arrivals = poisson_arrivals(2.0, 5.0, seed=42)
        assert [round(t, 6) for t in arrivals] == [
            0.197552, 0.4015, 0.503571, 1.440534, 2.166868,
            2.327103, 2.766082, 3.624806, 3.711757,
        ]

    def test_deterministic_and_seed_sensitive(self):
        from repro.workloads.traffic import poisson_arrivals

        a = poisson_arrivals(10.0, 20.0, seed=1)
        assert a == poisson_arrivals(10.0, 20.0, seed=1)
        assert a != poisson_arrivals(10.0, 20.0, seed=2)

    def test_rate_matches_expectation(self):
        from repro.workloads.traffic import poisson_arrivals

        arrivals = poisson_arrivals(50.0, 100.0, seed=7)
        # ~5000 expected; allow ±5σ (σ ≈ 71).
        assert 4600 < len(arrivals) < 5400
        assert all(0 <= t < 100.0 for t in arrivals)
        assert arrivals == sorted(arrivals)

    def test_start_offset_shifts_window(self):
        from repro.workloads.traffic import poisson_arrivals

        shifted = poisson_arrivals(5.0, 10.0, seed=3, start_s=100.0)
        assert all(100.0 <= t < 110.0 for t in shifted)

    def test_validation(self):
        from repro.workloads.traffic import poisson_arrivals

        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 10.0)
        with pytest.raises(ValueError):
            poisson_arrivals(1.0, -1.0)


class TestOpenLoopTape:
    def make_tape(self, seed=0):
        from repro.workloads.traffic import default_regions, open_loop_requests

        regions = default_regions(3, rate_per_s=5.0)
        catalog = [f"item-{i:03d}" for i in range(20)]
        return regions, catalog, open_loop_requests(regions, catalog, 30.0, seed=seed)

    def test_tape_is_time_ordered_and_deterministic(self):
        from repro.workloads.traffic import open_loop_requests

        regions, catalog, tape = self.make_tape()
        times = [r.time_s for r in tape]
        assert times == sorted(times)
        assert tape == open_loop_requests(regions, catalog, 30.0, seed=0)

    def test_every_region_contributes(self):
        regions, _, tape = self.make_tape()
        seen = {r.region for r in tape}
        assert seen == {spec.name for spec in regions}

    def test_users_drawn_from_population(self):
        regions, _, tape = self.make_tape()
        by_region = {spec.name: spec for spec in regions}
        assert all(0 <= r.user_id < by_region[r.region].users for r in tape)
        # Millions of users: arrivals are (almost surely) distinct people,
        # not a handful of looping clients.
        assert len({(r.region, r.user_id) for r in tape}) > 0.99 * len(tape)

    def test_regions_have_distinct_hot_heads(self):
        """Rotated rankings give each region its own most-popular key."""
        from collections import Counter

        regions, _, tape = self.make_tape()
        heads = {}
        for spec in regions:
            keys = [r.key for r in tape if r.region == spec.name]
            heads[spec.name] = Counter(keys).most_common(1)[0][0]
        assert len(set(heads.values())) > 1

    def test_region_ranking_is_rotation(self):
        from repro.workloads.traffic import region_ranking

        catalog = [f"item-{i}" for i in range(10)]
        ranked = region_ranking(catalog, "region-07")
        assert sorted(ranked) == sorted(catalog)
        assert ranked != catalog or region_ranking(catalog, "region-00") == catalog
        assert region_ranking([], "region-00") == []

    def test_validation(self):
        from repro.workloads.traffic import RegionSpec, default_regions, open_loop_requests

        with pytest.raises(ValueError):
            open_loop_requests([], ["k"], 1.0)
        with pytest.raises(ValueError):
            open_loop_requests(default_regions(1), [], 1.0)
        with pytest.raises(ValueError):
            RegionSpec(name="r", users=0)
        with pytest.raises(ValueError):
            RegionSpec(name="r", rate_per_s=0.0)
        with pytest.raises(ValueError):
            default_regions(0)
