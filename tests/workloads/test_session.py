"""Tests for the browsing-session simulation."""

import pytest

from repro.devices import LAPTOP, WORKSTATION
from repro.workloads.session import BrowsingSession, default_session_pages


@pytest.fixture(scope="module")
def laptop_stats():
    return BrowsingSession(device=LAPTOP).run()


class TestSessionFlow:
    def test_all_pages_visited(self, laptop_stats):
        assert laptop_stats.pages == 3
        paths = [v.path for v in laptop_stats.views]
        assert "/wiki/search/landscape" in paths
        assert "/news/transit-corridor" in paths

    def test_wire_savings_order_of_magnitude(self, laptop_stats):
        assert laptop_stats.wire_saving > 20

    def test_generation_dominated_by_image_page(self, laptop_stats):
        by_path = {v.path: v for v in laptop_stats.views}
        wiki = by_path["/wiki/search/landscape"]
        assert wiki.generation_s > 0.6 * laptop_stats.generation_s

    def test_pipeline_loaded_once(self, laptop_stats):
        # The load cost appears once, not per page.
        assert laptop_stats.pipeline_load_s > 0
        session = BrowsingSession(device=LAPTOP)
        session.run()
        assert session.client.pipeline.reloads == 1

    def test_empty_session_rejected(self):
        with pytest.raises(ValueError):
            BrowsingSession(pages=[])


class TestEnergyVerdict:
    def test_todays_laptop_session_costs_energy(self, laptop_stats):
        """The paper's §7 verdict holds at session scale on today's
        hardware: generation energy exceeds transmission energy avoided."""
        assert laptop_stats.net_energy_wh() > 0

    def test_transmission_savings_positive(self, laptop_stats):
        assert laptop_stats.transmission_energy_saved_wh() > 0

    def test_workstation_session_faster(self, laptop_stats):
        wk = BrowsingSession(device=WORKSTATION).run()
        assert wk.generation_s < laptop_stats.generation_s / 4

    def test_future_device_flips_verdict(self):
        """On a projected accelerator generation, the same session saves
        energy — §7's optimism at session scale."""
        from repro.devices.future import project_device

        future = project_device(LAPTOP, speedup=16.0, efficiency_gain=16.0)
        stats = BrowsingSession(device=future).run()
        assert stats.net_energy_wh() < 0


class TestDefaults:
    def test_default_pages(self):
        pages = default_session_pages()
        assert len(pages) == 3
        assert len({p.path for p in pages}) == 3


class TestOpenLoopSession:
    def make_session(self, edges=4, duration_s=30.0):
        from repro.cdn.fleet import EdgeFleet, FleetConfig, build_fleet_catalog
        from repro.cdn.placement import HashRing
        from repro.cdn.router import FleetRouter
        from repro.workloads.session import OpenLoopSession
        from repro.workloads.traffic import default_regions

        config = FleetConfig(edges=edges, gencache_bytes=16 * 750_000)
        ring = HashRing(config.edge_names(), config.vnodes)
        regions = default_regions(4, rate_per_s=2.0)
        router = FleetRouter(regions, ring)
        fleet = EdgeFleet(build_fleet_catalog(40), config, router, ring=ring)
        return OpenLoopSession(fleet, regions, duration_s, seed=5)

    def test_replay_accounts_every_arrival(self):
        session = self.make_session()
        stats = session.run()
        assert stats.requests == len(session.tape())
        assert sum(t.count for t in stats.tiers.values()) == stats.requests
        assert len(stats.latencies) == stats.requests

    def test_warm_pass_improves_hit_rate(self):
        session = self.make_session()
        cold = session.run()
        warm = session.run()
        assert warm.requests == cold.requests
        assert warm.fleet_hit_rate > cold.fleet_hit_rate
        assert warm.generation_sim_s <= cold.generation_sim_s

    def test_passes_continue_the_clock(self):
        """Pass 2 replays the same keys shifted by one duration, so the
        fleet's monotonic-time requirement holds across passes."""
        session = self.make_session()
        session.run()
        tape2 = session.tape(start_s=session.duration_s)
        assert tape2[0].time_s >= session.duration_s
        session.run()  # must not raise the nondecreasing-time error

    def test_summary_shape(self):
        session = self.make_session()
        summary = session.run().summary()
        assert set(summary["tiers"]) <= {"edge", "peer", "coalesced", "generated", "origin"}
        for field in ("requests", "fleet_hit_rate", "p50_s", "p99_s", "origin_bytes"):
            assert field in summary

    def test_duration_validation(self):
        import pytest

        with pytest.raises(ValueError):
            self.make_session(duration_s=0.0)

    def reference_passes(self, session, passes):
        """What the session replaced: redraw the tape every pass and
        shift a copy of it, on a second fleet built the same way."""
        from repro.workloads.session import OpenLoopStats
        from repro.workloads.traffic import OpenLoopRequest, open_loop_requests

        twin = self.make_session()
        keys = sorted(twin.fleet.catalog.items)
        for n in range(passes):
            start_s = n * session.duration_s
            tape = open_loop_requests(session.regions, keys, session.duration_s, seed=session.seed)
            if start_s:
                tape = [
                    OpenLoopRequest(time_s=r.time_s + start_s, region=r.region, user_id=r.user_id, key=r.key)
                    for r in tape
                ]
            stats = OpenLoopStats()
            for req in tape:
                stats.observe(twin.fleet.serve(req.region, req.key, req.time_s))
            yield tape, stats.summary()

    def test_kept_tape_replays_exactly_what_a_redrawn_one_did(self, monkeypatch):
        from repro.workloads import session as session_module

        draws = []
        real = session_module.open_loop_requests
        monkeypatch.setattr(
            session_module, "open_loop_requests",
            lambda *args, **kwargs: draws.append(args) or real(*args, **kwargs),
        )
        session = self.make_session()
        for n, (tape, summary) in enumerate(self.reference_passes(session, 3)):
            assert session.tape(start_s=n * session.duration_s) == tape
            assert session.run().summary() == summary  # simulated seconds included
        assert len(draws) == 1

    def test_tape_hands_out_lists_the_caller_may_ruin(self):
        session = self.make_session()
        (tape, cold), (_, warm) = self.reference_passes(session, 2)
        first, second = session.tape(), session.tape()
        assert first == second == tape and first is not second
        first.clear()
        second.reverse()
        session.tape(start_s=session.duration_s).clear()
        assert session.run().summary() == cold
        session.tape().pop()
        assert session.run().summary() == warm
        assert session.tape() == tape

    def test_workload_definition_is_read_only(self):
        import pytest

        from repro.workloads.traffic import default_regions

        session = self.make_session()
        for name, value in (("seed", 6), ("regions", default_regions(2)), ("duration_s", 60.0)):
            with pytest.raises(AttributeError):
                setattr(session, name, value)
        with pytest.raises(AttributeError):
            session.regions.append(default_regions(1)[0])


class TestLatencyPercentile:
    def test_nearest_rank(self):
        from repro.workloads.session import latency_percentile

        values = [0.1, 0.2, 0.3, 0.4, 0.5]
        assert latency_percentile(values, 0.5) == 0.3
        assert latency_percentile(values, 0.0) == 0.1
        assert latency_percentile(values, 1.0) == 0.5
        assert latency_percentile([], 0.5) == 0.0

    def test_validation(self):
        import pytest

        from repro.workloads.session import latency_percentile

        with pytest.raises(ValueError):
            latency_percentile([1.0], 1.5)
