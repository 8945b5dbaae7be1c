"""Tests for the consistent-hash ring and bounded-load placement."""

import pytest

from repro.cdn.placement import DEFAULT_VNODES, HashRing, moved_share


def sample_keys(count: int) -> list[str]:
    return [f"digest-{i:05d}" for i in range(count)]


class TestRingBasics:
    def test_owner_is_deterministic_across_instances(self):
        a = HashRing(["edge-a", "edge-b", "edge-c"])
        b = HashRing(["edge-c", "edge-a", "edge-b"])  # insertion order irrelevant
        for key in sample_keys(200):
            assert a.owner(key) == b.owner(key)

    def test_membership(self):
        ring = HashRing(["edge-a"])
        assert "edge-a" in ring
        assert len(ring) == 1
        ring.add("edge-b")
        assert sorted(ring.nodes) == ["edge-a", "edge-b"]
        ring.remove("edge-a")
        assert "edge-a" not in ring

    def test_duplicate_add_and_missing_remove_raise(self):
        ring = HashRing(["edge-a"])
        with pytest.raises(ValueError):
            ring.add("edge-a")
        with pytest.raises(KeyError):
            ring.remove("edge-z")

    def test_empty_ring_lookup_raises(self):
        with pytest.raises(LookupError):
            HashRing().owner("key")

    def test_vnodes_validation(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)

    def test_preference_lists_distinct_nodes(self):
        ring = HashRing([f"edge-{i}" for i in range(5)])
        for key in sample_keys(50):
            walk = ring.preference(key, 5)
            assert len(walk) == 5
            assert len(set(walk)) == 5
            assert walk[0] == ring.owner(key)

    def test_preference_k_capped_at_node_count(self):
        ring = HashRing(["edge-a", "edge-b"])
        assert len(ring.preference("key", 10)) == 2

    def test_load_split_roughly_even(self):
        nodes = [f"edge-{i}" for i in range(8)]
        ring = HashRing(nodes, vnodes=DEFAULT_VNODES)
        counts = {n: 0 for n in nodes}
        keys = sample_keys(8000)
        for key in keys:
            counts[ring.owner(key)] += 1
        fair = len(keys) / len(nodes)
        for node, count in counts.items():
            # Virtual nodes keep the split within ~2x of fair share.
            assert 0.5 * fair < count < 2.0 * fair, (node, count)


class TestRebalancing:
    def test_adding_one_edge_moves_about_one_over_n(self):
        """The consistent-hashing contract the fleet benchmark gates."""
        keys = sample_keys(10_000)
        for n in (4, 16):
            before = HashRing([f"edge-{i:02d}" for i in range(n)])
            after = HashRing([f"edge-{i:02d}" for i in range(n + 1)])
            share = moved_share(before, after, keys)
            # Expect ~1/(n+1); gate at the benchmark's 2/n bound.
            assert 0 < share <= 2 / n
            # Keys that moved all moved TO the new node, never shuffled
            # between old nodes.
            new_node = f"edge-{n:02d}"
            for key in keys[:2000]:
                if before.owner(key) != after.owner(key):
                    assert after.owner(key) == new_node

    def test_moved_share_empty_keys(self):
        ring = HashRing(["edge-a"])
        assert moved_share(ring, ring, []) == 0.0


class TestBoundedLoad:
    def test_walks_past_saturated_owner(self):
        ring = HashRing(["edge-a", "edge-b", "edge-c"])
        key = "hot-key"
        owner = ring.owner(key)
        load = {owner: 10.0}
        spill = ring.owner_bounded(key, load, capacity=5.0)
        assert spill != owner
        assert spill == ring.preference(key, 3)[1]

    def test_under_capacity_stays_home(self):
        ring = HashRing(["edge-a", "edge-b", "edge-c"])
        assert ring.owner_bounded("k", {}, capacity=1.0) == ring.owner("k")

    def test_all_saturated_falls_back_to_least_loaded(self):
        ring = HashRing(["edge-a", "edge-b", "edge-c"])
        load = {"edge-a": 9.0, "edge-b": 7.0, "edge-c": 8.0}
        assert ring.owner_bounded("k", load, capacity=5.0) == "edge-b"


class TestWalkMemo:
    """The ring remembers each key's walk; nothing observable may change."""

    def test_long_lived_ring_matches_fresh_ring_through_churn(self):
        import random

        rng = random.Random(20)
        pool = [f"edge-{i:02d}" for i in range(8)]
        members = set(pool[:3])
        ring = HashRing(sorted(members), vnodes=16)
        keys = sample_keys(60)
        for _ in range(300):
            move = rng.random()
            if move < 0.1 and len(members) < len(pool):
                node = rng.choice(sorted(set(pool) - members))
                members.add(node)
                ring.add(node)
            elif move < 0.2 and len(members) > 1:
                node = rng.choice(sorted(members))
                members.discard(node)
                ring.remove(node)
            key = rng.choice(keys)
            fresh = HashRing(sorted(members), vnodes=16)
            for k in range(len(pool) + 2):
                assert ring.preference(key, k) == fresh.preference(key, k)
            assert ring.preference(key, 1) == [ring.owner(key)]
            assert ring.owner(key) == fresh.owner(key)
            load = {node: rng.uniform(0.0, 10.0) for node in members}
            for capacity in (0.0, 5.0, 20.0):
                assert ring.owner_bounded(key, load, capacity) == fresh.owner_bounded(key, load, capacity)

    def test_repeat_lookup_hashes_nothing(self, monkeypatch):
        from repro.cdn import placement

        ring = HashRing(["edge-a", "edge-b", "edge-c"])
        first = (ring.owner("key"), ring.preference("key", 3), ring.owner_bounded("key", {}, 1.0))
        calls = []
        monkeypatch.setattr(placement, "stable_u64", lambda *parts: calls.append(parts))
        assert (ring.owner("key"), ring.preference("key", 3), ring.owner_bounded("key", {}, 1.0)) == first
        assert calls == []

    def test_membership_change_forgets_every_walk(self, monkeypatch):
        from repro.cdn import placement

        ring = HashRing(["edge-a", "edge-b"])
        ring.owner("key")
        real, calls = placement.stable_u64, []
        monkeypatch.setattr(placement, "stable_u64", lambda *parts: calls.append(parts) or real(*parts))
        ring.add("edge-c")
        calls.clear()
        ring.owner("key")
        ring.remove("edge-c")
        ring.owner("key")
        assert calls == [("ring-key", "key")] * 2

    def test_memo_stays_bounded_over_many_distinct_keys(self):
        from repro.cdn.placement import _WALK_MEMO_KEYS

        ring = HashRing(["edge-a", "edge-b", "edge-c"], vnodes=8)
        for i in range(100_000):
            ring.owner(f"digest-{i}")
            assert len(ring._walks) <= _WALK_MEMO_KEYS
        assert ring.owner("digest-0") == HashRing(["edge-a", "edge-b", "edge-c"], vnodes=8).owner("digest-0")

    def test_returned_list_is_the_callers_to_mutate(self):
        ring = HashRing(["edge-a", "edge-b", "edge-c"])
        walk = ring.preference("key", 3)
        expected = list(walk)
        walk.reverse()
        walk.append("edge-z")
        assert ring.preference("key", 3) == expected
        assert ring.owner("key") == expected[0]
