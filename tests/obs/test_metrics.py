"""Unit tests for the metrics registry."""

import threading

import pytest

from repro.obs import NULL_REGISTRY, MetricsRegistry, NullRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", layer="sww")
        assert c.value == 0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("x_total").inc(-1)

    def test_same_labels_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", layer="sww", operation="hit")
        b = reg.counter("x_total", operation="hit", layer="sww")  # order-insensitive
        assert a is b

    def test_distinct_labels_distinct_instruments(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", operation="hit")
        b = reg.counter("x_total", operation="miss")
        assert a is not b
        a.inc(3)
        assert b.value == 0


class TestGauge:
    def test_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(7)
        g.inc(-2)
        g.dec(1)
        assert g.value == 4


class TestHistogram:
    def test_observations_and_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(55.55)
        cumulative = dict(h.cumulative_counts())
        assert cumulative[0.1] == 1
        assert cumulative[1.0] == 2
        assert cumulative[10.0] == 3
        assert cumulative[float("inf")] == 4

    def test_value_is_sum(self):
        reg = MetricsRegistry()
        h = reg.histogram("t_seconds")
        h.observe(2.0)
        h.observe(3.0)
        assert h.value == pytest.approx(5.0)


class TestRegistry:
    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("thing_total")
        with pytest.raises(ValueError):
            reg.gauge("thing_total")

    def test_value_and_total_and_count(self):
        reg = MetricsRegistry()
        reg.counter("x_total", operation="a").inc(2)
        reg.counter("x_total", operation="b").inc(3)
        assert reg.value("x_total", operation="a") == 2
        assert reg.total("x_total") == 5
        reg.histogram("h_seconds", operation="a").observe(1.5)
        reg.histogram("h_seconds", operation="b").observe(2.5)
        assert reg.count("h_seconds") == 2
        assert reg.total("h_seconds") == pytest.approx(4.0)

    def test_value_of_missing_metric_is_zero(self):
        reg = MetricsRegistry()
        assert reg.value("never_recorded") == 0.0

    def test_collect_is_sorted_and_complete(self):
        reg = MetricsRegistry()
        reg.counter("z_total").inc()
        reg.gauge("a_depth").set(1)
        names = [name for name, _kind, _help, _instruments in reg.collect()]
        assert names == sorted(names)
        assert set(names) == {"a_depth", "z_total"}

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("x_total").inc()
        assert len(reg)
        reg.reset()
        assert len(reg) == 0

    def test_thread_safety_of_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total")

        def work():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000


class TestLookupMemo:
    """A repeat lookup is answered from a memo keyed on how the call site
    spelled it; the memo may never change *which* instrument comes back."""

    def test_warm_lookup_builds_no_label_key(self, monkeypatch):
        import repro.obs.metrics as metrics

        reg = MetricsRegistry()
        cold = [
            reg.counter("hits_total", "Hits", layer="sww", operation="hit"),
            reg.gauge("depth", "Depth", layer="http2"),
            reg.histogram("seconds", "Seconds", buckets=(0.1, 1.0), layer="sww"),
        ]
        sorts = []
        original = metrics._label_key
        monkeypatch.setattr(metrics, "_label_key", lambda labels: sorts.append(labels) or original(labels))
        warm = [
            reg.counter("hits_total", "Hits", layer="sww", operation="hit"),
            reg.gauge("depth", "Depth", layer="http2"),
            reg.histogram("seconds", "Seconds", buckets=(0.1, 1.0), layer="sww"),
        ]
        assert all(a is b for a, b in zip(cold, warm))
        assert sorts == []
        # A new spelling of a known instrument is a miss, and finds the same one.
        assert reg.counter("hits_total", "Hits", operation="hit", layer="sww") is cold[0]
        assert len(sorts) == 1

    def test_keyword_order_does_not_split_an_instrument(self):
        reg = MetricsRegistry()
        for _ in range(3):  # cold, then both spellings warm
            a = reg.counter("x_total", layer="sww", operation="hit")
            b = reg.counter("x_total", operation="hit", layer="sww")
            assert a is b
        assert len(reg) == 1

    def test_kind_clash_still_raises_after_the_name_was_memoised(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.histogram("x")

    def test_later_help_still_back_fills(self):
        reg = MetricsRegistry()
        bare = reg.counter("x_total", layer="sww")
        assert reg.counter("x_total", layer="sww") is bare
        assert reg.counter("x_total", "What x counts", layer="sww") is bare
        assert [help for _name, _kind, help, _members in reg.collect()] == ["What x counts"]

    def test_reset_forgets_memoised_instruments(self):
        reg = MetricsRegistry()
        before = reg.counter("x_total", layer="sww")
        reg.counter("x_total", layer="sww").inc(5)
        reg.reset()
        after = reg.counter("x_total", layer="sww")
        assert after is not before
        assert after.value == 0
        assert reg.value("x_total", layer="sww") == 0
        assert reg.counter("x_total", layer="sww") is after

    def test_label_values_of_equal_str_share_one_instrument(self):
        reg = MetricsRegistry()
        for _ in range(2):
            assert reg.counter("x_total", stream=7) is reg.counter("x_total", stream="7")
        assert len(reg) == 1

    def test_equal_hashing_values_of_different_str_stay_apart(self):
        reg = MetricsRegistry()
        for _ in range(2):
            labelled = {reg.counter("x_total", flag=value).labels for value in (1, 1.0, True)}
            assert labelled == {(("flag", "1"),), (("flag", "1.0"),), (("flag", "True"),)}

    def test_unhashable_label_value_and_bucket_list_still_work(self):
        reg = MetricsRegistry()
        for _ in range(2):
            assert reg.counter("x_total", shape=[1, 2]).labels == (("shape", "[1, 2]"),)
            assert reg.histogram("seconds", buckets=[0.1, 1.0]).buckets == (0.1, 1.0)
        assert len(reg) == 2

    def test_racing_get_or_create_ends_with_one_instrument_per_name(self):
        import sys

        reg = MetricsRegistry()
        names = [f"metric_{i}_total" for i in range(1000)]
        workers = 8
        barrier = threading.Barrier(workers)

        def work():
            barrier.wait(timeout=10)
            for name in names:
                reg.counter(name, "Racing", layer="obs", operation="race").inc()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(reg) == len(names)
        assert all(reg.value(n, layer="obs", operation="race") == workers for n in names)

    def test_read_side_is_unchanged_by_warm_lookups(self):
        def drive(reg, rounds):
            for _ in range(rounds):
                reg.counter("hits_total", "Hits", layer="sww", operation="hit").inc()
                reg.counter("hits_total", "Hits", operation="miss", layer="sww").inc(2)
                reg.gauge("depth", layer="http2").set(3)
                reg.histogram("seconds", "Seconds", layer="sww").observe(0.2)

        from repro.obs import to_openmetrics

        reg = MetricsRegistry()
        drive(reg, 5)
        once = [MetricsRegistry() for _ in range(5)]
        for fresh in once:
            drive(fresh, 1)  # every lookup cold
        assert reg.value("hits_total", layer="sww", operation="hit") == 5
        assert reg.total("hits_total") == 15 == sum(r.total("hits_total") for r in once)
        assert reg.count("seconds") == 5
        assert [(n, k, h, [i.labels for i in m]) for n, k, h, m in reg.collect()] == [
            (n, k, h, [i.labels for i in m]) for n, k, h, m in once[0].collect()
        ]
        snap = reg.snapshot()
        assert to_openmetrics(snap) == to_openmetrics(reg)
        snap.counter("hits_total", "Hits", layer="sww", operation="hit").inc()
        assert reg.value("hits_total", layer="sww", operation="hit") == 5

    def test_null_registry_memoises_nothing(self):
        null = NullRegistry()
        assert null.counter("x", layer="sww") is null.histogram("y", layer="sww")
        assert len(null) == 0 and null._memo == {}


class TestNullRegistry:
    def test_disabled_flag(self):
        assert NULL_REGISTRY.enabled is False
        assert MetricsRegistry().enabled is True

    def test_accumulates_nothing(self):
        reg = NullRegistry()
        reg.counter("x_total", layer="sww").inc(5)
        reg.gauge("g").set(3)
        reg.histogram("h_seconds").observe(1.0)
        assert len(reg) == 0
        assert list(reg.collect()) == []
        assert reg.value("x_total", layer="sww") == 0.0
        assert reg.total("x_total") == 0.0

    def test_shared_instrument_singleton(self):
        reg = NullRegistry()
        assert reg.counter("a_total") is reg.histogram("b_seconds")


class TestSnapshotAtomicity:
    def test_instrument_snapshots_are_detached(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total")
        h = reg.histogram("h_seconds")
        c.inc(3)
        h.observe(1.0)
        snap = reg.snapshot()
        c.inc(10)
        h.observe(2.0)
        assert snap.value("x_total") == 3.0
        assert snap.count("h_seconds") == 1
        assert reg.value("x_total") == 13.0

    def test_snapshot_preserves_families_and_exemplars(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "help text").inc()
        reg.histogram("h_seconds").observe(0.5, trace_id="abc123")
        snap = reg.snapshot()
        families = {name: (kind, help) for name, kind, help, _ in snap.collect()}
        assert families["x_total"] == ("counter", "help text")
        (inst,) = [i for _, k, _, insts in snap.collect() if k == "histogram" for i in insts]
        assert inst.exemplars()[0][1] == "abc123"

    def test_exposition_is_atomic_under_concurrent_mutation(self):
        """Satellite: concurrent observes never tear an exported histogram.

        Observing the constant 1.0 makes sum == count exact in floats, so
        any exposition where the +Inf cumulative bucket, the _count sample
        and the _sum sample disagree is a torn (non-atomic) read.
        """
        from repro.obs import to_openmetrics

        reg = MetricsRegistry()
        h = reg.histogram("sww_stress_seconds", layer="sww", operation="stress")
        stop = threading.Event()

        def mutate():
            while not stop.is_set():
                h.observe(1.0)

        threads = [threading.Thread(target=mutate) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(50):
                text = to_openmetrics(reg)
                inf_bucket = total = observed_sum = None
                for line in text.splitlines():
                    if line.startswith("sww_stress_seconds_bucket") and 'le="+Inf"' in line:
                        inf_bucket = int(line.rsplit(" ", 1)[1])
                    elif line.startswith("sww_stress_seconds_count"):
                        total = int(line.rsplit(" ", 1)[1])
                    elif line.startswith("sww_stress_seconds_sum"):
                        observed_sum = float(line.rsplit(" ", 1)[1])
                assert inf_bucket is not None and total is not None
                assert inf_bucket == total, "bucket cumulative tore from count"
                assert observed_sum == float(total), "sum tore from count"
        finally:
            stop.set()
            for t in threads:
                t.join()

    def test_registry_snapshot_consistent_while_instruments_register(self):
        reg = MetricsRegistry()
        stop = threading.Event()

        def register():
            i = 0
            while not stop.is_set():
                reg.counter("x_churn_total", layer="t", operation=str(i % 50)).inc()
                i += 1

        thread = threading.Thread(target=register)
        thread.start()
        try:
            for _ in range(100):
                snap = reg.snapshot()
                # Every instrument in the copy is detached and readable.
                for _name, _kind, _help, insts in snap.collect():
                    for inst in insts:
                        assert inst.value >= 0
        finally:
            stop.set()
            thread.join()
