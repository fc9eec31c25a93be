"""The metrics registry: sharded counters, histograms, exposition."""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounters:
    def test_counts_and_reads(self):
        registry = MetricsRegistry("t")
        counter = registry.counter("events_total", "Events")
        assert counter.value() == 0
        counter.inc()
        counter.inc(41)
        assert counter.value() == 42

    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry("t")
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_label_sets_are_distinct_instruments(self):
        registry = MetricsRegistry("t")
        passed = registry.counter("verdicts_total", verdict="pass")
        failed = registry.counter("verdicts_total", verdict="fail")
        assert passed is not failed
        passed.inc(3)
        failed.inc(1)
        assert passed.value() == 3
        assert failed.value() == 1
        # Label order does not mint a new identity.
        assert registry.counter("multi", a="1", b="2") is registry.counter("multi", b="2", a="1")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry("t")
        registry.counter("thing")
        with pytest.raises(TypeError):
            registry.gauge("thing")
        with pytest.raises(TypeError):
            registry.histogram("thing")

    def test_merge_under_threads_is_exact(self):
        """The lock-free write path must never lose an increment."""
        registry = MetricsRegistry("t")
        counter = registry.counter("hammered_total")
        threads, per_thread = 8, 5000

        def hammer():
            for _ in range(per_thread):
                counter.inc()

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert counter.value() == threads * per_thread

    def test_finished_thread_contributions_are_kept(self):
        counter = Counter("kept_total", "", ())
        worker = threading.Thread(target=lambda: counter.inc(7))
        worker.start()
        worker.join()
        counter.inc(1)
        assert counter.value() == 8


class TestGauges:
    def test_set_inc_dec(self):
        gauge = Gauge("depth", "", ())
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value() == 12

    def test_callback_backed(self):
        registry = MetricsRegistry("t")
        items = [1, 2, 3]
        gauge = registry.gauge("size", callback=lambda: len(items))
        assert gauge.value() == 3
        items.append(4)
        assert gauge.value() == 4


class TestHistograms:
    def test_boundary_values_land_in_the_le_bucket(self):
        """Prometheus ``le`` semantics: a bound belongs to its own bucket."""
        histogram = Histogram("h", "", (), buckets=(1.0, 2.0))
        histogram.observe(1.0)  # exactly on the first bound
        histogram.observe(2.0)  # exactly on the second
        histogram.observe(0.5)
        histogram.observe(9.0)  # overflow
        snap = histogram.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(12.5)
        # Cumulative: le=1.0 covers {0.5, 1.0}; le=2.0 adds {2.0}; +Inf all.
        assert snap["buckets"] == {"1.0": 2, "2.0": 3, "+Inf": 4}

    def test_buckets_are_sorted_and_required(self):
        histogram = Histogram("h", "", (), buckets=(5.0, 1.0))
        assert histogram.bounds == (1.0, 5.0)
        with pytest.raises(ValueError):
            Histogram("h", "", (), buckets=())

    def test_thread_merge_is_exact(self):
        histogram = Histogram("h", "", (), buckets=(10.0,))
        threads, per_thread = 4, 2000

        def hammer():
            for i in range(per_thread):
                histogram.observe(i % 20)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        snap = histogram.snapshot()
        assert snap["count"] == threads * per_thread
        assert snap["buckets"]["+Inf"] == threads * per_thread


class TestExposition:
    def test_to_dict_renders_labels_and_expands_histograms(self):
        registry = MetricsRegistry("t")
        registry.counter("a_total", verdict="pass").inc(2)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        data = registry.to_dict()
        assert data['a_total{verdict="pass"}'] == 2
        assert data["lat"]["count"] == 1

    def test_render_text_is_prometheus_shaped(self):
        registry = MetricsRegistry("t")
        registry.counter("a_total", "What a counts", verdict="pass").inc(2)
        registry.counter("a_total", verdict="fail").inc(1)
        registry.gauge("depth").set(3)
        registry.histogram("lat", "Latency", buckets=(0.1, 1.0)).observe(0.05)
        text = registry.render_text()
        lines = text.splitlines()
        assert "# HELP a_total What a counts" in lines
        assert "# TYPE a_total counter" in lines
        # One HELP/TYPE header per metric name, not per label set.
        assert sum(1 for line in lines if line == "# TYPE a_total counter") == 1
        assert 'a_total{verdict="fail"} 1' in lines
        assert 'a_total{verdict="pass"} 2' in lines
        assert "depth 3" in lines
        assert 'lat_bucket{le="0.1"} 1' in lines
        assert 'lat_bucket{le="+Inf"} 1' in lines
        assert "lat_count 1" in lines
        assert text.endswith("\n")

    def test_help_text_survives_helpless_get(self):
        registry = MetricsRegistry("t")
        registry.counter("a_total", "Documented once")
        registry.counter("a_total")  # later get-or-create without help
        assert "# HELP a_total Documented once" in registry.render_text()
