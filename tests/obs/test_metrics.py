"""MetricsRegistry semantics: instruments, merges, snapshots, exposition.

The one ``publish`` rule the serving counter records share
(``repro.serve.stats.Counters``) is exercised where those records live, in
``tests/serve/test_observability.py``; this module pins the registry
primitives — instrument identity, exact fixed-bucket merges, the
snapshot/delta idiom, and the text exposition format.
"""

from __future__ import annotations

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_accumulates_and_rejects_negatives(self):
        counter = Counter("requests")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_is_last_write_wins(self):
        gauge = Gauge("free_blocks")
        gauge.set(10)
        gauge.set(3)
        assert gauge.value == 3

    def test_histogram_bins_against_upper_bounds(self):
        hist = Histogram("ttft", (1.0, 2.0, 5.0))
        for sample in (0.5, 1.0, 1.5, 3.0, 100.0):
            hist.observe(sample)
        # 0.5 and 1.0 land in <=1; 1.5 in <=2; 3.0 in <=5; 100 overflows.
        assert hist.counts == [2, 1, 1, 1]
        assert hist.total == 5
        assert hist.sum == pytest.approx(106.0)

    def test_histogram_bounds_must_be_increasing_and_nonempty(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("empty", ())
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("bad", (1.0, 1.0, 2.0))

    def test_histogram_quantile_reports_bucket_bounds(self):
        hist = Histogram("ttft", (1.0, 2.0, 5.0))
        assert hist.quantile(0.5) == 0.0  # empty
        for sample in (0.5, 1.5, 3.0, 4.0, 100.0):
            hist.observe(sample)
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(0.2) == 1.0
        assert hist.quantile(0.4) == 2.0
        assert hist.quantile(0.8) == 5.0
        assert hist.quantile(1.0) == float("inf")  # overflow bucket
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_histogram_merge_requires_identical_bounds(self):
        left = Histogram("ttft", (1.0, 2.0))
        right = Histogram("ttft", (1.0, 2.0))
        left.observe(0.5)
        right.observe(1.5)
        right.observe(9.0)
        left.merge(right)
        assert left.counts == [1, 1, 1]
        assert left.total == 3
        mismatched = Histogram("ttft", (1.0, 3.0))
        with pytest.raises(ValueError, match="bucket bounds differ"):
            left.merge(mismatched)


class TestRegistry:
    def test_instruments_are_identified_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        hist = registry.histogram("h", (1.0, 2.0))
        assert registry.histogram("h") is hist

    def test_name_collisions_across_kinds_fail(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_histogram_needs_bounds_on_creation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="does not exist"):
            registry.histogram("h")
        registry.histogram("h", (1.0,))
        with pytest.raises(ValueError, match="different bucket bounds"):
            registry.histogram("h", (2.0,))

    def test_snapshot_and_delta(self):
        registry = MetricsRegistry()
        registry.counter("served").inc(3)
        registry.histogram("ttft", (1.0, 4.0)).observe(2.0)
        before = registry.snapshot()
        assert before["served"] == 3
        assert before["ttft_count"] == 1
        assert before["ttft_bucket_le_1"] == 0
        assert before["ttft_bucket_le_4"] == 1
        assert before["ttft_bucket_le_inf"] == 1
        registry.counter("served").inc(2)
        registry.counter("born_mid_phase").inc()  # absent from `before`
        delta = registry.delta(before)
        assert delta["served"] == 2
        assert delta["born_mid_phase"] == 1
        assert delta["ttft_count"] == 0

    def test_merge_folds_per_replica_registries(self):
        pool = MetricsRegistry()
        pool.counter("served").inc(1)
        pool.histogram("ttft", (1.0, 2.0)).observe(0.5)
        replica = MetricsRegistry()
        replica.counter("served").inc(4)
        replica.gauge("free").set(7)
        replica.histogram("ttft", (1.0, 2.0)).observe(1.5)
        pool.merge(replica)
        snap = pool.snapshot()
        assert snap["served"] == 5
        assert snap["free"] == 7
        assert snap["ttft_count"] == 2

    def test_render_text_is_sorted_and_prometheus_shaped(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc(2)
        registry.counter("alpha").inc(1)
        registry.gauge("level").set(3)
        registry.histogram("ttft", (1.0,)).observe(0.5)
        text = registry.render_text()
        assert text.index("alpha") < text.index("zeta")
        assert "# TYPE alpha counter" in text
        assert "# TYPE level gauge" in text
        assert '# TYPE ttft histogram' in text
        assert 'ttft_bucket{le="1"} 1' in text
        assert 'ttft_bucket{le="+Inf"} 1' in text
        assert "ttft_count 1" in text
        assert MetricsRegistry().render_text() == ""
