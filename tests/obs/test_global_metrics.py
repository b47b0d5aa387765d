"""The unified registry: get-or-create semantics and engine-stat folding.

The global registry is process-wide, so registration must be idempotent
— two ``AnalysisService`` instances (or a service next to a CLI engine)
asking for ``repro_engine_cache_total`` must share one counter, while a
conflicting re-registration (same name, different shape) must fail
loudly instead of silently splitting the series.
"""

from types import SimpleNamespace

import pytest

from repro.obs.metrics import (
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    record_engine_stats,
)


def _stats(**overrides):
    base = dict(
        route="dp",
        cache="miss",
        faults_evaluated=100,
        lanes=0,
        cache_evictions=0,
        elapsed_seconds=0.25,
    )
    base.update(overrides)
    return SimpleNamespace(**base)


class TestGetOrCreate:
    def test_same_shape_returns_the_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help", ("a",))
        second = registry.counter("x_total", "other help", ("a",))
        assert first is second

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "help")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "help")

    def test_label_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "help", ("a",))
        with pytest.raises(ValueError):
            registry.counter("x_total", "help", ("a", "b"))

    def test_histogram_dedupes_on_name_not_buckets(self):
        registry = MetricsRegistry()
        first = registry.histogram("h_seconds", "help", buckets=(1, 2))
        second = registry.histogram("h_seconds", "help", buckets=(5, 6))
        assert first is second
        assert isinstance(first, Histogram)

    def test_gauge_get_or_create(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "help")
        assert registry.gauge("g", "help") is gauge
        assert isinstance(gauge, Gauge)

    def test_global_registry_is_a_singleton(self):
        assert global_registry() is global_registry()
        assert isinstance(global_registry(), MetricsRegistry)


class TestRecordEngineStats:
    def test_miss_counts_reports_faults_and_latency(self):
        registry = MetricsRegistry()
        record_engine_stats(_stats(), registry=registry)
        assert (
            registry.get("repro_engine_reports_total").value(route="dp")
            == 1
        )
        assert (
            registry.get("repro_engine_cache_total").value(outcome="miss")
            == 1
        )
        assert registry.get("repro_engine_faults_total").value() == 100
        histogram = registry.get("repro_engine_report_seconds")
        assert histogram.count(cache="miss") == 1
        assert histogram.sum(cache="miss") == pytest.approx(0.25)

    def test_hit_skips_fault_throughput(self):
        registry = MetricsRegistry()
        record_engine_stats(_stats(cache="hit"), registry=registry)
        assert (
            registry.get("repro_engine_cache_total").value(outcome="hit")
            == 1
        )
        assert registry.get("repro_engine_faults_total") is None

    def test_lanes_and_evictions_recorded_when_present(self):
        registry = MetricsRegistry()
        record_engine_stats(
            _stats(lanes=640, cache_evictions=3), registry=registry
        )
        assert registry.get("repro_engine_lanes_total").value() == 640
        assert (
            registry.get("repro_engine_cache_evictions_total").value() == 3
        )

    def test_accumulates_across_calls(self):
        registry = MetricsRegistry()
        for _ in range(3):
            record_engine_stats(_stats(faults_evaluated=10), registry=registry)
        assert registry.get("repro_engine_faults_total").value() == 30

    def test_render_exposes_prometheus_text(self):
        registry = MetricsRegistry()
        record_engine_stats(_stats(), registry=registry)
        text = registry.render()
        assert '# TYPE repro_engine_cache_total counter' in text
        assert 'repro_engine_cache_total{outcome="miss"} 1' in text
