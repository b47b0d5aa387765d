"""Prometheus text-format rendering of the stdlib metrics registry."""

import math
import threading

import pytest

from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


def test_counter_renders_help_type_and_value(registry):
    counter = registry.counter("jobs_total", "Jobs.", ("kind",))
    counter.inc(kind="analyze")
    counter.inc(2, kind="analyze")
    counter.inc(kind="harden")
    text = registry.render()
    assert "# HELP jobs_total Jobs." in text
    assert "# TYPE jobs_total counter" in text
    assert 'jobs_total{kind="analyze"} 3' in text
    assert 'jobs_total{kind="harden"} 1' in text


def test_counter_rejects_decrease_and_wrong_labels(registry):
    counter = registry.counter("c", "c.", ("kind",))
    with pytest.raises(ValueError):
        counter.inc(-1, kind="x")
    with pytest.raises(ValueError):
        counter.inc(other="x")
    with pytest.raises(ValueError):
        counter.inc()


def test_unlabelled_counter_renders_zero_before_first_inc(registry):
    registry.counter("requests_total", "Requests.")
    assert "requests_total 0" in registry.render()


def test_gauge_set_inc_dec(registry):
    gauge = registry.gauge("depth", "Depth.")
    gauge.set(5)
    gauge.inc()
    gauge.dec(2)
    assert gauge.value() == 4
    assert "depth 4" in registry.render()


def test_histogram_cumulative_buckets_sum_count(registry):
    histogram = registry.histogram("lat", "Latency.", buckets=(0.1, 1, 10))
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        histogram.observe(value)
    text = registry.render()
    assert 'lat_bucket{le="0.1"} 1' in text
    assert 'lat_bucket{le="1"} 3' in text
    assert 'lat_bucket{le="10"} 4' in text
    assert 'lat_bucket{le="+Inf"} 5' in text
    assert "lat_count 5" in text
    assert histogram.count() == 5
    assert histogram.sum() == pytest.approx(56.05)


def test_histogram_labels_and_inf_bucket_appended(registry):
    histogram = registry.histogram(
        "h", "H.", ("path",), buckets=(1.0,)
    )
    assert histogram.buckets[-1] == math.inf
    histogram.observe(0.5, path="/jobs")
    text = registry.render()
    assert 'h_bucket{path="/jobs", le="1"} 1' in text
    assert 'h_sum{path="/jobs"}' in text


def test_duplicate_metric_name_rejected(registry):
    registry.counter("dup", "d.")
    with pytest.raises(ValueError):
        registry.gauge("dup", "d.")


def test_label_value_escaping(registry):
    counter = registry.counter("e", "e.", ("path",))
    counter.inc(path='weird"path\nwith\\stuff')
    line = [
        line for line in registry.render().splitlines()
        if line.startswith("e{")
    ][0]
    assert '\\"' in line and "\\n" in line and "\\\\" in line


def test_concurrent_increments_are_not_lost(registry):
    counter = registry.counter("n", "n.")
    histogram = registry.histogram("nh", "nh.", buckets=(1,))

    def spin():
        for _ in range(1000):
            counter.inc()
            histogram.observe(0.5)

    threads = [threading.Thread(target=spin) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counter.value() == 8000
    assert histogram.count() == 8000
