"""End-to-end telemetry acceptance over a sharded service.

Covers the ISSUE acceptance criteria: under load ``/metrics/history``
returns >= 2 samples of ``repro_shard_queue_depth``; a traced ``/damage``
shows up in ``/logs?trace_id=`` including records shipped home from the
shard worker's pid; ``POST /profile`` against a shard fingerprint runs
inside the worker and names the worker's damage-solve frame; campaign job status
carries RSS/CPU resource deltas; and ``/metrics`` stays scrapeable
concurrently with a running campaign job.
"""

import contextlib
import threading
import time

import pytest

from repro.analysis.faults import iter_all_faults
from repro.bench import build_design
from repro.obs.trace import current_context, enable_tracing, root_span
from repro.service import AnalysisService


@pytest.fixture(scope="module")
def service():
    enable_tracing()
    svc = AnalysisService(
        no_cache=True,
        workers=1,
        shard_workers=2,
        history_interval=0.05,
        history_window=200,
        tracing=True,
    )
    yield svc
    svc.close(drain=False, timeout=10.0)


@pytest.fixture(scope="module")
def fingerprint(client):
    return client.upload_network(design="TreeFlat")["fingerprint"]


@pytest.fixture(scope="module")
def faults():
    return list(iter_all_faults(build_design("TreeFlat")))[:16]


@contextlib.contextmanager
def _hammer(client, fingerprint, faults):
    stop = threading.Event()

    def hammer():
        while not stop.is_set():
            client.damage(fingerprint, faults)

    thread = threading.Thread(target=hammer, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=30.0)


@pytest.fixture
def load(client, fingerprint, faults):
    """Background /damage traffic for the duration of a test."""
    with _hammer(client, fingerprint, faults):
        yield


@pytest.fixture
def solve_bound_load(client, fingerprint, faults):
    """/damage traffic whose every request keeps the worker inside its
    solve for many milliseconds.  A sampling profiler can only preempt
    pure-Python work (the DP route) at the interpreter's switch
    interval, so short solves would rarely show up in its stacks."""
    with _hammer(client, fingerprint, faults * 400):
        yield


def test_traced_damage_appears_in_logs(client, fingerprint, faults):
    with root_span("telemetry.test"):
        trace_id = current_context().trace_id
        damages = client.damage(fingerprint, faults)
    assert len(damages) == len(faults)
    deadline = time.monotonic() + 10.0
    records = []
    while time.monotonic() < deadline:
        payload = client.logs(trace_id=trace_id)
        records = payload["records"]
        if any(r["logger"] == "worker" for r in records):
            break
        time.sleep(0.05)
    assert records, "no log records for the traced request"
    assert all(r["trace_id"] == trace_id for r in records)
    # the front-end request log line is correlated ...
    assert any(r["message"] == "request" for r in records)
    # ... and so are records shipped home from the shard worker's pid
    worker_records = [r for r in records if r["logger"] == "worker"]
    assert worker_records
    assert any(r["pid"] != records[0]["pid"] for r in worker_records) or (
        worker_records[0]["pid"] != 0
    )
    assert "dropped" in payload and "retained" in payload


def test_logs_level_filter(client, fingerprint, faults):
    client.damage(fingerprint, faults)
    debug_and_up = client.logs(level="debug")["records"]
    errors_only = client.logs(level="error")["records"]
    assert len(debug_and_up) >= len(errors_only)
    assert all(r["level"] >= 40 for r in errors_only)


def test_history_collects_shard_queue_depth_under_load(client, load):
    deadline = time.monotonic() + 20.0
    series = []
    while time.monotonic() < deadline:
        payload = client.metrics_history(name="repro_shard_queue_depth")
        series = [
            s for s in payload["series"] if len(s["points"]) >= 2
        ]
        if series:
            break
        time.sleep(0.1)
    assert series, "no repro_shard_queue_depth series with >= 2 samples"
    assert payload["samples"] >= 2
    assert payload["running"] is True


def test_history_exposes_process_resource_series(client):
    names = {s["name"] for s in client.metrics_history()["series"]}
    assert "repro_process_rss_bytes" in names
    assert "repro_process_cpu_seconds_total" in names
    assert "repro_lane_bytes_total" in names


def test_history_points_cap(client):
    payload = client.metrics_history(points=1)
    assert payload["series"]
    assert all(len(s["points"]) <= 1 for s in payload["series"])


def test_profile_runs_inside_shard_worker(
    client, fingerprint, solve_bound_load
):
    profile = client.profile(seconds=0.6, fingerprint=fingerprint)
    assert profile["target"] == "worker"
    assert profile["samples"] > 0
    assert profile["folded"]
    solve_stacks = [s for s in profile["folded"] if "workers.py:_solve" in s]
    assert solve_stacks, sorted(profile["folded"])[:5]
    assert "frame" in profile["top"]


def test_profile_defaults_to_frontend_process(client):
    profile = client.profile(seconds=0.2)
    assert profile["target"] == "service"
    assert profile["samples"] > 0
    assert profile["pid"] != 0


def test_profile_rejects_bad_parameters(client):
    from repro.service.client import ServiceClientError

    with pytest.raises(ServiceClientError):
        client.profile(seconds=-1.0)
    with pytest.raises(ServiceClientError):
        client.profile(seconds=0.1, interval=0.0)


def test_dashboard_is_self_contained_html(client):
    html = client.dashboard()
    assert "<!doctype html" in html.lower()
    assert "/metrics/history" in html
    assert "/logs" in html
    # self-contained: no external scripts, styles or CDNs
    lowered = html.lower()
    assert "src=\"http" not in lowered
    assert "href=\"http" not in lowered
    assert "cdn." not in lowered


def test_campaign_job_status_reports_resources(client, fingerprint):
    job = client.submit(
        kind="campaign",
        fingerprint=fingerprint,
        campaign={"kind": "kfault", "k": 1},
    )
    # /metrics stays scrapeable while the campaign runs
    scrapes = 0
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        text = client.metrics()
        assert "repro_jobs_total" in text
        scrapes += 1
        status = client.job(job["id"])
        if status["status"] in ("succeeded", "failed"):
            break
        time.sleep(0.05)
    assert scrapes >= 2
    assert status["status"] == "succeeded", status
    resources = status.get("resources")
    assert resources, status
    assert resources["cpu_seconds"] >= 0.0
    assert "rss_delta_bytes" in resources
    assert resources["wall_seconds"] > 0.0
    assert "lane_mb" in resources
    # the campaign result itself carries the block-level merge
    result_resources = status["result"].get("resources")
    assert result_resources and "cpu_seconds" in result_resources


def test_job_resource_metrics_accumulate(client, fingerprint):
    text = client.metrics()
    assert "repro_job_cpu_seconds_total" in text
    assert "repro_job_lane_mb_total" in text
