"""End-to-end HTTP acceptance tests for the batching analysis server.

Covers the ISSUE acceptance criteria: HTTP damage results bit-identical
to direct :class:`GraphDamageAnalysis` for single and >=128 concurrent
coalesced requests (occupancy > 1 in ``/metrics``), repeated analyze as
an engine cache hit observable via job stats, and ``/healthz`` +
``/metrics`` answering while a long job is in flight.
"""

import itertools
import threading
import time

import pytest

from repro.analysis import GraphDamageAnalysis
from repro.analysis.faults import iter_all_faults
from repro.bench import build_design
from repro.ir import intern
from repro.rsn import icl
from repro.rsn.ast import decl_to_dict
from repro.bench.designs import get_design
from repro.service import AnalysisService
from repro.service.client import ServiceClientError
from repro.spec import spec_for_network


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    svc = AnalysisService(
        cache_dir=str(tmp_path_factory.mktemp("service-cache")),
        workers=2,
    )
    yield svc
    svc.close(drain=False, timeout=10.0)


@pytest.fixture(scope="module")
def fingerprint(client):
    entry = client.upload_network(design="TreeFlat")
    return entry["fingerprint"]


def _metric_value(metrics_text, name):
    for line in metrics_text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[-1])
    raise AssertionError(f"metric {name} not found")


def test_healthz_reports_versions(client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["version"]
    assert health["analysis_version"]
    assert "queue_depth" in health


def test_upload_dedupes_across_source_formats(client, fingerprint):
    decl = get_design("TreeFlat").generate()
    via_icl = client.upload_network(icl=icl.dumps(decl))
    via_json = client.upload_network(network_json=decl_to_dict(decl))
    expected = intern(build_design("TreeFlat")).fingerprint
    assert fingerprint == expected
    assert via_icl["fingerprint"] == expected
    assert via_json["fingerprint"] == expected
    names = [n["fingerprint"] for n in client.networks()]
    assert names.count(expected) == 1


def test_upload_rejects_malformed_payload(client):
    with pytest.raises(ServiceClientError) as excinfo:
        client.upload_network()
    assert excinfo.value.status == 400


def test_unknown_routes_and_ids_are_404(client):
    with pytest.raises(ServiceClientError) as excinfo:
        client._request("GET", "/nope")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceClientError) as excinfo:
        client.job("feedfacecafe")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceClientError) as excinfo:
        client.submit(kind="analyze", fingerprint="f" * 64)
    assert excinfo.value.status == 404


def test_single_damage_request_matches_direct_analysis(
    client, fingerprint
):
    network = build_design("TreeFlat")
    graph = GraphDamageAnalysis(
        network, spec_for_network(network, seed=0), policy="max"
    )
    fault = next(iter_all_faults(network))
    damages = client.damage(fingerprint, [fault])
    assert damages == [graph.damage_of_fault(fault)]


def test_128_concurrent_requests_coalesce_bit_identically(
    client, service, fingerprint
):
    """>=128 concurrent single-fault HTTP queries: every response equals
    the direct graph analysis, and /metrics proves at least one batch
    held more than one request (occupancy > 1)."""
    network = build_design("TreeFlat")
    graph = GraphDamageAnalysis(
        network, spec_for_network(network, seed=0), policy="max"
    )
    all_faults = list(iter_all_faults(network))
    faults = list(itertools.islice(itertools.cycle(all_faults), 128))
    expected = [graph.damage_of_fault(fault) for fault in faults]

    results = [None] * len(faults)
    errors = []
    barrier = threading.Barrier(len(faults))

    def query(index, fault):
        try:
            barrier.wait(timeout=30.0)
            results[index] = client.damage(fingerprint, [fault])[0]
        except Exception as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    threads = [
        threading.Thread(target=query, args=(i, fault))
        for i, fault in enumerate(faults)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not errors
    assert results == expected

    metrics = client.metrics()
    dispatches = _metric_value(metrics, "repro_batch_occupancy_count")
    requests = _metric_value(metrics, "repro_batch_occupancy_sum")
    assert requests >= 128
    # Mean occupancy > 1 means concurrent requests genuinely shared
    # kernel passes instead of dispatching one-by-one.
    assert requests > dispatches


def test_multi_fault_damage_matches_direct_vector(client, fingerprint):
    network = build_design("TreeFlat")
    graph = GraphDamageAnalysis(
        network, spec_for_network(network, seed=0), policy="max"
    )
    faults = list(iter_all_faults(network))[:7]
    damages = client.damage(fingerprint, faults)
    assert damages == [graph.damage_of_fault(f) for f in faults]


def test_analyze_job_parity_and_second_run_is_cache_hit(
    client, fingerprint
):
    params = {"seed": 0}
    first = client.analyze(fingerprint, **params)
    second = client.analyze(fingerprint, **params)

    network = build_design("TreeFlat")
    direct = GraphDamageAnalysis(
        network,
        spec_for_network(network, seed=0),
        policy="max",
    ).report()
    report = first["result"]["report"]
    assert report["primitive_damage"] == direct.primitive_damage
    assert report["unit_damage"] == direct.unit_damage
    assert report["total"] == direct.total

    # Identical job resubmitted: served from the engine's disk cache.
    assert first["result"]["stats"]["cache"] == "miss"
    assert second["result"]["stats"]["cache"] == "hit"
    assert second["result"]["report"] == report
    metrics = client.metrics()
    assert 'repro_engine_cache_total{outcome="hit"}' in metrics


def test_healthz_and_metrics_respond_during_long_job(client):
    job = client.submit(kind="sleep", seconds=30.0)
    try:
        deadline = time.monotonic() + 10.0
        while client.job(job["id"])["status"] != "running":
            assert time.monotonic() < deadline, "sleep job never started"
            time.sleep(0.02)
        # The sleep job occupies a worker; liveness endpoints must still
        # answer from their own request threads.
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["jobs"]["running"] >= 1
        metrics = client.metrics()
        assert "repro_jobs_total" in metrics
        record = client.job(job["id"])
        assert record["status"] == "running"
    finally:
        cancelled = client.cancel(job["id"])
    assert cancelled["status"] in ("running", "cancelled")
    deadline_record = client.job(job["id"])
    assert deadline_record["kind"] == "sleep"


def test_job_listing_and_params_round_trip(client, fingerprint):
    job = client.submit(
        kind="analyze", fingerprint=fingerprint, seed=3, policy="sum"
    )
    record = client.wait(job["id"])
    assert record["params"]["seed"] == 3
    assert record["params"]["policy"] == "sum"
    assert any(j["id"] == job["id"] for j in client.jobs())


def test_metrics_content_type_is_prometheus_text(client, fingerprint):
    metrics = client.metrics()
    assert isinstance(metrics, str)
    assert "# TYPE repro_http_requests_total counter" in metrics
    assert 'path="/jobs/{id}"' in metrics  # normalized route label


def test_bad_fault_payload_is_rejected(client, fingerprint):
    with pytest.raises(ServiceClientError) as excinfo:
        client._request(
            "POST",
            "/damage",
            {
                "fingerprint": fingerprint,
                "faults": [{"kind": "wormhole"}],
            },
        )
    assert excinfo.value.status == 400
