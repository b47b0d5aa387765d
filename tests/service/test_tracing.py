"""HTTP-level observability: /version, X-Trace-Id, connected traces.

The end-to-end acceptance check lives here: one ``POST /damage`` against
a tracing-enabled service must yield one connected trace — the HTTP root
span, the coalescer dispatch that served the request and the kernel
sweep spans beneath it — retrievable as valid Chrome trace JSON under
the same ``X-Trace-Id`` the response echoed.
"""

import json

import pytest

from repro import __version__
from repro.analysis import ANALYSIS_VERSION
from repro.analysis.faults import iter_all_faults
from repro.bench import build_design
from repro.ir import IR_VERSION
from repro.obs import disable_tracing
from repro.service import AnalysisService, AsyncServerThread, ServiceClient
from repro.service.client import ServiceClientError


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    svc = AnalysisService(
        cache_dir=str(tmp_path_factory.mktemp("tracing-cache")),
        workers=2,
        tracing=True,
    )
    yield svc
    svc.close(drain=False, timeout=10.0)
    disable_tracing()


@pytest.fixture(scope="module")
def fingerprint(client):
    return client.upload_network(design="TreeFlat")["fingerprint"]


class TestVersionEndpoint:
    def test_reports_every_versioned_layer(self, client):
        payload = client.version()
        assert payload == {
            "version": __version__,
            "analysis_version": ANALYSIS_VERSION,
            "ir_version": IR_VERSION,
        }


class TestTraceIdHeader:
    def test_every_response_carries_a_trace_id(self, client):
        client.healthz()
        assert client.last_trace_id
        assert len(client.last_trace_id) == 32

    def test_client_supplied_id_is_echoed(self, client):
        client._request("GET", "/healthz", trace_id="my-trace-0001")
        assert client.last_trace_id == "my-trace-0001"

    def test_fresh_ids_differ_between_requests(self, client):
        client.healthz()
        first = client.last_trace_id
        client.healthz()
        assert client.last_trace_id != first

    def test_error_bodies_carry_the_trace_id(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.job("no-such-job")
        assert excinfo.value.status == 404
        # Re-issue via urllib to read the raw body alongside the header.
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"{client.base_url}/jobs/no-such-job",
            headers={"X-Trace-Id": "err-trace-0001"},
        )
        try:
            urllib.request.urlopen(request, timeout=30.0)
            raise AssertionError("expected HTTP 404")
        except urllib.error.HTTPError as error:
            body = json.loads(error.read().decode("utf-8"))
            assert error.headers.get("X-Trace-Id") == "err-trace-0001"
        assert body["trace_id"] == "err-trace-0001"
        assert "error" in body


class TestConnectedDamageTrace:
    def test_one_post_damage_yields_one_connected_trace(
        self, client, fingerprint
    ):
        network = build_design("TreeFlat")
        faults = list(iter_all_faults(network))[:5]
        trace_id = "damage-trace-0001"
        damages = client.damage(fingerprint, faults, trace_id=trace_id)
        assert len(damages) == len(faults)
        assert client.last_trace_id == trace_id

        document = client.trace(trace_id)
        # Valid Chrome trace_event JSON: round-trips through json and
        # has the expected envelope.
        document = json.loads(json.dumps(document))
        assert document["displayTimeUnit"] == "ms"
        events = [
            e for e in document["traceEvents"] if e["ph"] == "X"
        ]
        assert {e["args"]["trace_id"] for e in events} == {trace_id}
        names = {e["name"] for e in events}
        assert "http.request" in names
        assert "service.damage" in names
        assert "coalescer.dispatch" in names
        # The solve itself, routed to the DP (TreeFlat is SP).
        solves = [e for e in events if e["name"] == "worker.damage"]
        assert [e["args"]["solver"] for e in solves] == ["dp"]

        # Connectivity: exactly one root, every other span's parent is
        # present in the same trace.
        span_ids = {e["args"]["span_id"] for e in events}
        roots = [e for e in events if "parent_id" not in e["args"]]
        assert [e["name"] for e in roots] == ["http.request"]
        for event in events:
            parent = event["args"].get("parent_id")
            if parent is not None:
                assert parent in span_ids

    def test_unknown_trace_id_is_a_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.trace("definitely-not-a-trace")
        assert excinfo.value.status == 404


class TestTracingDisabledService:
    def test_trace_endpoint_404s_without_tracing(self, tmp_path):
        from repro.obs import current_collector, enable_tracing

        # Tracing is process-global; park the module service's collector
        # so this service really runs untraced, then restore it.
        saved = current_collector()
        disable_tracing()
        svc = AnalysisService(
            cache_dir=str(tmp_path / "cache"), workers=1, tracing=False
        )
        server = AsyncServerThread(svc)
        plain = ServiceClient(server.url, timeout=30.0)
        try:
            plain.healthz()
            assert plain.last_trace_id  # ids are assigned regardless
            with pytest.raises(ServiceClientError) as excinfo:
                plain.trace(plain.last_trace_id)
            assert excinfo.value.status == 404
        finally:
            server.stop()
            svc.close(drain=False, timeout=10.0)
            if saved is not None:
                enable_tracing(saved)
