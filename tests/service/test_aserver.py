"""The asyncio HTTP front-end over the sharded worker pool.

The headline acceptance test lives here: ~1k concurrent ``/damage``
requests across four networks, answered by worker processes through the
coalescer, must be bit-identical to direct in-process
:class:`GraphDamageAnalysis`.  Also: the wire protocol (routes, errors,
trace headers, malformed HTTP) and the pool section of ``/healthz``.
"""

import json
import random
import socket
import tempfile
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis import GraphDamageAnalysis
from repro.analysis.faults import iter_all_faults
from repro.bench import build_design
from repro.service import (
    AnalysisService,
    AsyncServerThread,
    ServiceClient,
    ServiceClientError,
)
from repro.service.aserver import _MAX_BODY
from repro.spec import spec_for_network

DESIGN_NAMES = (
    "TreeFlat",
    "TreeUnbalanced",
    "TreeBalanced",
    "TreeFlat_Ex",
)
N_REQUESTS = 1000
N_CLIENTS = 64


def _raw_exchange(server, request: bytes) -> bytes:
    """Send raw bytes to the server and read until it closes."""
    address = (server.host, server.port)
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


@pytest.fixture(scope="module")
def stack():
    tmp = tempfile.TemporaryDirectory(prefix="repro-aserver-test-")
    service = AnalysisService(
        cache_dir=tmp.name,
        workers=2,
        shard_workers=2,
        shards=8,
        tracing=True,
    )
    server = AsyncServerThread(service, host="127.0.0.1", port=0)
    designs = {}
    client = ServiceClient(server.url, timeout=120.0)
    for name in DESIGN_NAMES:
        network = build_design(name)
        spec = spec_for_network(network, seed=0)
        faults = list(iter_all_faults(network))
        direct = GraphDamageAnalysis(network, spec).damage_vector(faults)
        fingerprint = client.upload_network(design=name)["fingerprint"]
        designs[name] = {
            "fingerprint": fingerprint,
            "faults": faults,
            "direct": [float(d) for d in direct],
        }
    yield {"service": service, "server": server, "designs": designs}
    server.stop()
    service.close(drain=False)
    tmp.cleanup()


class TestConcurrentDamageParity:
    def test_1k_concurrent_requests_bit_identical(self, stack):
        designs = stack["designs"]
        url = stack["server"].url
        names = list(designs)
        rng = random.Random(7)

        # Each request takes a random slice of a random design's fault
        # list, so coalesced batches mix lane sets and networks.
        plan = []
        for _ in range(N_REQUESTS):
            name = rng.choice(names)
            faults = designs[name]["faults"]
            lo = rng.randrange(len(faults))
            hi = rng.randrange(lo + 1, len(faults) + 1)
            plan.append((name, lo, hi))

        def one(task):
            name, lo, hi = task
            entry = designs[name]
            client = ServiceClient(url, timeout=120.0)
            got = client.damage(
                entry["fingerprint"],
                entry["faults"][lo:hi],
                seed=0,
            )
            return got == entry["direct"][lo:hi]

        with ThreadPoolExecutor(max_workers=N_CLIENTS) as executor:
            outcomes = list(executor.map(one, plan))
        assert all(outcomes), (
            f"{outcomes.count(False)}/{N_REQUESTS} requests diverged "
            "from direct GraphDamageAnalysis"
        )

    def test_batches_actually_coalesced(self, stack):
        # After the load above, the occupancy histogram must show
        # multi-request batches — otherwise the test exercised nothing.
        text = ServiceClient(stack["server"].url).metrics()
        assert "repro_batch_occupancy" in text
        assert "repro_shard_queue_depth" in text


class TestWireProtocol:
    def test_healthz_reports_pool_topology(self, stack):
        body = ServiceClient(stack["server"].url).healthz()
        assert body["status"] in ("ok", "degraded")
        pool = body["pool"]
        assert pool["n_shards"] == 8
        assert len(pool["shards"]) == 8
        for state in pool["workers"].values():
            assert state["alive"]

    def test_version_and_networks(self, stack):
        client = ServiceClient(stack["server"].url)
        assert "version" in client.version()
        listed = {n["fingerprint"] for n in client.networks()}
        expected = {
            entry["fingerprint"]
            for entry in stack["designs"].values()
        }
        assert expected <= listed

    def test_unknown_route_is_404(self, stack):
        client = ServiceClient(stack["server"].url)
        with pytest.raises(ServiceClientError) as info:
            client._request("GET", "/no-such-route")
        assert info.value.status == 404

    def test_bad_json_is_400(self, stack):
        client = ServiceClient(stack["server"].url)
        with pytest.raises(ServiceClientError) as info:
            client.damage("not-a-fingerprint", [], seed=0)
        assert info.value.status in (400, 404)

    def test_trace_id_round_trips(self, stack):
        designs = stack["designs"]
        entry = next(iter(designs.values()))
        client = ServiceClient(stack["server"].url, timeout=120.0)
        client.damage(
            entry["fingerprint"],
            entry["faults"][:3],
            seed=0,
            trace_id="aserver-test-trace",
        )
        assert client.last_trace_id == "aserver-test-trace"
        trace = client.trace("aserver-test-trace")
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert spans, "no spans recorded for the trace"
        # The tree must survive the worker-process boundary, not just
        # record the HTTP root.
        names = {e["name"] for e in spans}
        assert {
            "http.request",
            "service.damage",
            "coalescer.dispatch",
            "worker.damage",
        } <= names, f"trace lost spans across a boundary: {sorted(names)}"
        span_ids = {e["args"]["span_id"] for e in spans}
        orphans = [
            e["name"]
            for e in spans
            if e["args"].get("parent_id")
            and e["args"]["parent_id"] not in span_ids
        ]
        assert not orphans, f"orphan spans: {orphans}"
        worker_pids = {
            e["pid"] for e in spans if e["name"] == "worker.damage"
        }
        front_pids = {
            e["pid"] for e in spans if e["name"] == "http.request"
        }
        assert worker_pids and not (worker_pids & front_pids), (
            "worker.damage should be recorded from a worker process"
        )

    def test_analyze_job_through_pool(self, stack):
        designs = stack["designs"]
        entry = designs["TreeFlat"]
        client = ServiceClient(stack["server"].url, timeout=120.0)
        record = client.analyze(entry["fingerprint"], timeout=120.0)
        direct = GraphDamageAnalysis(
            build_design("TreeFlat"),
            spec_for_network(build_design("TreeFlat"), seed=0),
        ).report()
        assert record["result"]["report"]["total"] == direct.total


class TestMalformedRequests:
    """Malformed HTTP gets a 400 and a closed connection, never a
    silently dropped socket; the server keeps serving afterwards."""

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"POST /damage HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: twelve\r\n\r\n{}",
            b"GET /" + b"a" * (100 * 1024) + b" HTTP/1.1\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\n"
            b"X-Padding: " + b"p" * (100 * 1024) + b"\r\n\r\n",
            b"POST /damage HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: -5\r\n\r\n",
        ],
        ids=[
            "non-integer-content-length",
            "long-request-line",
            "long-header",
            "negative-content-length",
        ],
    )
    def test_malformed_request_is_400(self, stack, request_bytes):
        server = stack["server"]
        response = _raw_exchange(server, request_bytes)
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), head[:80]
        assert b"Connection: close" in head
        assert json.loads(body)["error"]
        assert ServiceClient(server.url).healthz()["status"] in (
            "ok",
            "degraded",
        )

    def test_oversized_body_is_413_without_reading_it(self, stack):
        server = stack["server"]
        head_only = (
            b"POST /damage HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n" % (_MAX_BODY + 1)
        )
        # The body is never sent and the socket stays open for writing:
        # a server that waited for the body would never answer.
        address = (server.host, server.port)
        with socket.create_connection(address, timeout=10.0) as sock:
            sock.sendall(head_only)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 Payload Too Large"), head[:80]
        assert b"Connection: close" in head
        assert "exceeds" in json.loads(body)["error"]
        assert ServiceClient(server.url).healthz()["status"] in (
            "ok",
            "degraded",
        )
