"""``/damage`` solver routing and fault validation, in both service modes.

Single-fault ``/damage`` lanes are routed by regime
(:func:`repro.analysis.route_analysis`): series-parallel
networks get the paper's O(N) DP, everything else the bitset kernel.
Whatever the route and whichever mode solves it (in-process with
``shard_workers=0``, or a 2-worker pool), every answer must equal the
bitset ``damage_vector`` and the explicit reference, and the
``worker.damage`` span must name the route taken.  Faults a network
cannot have are a 400 at the boundary, before either solver sees them.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import BatchFaultAnalysis, GraphDamageAnalysis
from repro.analysis.damage import ExplicitDamageAnalysis
from repro.analysis.faults import (
    ControlCellBreak,
    MuxStuck,
    SegmentBreak,
    iter_all_faults,
)
from repro.bench import build_design
from repro.bench.generators import random_network
from repro.obs import disable_tracing
from repro.rsn.ast import elaborate
from repro.rsn.network import RsnNetwork
from repro.rsn.primitives import SegmentRole
from repro.service import AnalysisService, AsyncServerThread, ServiceClient
from repro.service.client import ServiceClientError
from repro.spec import spec_for_network

MODES = {"inprocess": 0, "pool": 2}


@pytest.fixture(scope="module", params=sorted(MODES))
def stack(request):
    service = AnalysisService(
        no_cache=True,
        workers=1,
        shard_workers=MODES[request.param],
        history_interval=0,
        tracing=True,
    )
    server = AsyncServerThread(service)
    yield service, ServiceClient(server.url, timeout=120.0)
    server.stop()
    service.close(drain=False, timeout=10.0)
    disable_tracing()


def _bridge(seed):
    """A non-series-parallel network: a Wheatstone-bridge core (two
    muxes sharing a reconvergent fan-out) plus a seeded tail chain."""
    rng = random.Random(seed)
    net = RsnNetwork(f"bridge{seed}")
    net.add_scan_in()
    net.add_scan_out()
    net.add_segment("sel", length=rng.randint(1, 2), role=SegmentRole.CONTROL)
    net.add_fanout("f1")
    net.add_segment("a", length=rng.randint(1, 4), instrument="ia")
    net.add_segment("b", length=rng.randint(1, 4), instrument="ib")
    net.add_fanout("fa")
    net.add_mux("m1", fanin=2, control_cell="sel")
    net.add_mux("m2", fanin=2, control_cell="sel")
    for edge in [
        ("scan_in", "sel"), ("sel", "f1"), ("f1", "a"), ("f1", "b"),
        ("a", "fa"), ("fa", "m1"), ("b", "m1"), ("m1", "m2"), ("fa", "m2"),
    ]:
        net.add_edge(*edge)
    previous = "m2"
    for index in range(rng.randint(1, 3)):
        name = f"tail{index}"
        net.add_segment(name, length=rng.randint(1, 3), instrument=f"it{index}")
        net.add_edge(previous, name)
        previous = name
    net.add_edge(previous, "scan_out")
    net.validate()
    return net


def _served(stack, network, trace_id):
    """Every single fault of ``network`` through HTTP ``/damage``:
    (faults, damages, the routes named by ``worker.damage`` spans)."""
    service, client = stack
    entry = service.registry.add_network(network)
    faults = list(iter_all_faults(network))
    damages = client.damage(entry.fingerprint, faults, trace_id=trace_id)
    events = client.trace(trace_id)["traceEvents"]
    routes = {
        e["args"]["solver"]
        for e in events
        if e.get("ph") == "X" and e["name"] == "worker.damage"
    }
    return faults, damages, routes


def _check_sp(stack, network, trace_id):
    faults, damages, routes = _served(stack, network, trace_id)
    spec = spec_for_network(network, seed=0)
    bitset = BatchFaultAnalysis(network, spec).damage_vector(faults)
    explicit = ExplicitDamageAnalysis(network, spec)
    assert damages == [float(d) for d in bitset]
    assert damages == [explicit.damage_of_fault(f) for f in faults]
    assert routes == {"dp"}


@pytest.mark.parametrize("design", ["TreeFlat", "MBIST_2_5_5"])
def test_sp_design_routes_to_dp_and_matches_references(stack, design):
    _check_sp(stack, build_design(design), f"route-{design}")


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_hypothesis_sp_networks_route_to_dp(stack, seed):
    network = elaborate(random_network(seed=seed, max_depth=2, max_items=3))
    _check_sp(stack, network, f"route-sp-{seed}")


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_hypothesis_bridge_routes_to_bitset(stack, seed):
    network = _bridge(seed)
    faults, damages, routes = _served(stack, network, f"route-br-{seed}")
    spec = spec_for_network(network, seed=0)
    bitset = BatchFaultAnalysis(network, spec).damage_vector(faults)
    graph = GraphDamageAnalysis(network, spec)
    assert damages == [float(d) for d in bitset]
    assert damages == [graph.damage_of_fault(f) for f in faults]
    assert routes == {"bitset"}


@pytest.mark.parametrize(
    "fault, message",
    [
        (MuxStuck("seg1", 0), "not a mux"),
        (MuxStuck("mbist_sib0.mux", 99), "has no port 99"),
        (MuxStuck("mbist_sib0.mux", -1), "has no port -1"),
        (SegmentBreak("mbist_sib0.mux"), "not a data segment"),
        (SegmentBreak("mbist_sib0.bit"), "not a data segment"),
        (ControlCellBreak("seg1"), "not a configuration cell"),
        (SegmentBreak("no-such-node"), "unknown node"),
    ],
    ids=lambda value: value if isinstance(value, str) else repr(value),
)
def test_faults_the_network_cannot_have_are_400(stack, fault, message):
    service, client = stack
    network = build_design("MBIST_2_5_5")
    fingerprint = service.registry.add_network(network).fingerprint
    good = next(iter_all_faults(network))
    with pytest.raises(ServiceClientError, match=message) as excinfo:
        client.damage(fingerprint, [good, fault])
    assert excinfo.value.status == 400
    # The rejected request left nothing parked: the key still serves.
    assert len(client.damage(fingerprint, [good])) == 1
