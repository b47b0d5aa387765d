"""The central property test: independent implementations of the
fault-accessibility semantics must agree.

1. ``FastDamageAnalysis``    — O(N) prefix-sum aggregates on the tree
   (the ``dp`` route);
2. ``ExplicitDamageAnalysis`` — literal per-fault effect sets;
3. ``structural_access``      — configuration-enumerating scan-path oracle
   (no decomposition tree involved at all);
4. ``GraphDamageAnalysis``    — the lane-packed bitset kernel (the
   ``bitset`` route), checked below against the per-fault BFS oracles.

Plus the reachability parity block: the bitset kernel and the
simulator's compiled-IR path walk must be *bit-identical* to the
test-only per-fault BFS oracles (``_reference_reach``), on
series-parallel and non-series-parallel networks.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from _reference_reach import ReferenceGraphAnalysis, reference_active_path

from repro.analysis import analyze_damage
from repro.analysis.damage import ExplicitDamageAnalysis, FastDamageAnalysis
from repro.analysis.effects import (
    control_cell_break_effect,
    mux_stuck_effect,
    segment_break_effect,
)
from repro.analysis.faults import (
    MuxStuck,
    SegmentBreak,
    faults_of_primitive,
)
from repro.analysis.graph_analysis import GraphDamageAnalysis
from repro.bench.generators import random_network
from repro.errors import SimulationError
from repro.rsn.ast import elaborate
from repro.rsn.network import RsnNetwork
from repro.rsn.primitives import ControlUnit, NodeKind, SegmentRole
from repro.sim import structural_access
from repro.sim.simulator import ScanSimulator
from repro.sp import decompose
from repro.spec import random_spec

seeds = st.integers(min_value=0, max_value=50_000)


def _build(seed):
    network = elaborate(random_network(seed=seed, max_depth=2, max_items=3))
    spec = random_spec(network.instrument_names(), seed=seed)
    return network, spec


def _build_bridge(seed):
    """A seeded non-series-parallel network: the Wheatstone-bridge core
    with randomized segment lengths and a randomized tail chain."""
    rng = random.Random(seed)
    net = RsnNetwork(f"bridge{seed}")
    net.add_scan_in()
    net.add_scan_out()
    net.add_segment(
        "sel1", length=rng.randint(1, 2), role=SegmentRole.CONTROL
    )
    net.add_fanout("f1")
    net.add_segment("a", length=rng.randint(1, 4), instrument="ia")
    net.add_segment("b", length=rng.randint(1, 4), instrument="ib")
    net.add_fanout("fa")
    net.add_mux("m1", fanin=2, control_cell="sel1")
    net.add_mux("m2", fanin=2, control_cell="sel1")
    for edge in [
        ("scan_in", "sel1"), ("sel1", "f1"), ("f1", "a"), ("f1", "b"),
        ("a", "fa"), ("fa", "m1"), ("b", "m1"), ("m1", "m2"), ("fa", "m2"),
    ]:
        net.add_edge(*edge)
    tail_count = rng.randint(1, 3)
    previous = "m2"
    for index in range(tail_count):
        name = f"tail{index}"
        net.add_segment(
            name, length=rng.randint(1, 3), instrument=f"it{index}"
        )
        net.add_edge(previous, name)
        previous = name
    net.add_edge(previous, "scan_out")
    net.register_unit(
        ControlUnit("unit.sel1", muxes=["m1", "m2"], cells=["sel1"])
    )
    net.validate()
    spec = random_spec(net.instrument_names(), seed=seed)
    return net, spec


def _build_any(seed, bridge):
    return _build_bridge(seed) if bridge else _build(seed)


@settings(max_examples=50, deadline=None)
@given(seed=seeds)
def test_fast_equals_explicit_on_random_networks(seed):
    network, spec = _build(seed)
    fast = analyze_damage(network, spec)
    explicit = ExplicitDamageAnalysis(network, spec).report()
    assert fast.total == pytest.approx(explicit.total)
    for name, value in fast.primitive_damage.items():
        assert value == pytest.approx(
            explicit.primitive_damage[name]
        ), name


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_analysis_sets_equal_oracle_sets(seed):
    """For every fault of every primitive: the instruments the tree-based
    analysis declares inaccessible are exactly those the enumeration
    oracle cannot reach."""
    network, _ = _build(seed)
    spec = random_spec(network.instrument_names(), seed=seed)
    tree = decompose(network)
    fast = FastDamageAnalysis(network, spec, tree=tree)
    instruments = set(network.instrument_names())

    for node in network.nodes():
        if node.kind not in (NodeKind.SEGMENT, NodeKind.MUX):
            continue
        for fault in faults_of_primitive(network, node.name):
            if isinstance(fault, SegmentBreak):
                effect = segment_break_effect(tree, fault.segment)
                assumed = None
            elif isinstance(fault, MuxStuck):
                effect = mux_stuck_effect(tree, fault.mux, fault.port)
                assumed = None
            else:
                assumed = fast.cell_stuck_ports(fault.cell)
                effect = control_cell_break_effect(
                    tree, fault.cell, assumed
                )
            unobs, unset = effect.lost_instruments(network)
            access = structural_access(
                network, faults=[fault], assumed_ports=assumed
            )
            assert instruments - access.observable == unobs, fault
            assert instruments - access.settable == unset, fault


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_total_damage_invariants(seed):
    network, spec = _build(seed)
    report = analyze_damage(network, spec)
    assert report.total >= 0
    assert 0 <= report.hardenable <= report.total + 1e-9
    assert all(v >= 0 for v in report.primitive_damage.values())


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_fault_free_network_fully_accessible(seed):
    """Paper Sec. VI: 'in the defect-free case, all the instruments are
    accessible'."""
    network, _ = _build(seed)
    try:
        access = structural_access(network)
    except SimulationError:
        # The enumeration oracle caps at 2^16 configurations; discard
        # the rare generator draws whose free muxes exceed that — the
        # non-enumerating analyses cover them in the other properties.
        assume(False)
    everything = set(network.instrument_names())
    assert access.observable == everything
    assert access.settable == everything


# ---------------------------------------------------------------------------
# reachability parity: the production paths against the per-fault BFS
# oracles they replaced (IR-keyed and string-keyed)
# ---------------------------------------------------------------------------
def _all_faults(network):
    faults = []
    for node in network.nodes():
        if node.kind in (NodeKind.SEGMENT, NodeKind.MUX):
            faults.extend(faults_of_primitive(network, node.name))
    return faults


@settings(max_examples=40, deadline=None)
@given(seed=seeds, bridge=st.booleans())
def test_graph_ir_backend_bit_identical_to_dict(seed, bridge):
    """Damage reports of the bitset kernel and of the IR BFS oracle equal
    the dict BFS oracle exactly (not approximately) on SP and non-SP
    networks."""
    network, spec = _build_any(seed, bridge)
    dict_report = ReferenceGraphAnalysis(
        network, spec, backend="dict"
    ).report()
    for report in (
        ReferenceGraphAnalysis(network, spec, backend="ir").report(),
        GraphDamageAnalysis(network, spec).report(),
    ):
        assert report.primitive_damage == dict_report.primitive_damage
        assert report.unit_damage == dict_report.unit_damage
        assert report.total == dict_report.total


@settings(max_examples=25, deadline=None)
@given(seed=seeds, bridge=st.booleans())
def test_graph_ir_effect_sets_equal_dict(seed, bridge):
    network, spec = _build_any(seed, bridge)
    via_dict = ReferenceGraphAnalysis(network, spec, backend="dict")
    others = (
        ReferenceGraphAnalysis(network, spec, backend="ir"),
        GraphDamageAnalysis(network, spec),
    )
    for fault in _all_faults(network):
        effect_dict = via_dict.effect_of_fault(fault)
        for analysis in others:
            effect = analysis.effect_of_fault(fault)
            assert effect.unobservable == effect_dict.unobservable, fault
            assert effect.unsettable == effect_dict.unsettable, fault


@settings(max_examples=30, deadline=None)
@given(seed=seeds, bridge=st.booleans())
def test_simulator_ir_path_backend_matches_dict(seed, bridge):
    """Active paths agree between the simulator's IR walk and the
    name-dict oracle walk, fault-free and under a single fault, before
    and after scan updates."""
    network, _ = _build_any(seed, bridge)
    rng = random.Random(seed)
    fault_sets = [[]]
    all_faults = _all_faults(network)
    if all_faults:
        fault_sets.append([all_faults[seed % len(all_faults)]])
    for faults in fault_sets:
        sim = ScanSimulator(network, faults=faults)
        assert sim.active_path() == reference_active_path(sim)
        for _ in range(3):
            bits = [
                rng.randint(0, 1) for _ in range(sim.path_length() + 2)
            ]
            sim.shift(list(bits))
            sim.update()
            assert sim.active_path() == reference_active_path(sim)
