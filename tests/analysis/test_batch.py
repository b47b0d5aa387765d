"""Parity and property tests of the bit-parallel batch analysis.

The bitset kernel packs 64 fault lanes per ``uint64`` word and solves
reachability for all of them in vectorized topo-order sweeps; every damage
it reports must be *bit-identical* (``==``, never approx) to the per-fault
BFS oracles of ``_reference_reach`` (IR-keyed and string-keyed), on
series-parallel and non-series-parallel networks, for single faults,
fault multisets and whole reports.
"""

import random

import numpy as np
import pytest
from _reference_reach import ReferenceGraphAnalysis
from hypothesis import given, settings, strategies as st

from repro.analysis.batch import BatchFaultAnalysis
from repro.analysis.engine import CriticalityEngine
from repro.analysis.faults import ControlCellBreak, faults_of_primitive
from repro.analysis.graph_analysis import (
    GraphDamageAnalysis,
    expected_damage_under_rate,
)
from repro.bench.generators import random_network
from repro.ir import LANE_BITS, intern, lane_words
from repro.rsn.ast import elaborate
from repro.rsn.network import RsnNetwork
from repro.rsn.primitives import ControlUnit, NodeKind, SegmentRole
from repro.spec import random_spec

seeds = st.integers(min_value=0, max_value=50_000)


def _build(seed):
    network = elaborate(random_network(seed=seed, max_depth=2, max_items=3))
    spec = random_spec(network.instrument_names(), seed=seed)
    return network, spec


def _build_bridge(seed):
    """A seeded non-series-parallel network (same shape as the
    Wheatstone-bridge generator in ``test_agreement``)."""
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


def _all_faults(network):
    faults = []
    for node in network.nodes():
        if node.kind in (NodeKind.SEGMENT, NodeKind.MUX):
            faults.extend(faults_of_primitive(network, node.name))
    return faults


def _backends(network, spec):
    """The bitset kernel, then the IR and dict BFS oracles."""
    return (
        GraphDamageAnalysis(network, spec),
        ReferenceGraphAnalysis(network, spec, backend="ir"),
        ReferenceGraphAnalysis(network, spec, backend="dict"),
    )


# ---------------------------------------------------------------------------
# lane helpers
# ---------------------------------------------------------------------------
def test_lane_words():
    assert LANE_BITS == 64
    assert lane_words(0) == 0
    assert lane_words(1) == 1
    assert lane_words(64) == 1
    assert lane_words(65) == 2
    assert lane_words(4096) == 64


def test_mux_dead_slots_wrap_and_exclude_pinned():
    network, _ = _build_bridge(0)
    ir = intern(network)
    mux_id = ir.id_of("m1")
    lo = ir.pred_indptr[mux_id]
    assert ir.fanin[mux_id] == 2
    assert ir.mux_dead_slots(mux_id, 0) == [lo + 1]
    assert ir.mux_dead_slots(mux_id, 1) == [lo]
    # ports wrap modulo fanin, exactly like the scalar traversals
    assert ir.mux_dead_slots(mux_id, 2) == ir.mux_dead_slots(mux_id, 0)


def test_succ_pred_slots_is_a_bijection_onto_pred_slots():
    network, _ = _build_bridge(1)
    ir = intern(network)
    mapping = ir.succ_pred_slots()
    assert sorted(mapping.tolist()) == list(range(len(ir.pred_indices)))
    # each mapped slot names the same edge: succ_indices[s] owns the
    # pred slot, and the predecessor there is the slot's source node
    pred_indptr = list(ir.pred_indptr)
    for slot, pslot in enumerate(mapping.tolist()):
        dst = ir.succ_indices[slot]
        assert pred_indptr[dst] <= pslot < pred_indptr[dst + 1]


# ---------------------------------------------------------------------------
# bit-identical damage parity: the kernel against both BFS oracles
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(seed=seeds, bridge=st.booleans())
def test_damage_vector_bit_identical_across_backends(seed, bridge):
    """The lane-packed damage of every fault in the universe equals the
    per-fault BFS oracles exactly, on SP and bridge networks."""
    network, spec = _build_any(seed, bridge)
    faults = _all_faults(network)
    bitset, via_ir, via_dict = _backends(network, spec)
    batch = bitset.damage_vector(faults).tolist()
    scalar_ir = [via_ir.damage_of_fault(fault) for fault in faults]
    scalar_dict = [via_dict.damage_of_fault(fault) for fault in faults]
    assert batch == scalar_ir
    assert batch == scalar_dict


@settings(max_examples=25, deadline=None)
@given(seed=seeds, bridge=st.booleans())
def test_report_bit_identical_across_backends(seed, bridge):
    network, spec = _build_any(seed, bridge)
    bitset, via_ir, _ = _backends(network, spec)
    for sites in ("all", "control", "mux"):
        got = bitset.report(sites=sites)
        want = via_ir.report(sites=sites)
        assert got.primitive_damage == want.primitive_damage
        assert got.unit_damage == want.unit_damage
        assert got.total == want.total


@settings(max_examples=20, deadline=None)
@given(seed=seeds, bridge=st.booleans())
def test_effect_sets_bit_identical_across_backends(seed, bridge):
    network, spec = _build_any(seed, bridge)
    bitset, via_ir, _ = _backends(network, spec)
    for fault in _all_faults(network):
        got = bitset.effect_of_fault(fault)
        want = via_ir.effect_of_fault(fault)
        assert got.unobservable == want.unobservable, fault
        assert got.unsettable == want.unsettable, fault


@settings(max_examples=20, deadline=None)
@given(seed=seeds, bridge=st.booleans())
def test_multiset_damage_bit_identical_across_backends(seed, bridge):
    """Simultaneous fault multisets: one combined lane equals the scalar
    combined-state evaluation, including broken-cell mux pinning."""
    network, spec = _build_any(seed, bridge)
    faults = _all_faults(network)
    rng = random.Random(seed)
    bitset, via_ir, _ = _backends(network, spec)
    fault_sets = [
        rng.sample(faults, min(len(faults), rng.randint(1, 4)))
        for _ in range(5)
    ]
    batch = bitset.damage_of_fault_sets(fault_sets)
    scalar = [via_ir.damage_of_faults(fs) for fs in fault_sets]
    assert batch == scalar
    for fs in fault_sets:
        got = bitset.effect_of_faults(fs)
        want = via_ir.effect_of_faults(fs)
        assert got.unobservable == want.unobservable
        assert got.unsettable == want.unsettable


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_cell_stuck_ports_match_scalar_rule(seed):
    network, spec = _build_bridge(seed)
    bitset, via_ir, _ = _backends(network, spec)
    for node in network.nodes():
        for fault in faults_of_primitive(network, node.name):
            if isinstance(fault, ControlCellBreak):
                assert bitset.cell_stuck_ports(fault.cell) == (
                    via_ir.cell_stuck_ports(fault.cell)
                ), fault.cell


def _per_cell_reference_ports(batch, cell):
    """The former per-cell rule, kept as the reference for the one-pass
    resolution: one lane batch per cell (break lane + one lane per
    candidate stuck value), worst marginal damage, lowest port on ties."""
    ir = batch.ir
    cell_id = ir.id_of(cell)
    muxes = batch._cell_to_muxes.get(cell_id, [])
    states = [batch._state((cell_id,), {})]
    candidates = []  # (mux, port, lane)
    for mux_id in muxes:
        for port in ir.stuck_values(mux_id):
            candidates.append((mux_id, port, len(states)))
            states.append(batch._state((), {mux_id: port}))
    lane_damages, obs_bits, set_bits = batch._lane_damages(states)
    base = float(lane_damages[0])
    ports = {}
    for mux_id in muxes:
        best_port, best_marginal = 0, -1.0
        for candidate_mux, port, lane in candidates:
            if candidate_mux != mux_id:
                continue
            marginal = (
                batch._composite_damage(obs_bits, set_bits, [0, lane]) - base
            )
            if marginal > best_marginal:
                best_marginal, best_port = marginal, port
        ports[ir.names[mux_id]] = best_port
    return ports


def _assert_cell_ports_match_reference(network, spec, chunk_lanes):
    batch = BatchFaultAnalysis(network, spec, chunk_lanes=chunk_lanes)
    reference = BatchFaultAnalysis(network, spec)
    cells = [
        fault.cell
        for fault in _all_faults(network)
        if isinstance(fault, ControlCellBreak)
    ]
    for cell in cells:
        assert batch.cell_stuck_ports(cell) == (
            _per_cell_reference_ports(reference, cell)
        ), cell
    return batch


@settings(max_examples=10, deadline=None)
@given(seed=seeds, bridge=st.booleans(), chunk_lanes=st.sampled_from([1, 64]))
def test_batched_cell_ports_match_per_cell_rule(seed, bridge, chunk_lanes):
    network, spec = _build_any(seed, bridge)
    _assert_cell_ports_match_reference(network, spec, chunk_lanes)


@pytest.mark.parametrize("chunk_lanes", [1, 64])
def test_batched_cell_ports_on_mbist(chunk_lanes):
    """MBIST_2_5_5: 28 cells, 3 lanes each — ``chunk_lanes=1`` (64-lane
    chunks) spreads the one pass over two kernel chunks."""
    from repro.bench import build_design
    from repro.spec import spec_for_network

    network = build_design("MBIST_2_5_5")
    spec = spec_for_network(network, seed=0)
    batch = _assert_cell_ports_match_reference(network, spec, chunk_lanes)
    # Every cell was queried, yet only the first query solved anything.
    assert batch.counters["chunks"] == (2 if chunk_lanes == 1 else 1)


def test_expected_damage_backends_agree():
    """The Monte-Carlo estimate on the kernel equals the same campaign
    run on the IR BFS oracle."""
    from repro.campaigns import MonteCarloPlan, run_monte_carlo

    network, spec = _build(3)
    plan = MonteCarloPlan(
        rates=(0.05,), samples=40, seed=7, sampler="scalar", bootstrap=0
    )
    oracle = run_monte_carlo(
        ReferenceGraphAnalysis(network, spec), plan
    )["records"][0]["mean_damage"]
    assert expected_damage_under_rate(
        network, spec, defect_rate=0.05, samples=40, seed=7
    ) == oracle


# ---------------------------------------------------------------------------
# edge cases: lane-count boundaries, chunking, composites
# ---------------------------------------------------------------------------
def test_empty_fault_list():
    network, spec = _build(0)
    analysis = GraphDamageAnalysis(network, spec)
    assert analysis.damage_vector([]).tolist() == []
    assert analysis.damage_of_fault_sets([]) == []


def test_single_fault():
    network, spec = _build(1)
    fault = _all_faults(network)[0]
    bitset, via_ir, _ = _backends(network, spec)
    assert bitset.damage_vector([fault]).tolist() == [
        via_ir.damage_of_fault(fault)
    ]
    assert bitset.damage_of_fault(fault) == via_ir.damage_of_fault(fault)


@pytest.mark.parametrize("count", [63, 64, 65, 130])
def test_fault_count_not_multiple_of_word_size(count):
    """Lane counts straddling the uint64 boundary: partial last words
    must not leak all-ones padding lanes into real results."""
    network, spec = _build(5)
    universe = _all_faults(network)
    faults = [universe[i % len(universe)] for i in range(count)]
    bitset, via_ir, _ = _backends(network, spec)
    batch = bitset.damage_vector(faults).tolist()
    scalar = [via_ir.damage_of_fault(fault) for fault in faults]
    assert batch == scalar


@settings(max_examples=15, deadline=None)
@given(seed=seeds, bridge=st.booleans())
def test_tiny_chunks_equal_unchunked(seed, bridge):
    """chunk_lanes=1 forces many chunks (and composite faults that fill
    a chunk alone); results must not depend on the chunking."""
    network, spec = _build_any(seed, bridge)
    faults = _all_faults(network)
    one = GraphDamageAnalysis(network, spec, chunk_lanes=1)
    big = GraphDamageAnalysis(network, spec, chunk_lanes=64)
    assert one.damage_vector(faults).tolist() == (
        big.damage_vector(faults).tolist()
    )
    assert one.batch_counters["chunks"] >= big.batch_counters["chunks"]


def test_deduplication_shares_lanes():
    """The same fault listed twice occupies one lane, not two."""
    network, spec = _build(2)
    fault = _all_faults(network)[0]
    analysis = BatchFaultAnalysis(network, spec)
    damages = analysis.damage_vector([fault, fault, fault])
    assert damages[0] == damages[1] == damages[2]
    assert analysis.counters["lanes"] == 1


# ---------------------------------------------------------------------------
# the fixpoint argument: one topo-order sweep suffices on a DAG
# ---------------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(seed=seeds, bridge=st.booleans())
def test_single_sweep_reaches_fixpoint(seed, bridge):
    """A change-tracked second sweep after the first must be a no-op, in
    both directions, fault-free and under a representative fault state —
    the property that lets the kernel skip runtime fixpoint iteration."""
    network, spec = _build_any(seed, bridge)
    analysis = BatchFaultAnalysis(network, spec)
    faults = _all_faults(network)
    states = [analysis._state((), {})]
    if faults:
        states.extend(
            analysis._components(faults[seed % len(faults)])
        )
    prop, alive, words = analysis._masks(states)
    for direction, seed_node in (
        ("forward", analysis.ir.scan_in),
        ("backward", analysis.ir.scan_out),
    ):
        reach = np.zeros((analysis.ir.n_nodes, words), dtype=np.uint64)
        reach[seed_node] = np.uint64(0xFFFFFFFFFFFFFFFF)
        sweep = (
            analysis.forward_pass
            if direction == "forward"
            else analysis.backward_pass
        )
        sweep(reach, prop, alive, track=True)
        assert sweep(reach, prop, alive, track=True) is False, direction


# ---------------------------------------------------------------------------
# engine integration: lane-chunked parallel tasks
# ---------------------------------------------------------------------------
def test_engine_bitset_serial_matches_ir_engine():
    """On a non-SP network the engine routes to the kernel, and its
    report equals the IR BFS oracle's."""
    network, spec = _build_bridge(11)
    base = ReferenceGraphAnalysis(network, spec).report()
    engine = CriticalityEngine(network, spec)
    report = engine.report()
    assert report.primitive_damage == base.primitive_damage
    assert engine.stats.route == "bitset"
    assert engine.stats.lanes > 0
    assert engine.stats.lane_chunks > 0


def test_engine_rejects_backend_for_tree_methods():
    """The engine has no backend (or method) selector any more: it
    routes by regime, and a caller still passing one fails loudly
    instead of being silently rerouted."""
    network, spec = _build(4)
    with pytest.raises(TypeError):
        CriticalityEngine(network, spec, backend="bitset")


def test_stats_surface_lane_counters():
    network, spec = _build_bridge(8)
    engine = CriticalityEngine(network, spec)
    engine.report()
    as_dict = engine.stats.as_dict()
    assert as_dict["route"] == "bitset"
    assert as_dict["lanes"] == engine.stats.lanes
    assert "fault lanes" in engine.stats.format()


# ---------------------------------------------------------------------------
# primitive-damage chunk query (the engine worker's entry point)
# ---------------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(seed=seeds, bridge=st.booleans())
def test_primitive_damages_match_scalar(seed, bridge):
    network, spec = _build_any(seed, bridge)
    names = [
        node.name
        for node in network.nodes()
        if node.kind in (NodeKind.SEGMENT, NodeKind.MUX)
    ]
    bitset, via_ir, _ = _backends(network, spec)
    assert bitset.primitive_damages(names) == [
        via_ir.primitive_damage(name) for name in names
    ]
