"""Array-form Monte-Carlo blocks: lane-for-lane parity and attribution.

Both samplers emit :class:`FaultSetBlock` s — ``(lane, candidate)``
pairs into one flat candidate table — which the bitset kernel lowers
straight to packed lane masks.  Every lane's damage must equal, with
``==``, the damage of the same draw materialized as a plain ``Fault``
list, on the kernel and on both per-fault BFS oracles, including lanes where an explicit mux pin and
the broken control cell driving that mux co-occur.
"""

import random

import numpy as np
from _reference_reach import ReferenceGraphAnalysis
from hypothesis import given, settings, strategies as st

import repro.campaigns.montecarlo as montecarlo
from repro.analysis.faults import (
    CandidateTable,
    ControlCellBreak,
    FaultSetBlock,
    MuxStuck,
    faults_of_primitive,
)
from repro.analysis.graph_analysis import GraphDamageAnalysis
from repro.bench import build_design
from repro.bench.generators import random_network
from repro.campaigns import MonteCarloPlan, run_monte_carlo, spec_token
from repro.campaigns.montecarlo import candidate_table
from repro.campaigns.sampler import (
    block_rng,
    scalar_samples,
    vectorized_samples,
)
from repro.rsn.ast import elaborate
from repro.rsn.network import RsnNetwork
from repro.rsn.primitives import ControlUnit, SegmentRole
from repro.spec import random_spec, spec_for_network

seeds = st.integers(min_value=0, max_value=50_000)


def _build_sp(seed):
    network = elaborate(random_network(seed=seed, max_depth=2, max_items=3))
    return network, random_spec(network.instrument_names(), seed=seed)


def _build_bridge(seed):
    """A seeded non-series-parallel network: one control cell drives two
    muxes across a Wheatstone bridge."""
    rng = random.Random(seed)
    net = RsnNetwork(f"bridge{seed}")
    net.add_scan_in()
    net.add_scan_out()
    net.add_segment("sel1", length=rng.randint(1, 2), role=SegmentRole.CONTROL)
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
    previous = "m2"
    for index in range(rng.randint(1, 3)):
        name = f"tail{index}"
        net.add_segment(name, length=rng.randint(1, 3), instrument=f"it{index}")
        net.add_edge(previous, name)
        previous = name
    net.add_edge(previous, "scan_out")
    net.register_unit(ControlUnit("unit.sel1", muxes=["m1", "m2"], cells=["sel1"]))
    net.validate()
    return net, random_spec(net.instrument_names(), seed=seed)


def _analyses(network, spec, chunk_lanes=64):
    """The bitset kernel and the IR / dict BFS oracles, by name."""
    return {
        "bitset": GraphDamageAnalysis(network, spec, chunk_lanes=chunk_lanes),
        "ir": ReferenceGraphAnalysis(network, spec, backend="ir"),
        "dict": ReferenceGraphAnalysis(network, spec, backend="dict"),
    }


def _draw(sampler, table, rate, lanes, seed):
    if sampler == "scalar":
        return scalar_samples(table, rate, lanes, seed)
    return vectorized_samples(table, rate, lanes, block_rng(seed, 0, 0))


# ---------------------------------------------------------------------------
# lane-for-lane parity against materialized Fault lists
# ---------------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    seed=seeds,
    bridge=st.booleans(),
    sampler=st.sampled_from(["scalar", "vectorized"]),
    hardened=st.booleans(),
    rate=st.sampled_from([0.0, 0.05, 1.0]),
)
def test_block_damage_equals_fault_lists(seed, bridge, sampler, hardened, rate):
    network, spec = (_build_bridge if bridge else _build_sp)(seed)
    analyses = _analyses(network, spec, chunk_lanes=1)
    units = tuple(sorted(network.unit_names())[:1]) if hardened else ()
    table = candidate_table(analyses["bitset"], units)
    # 70 lanes with chunk_lanes=1: the block spans two kernel chunks.
    block = _draw(sampler, table, rate, 70, seed)
    lists = [list(faults) for faults in block]
    assert len(block) == len(lists) == 70
    got = analyses["bitset"].damage_of_fault_sets(block)
    for backend, analysis in analyses.items():
        assert analysis.damage_of_fault_sets(lists) == got, backend
    if rate == 0.0:
        assert not any(lists)
    if rate == 1.0:
        picked = {fault.site for faults in lists for fault in faults}
        assert picked == {
            site for site, cands in zip(table.sites, table.candidates) if cands
        }


def test_empty_block_and_empty_lanes():
    network, spec = _build_bridge(3)
    analyses = _analyses(network, spec)
    table = candidate_table(analyses["bitset"])
    none = np.zeros(0, dtype=np.int64)
    empty = FaultSetBlock(table, 0, none, none)
    assert len(empty) == 0 and list(empty) == []
    for analysis in analyses.values():
        assert analysis.damage_of_fault_sets(empty) == []
    blank = FaultSetBlock(table, 5, none, none)
    want = analyses["ir"].damage_of_fault_sets([[]] * 5)
    for analysis in analyses.values():
        assert analysis.damage_of_fault_sets(blank) == want


def test_explicit_pin_beats_broken_cell_on_same_mux():
    """A lane holding ``MuxStuck(m, p)`` and the ``ControlCellBreak`` of
    the cell driving ``m``: the explicit pin wins over the cell's assumed
    port, whichever the cell would pick."""
    network, spec = _build_bridge(5)
    analyses = _analyses(network, spec)
    bitset = analyses["bitset"]
    table = candidate_table(bitset)
    index = {fault: i for i, fault in enumerate(table.faults)}
    assumed = bitset.cell_stuck_ports("sel1")
    cell = index[ControlCellBreak("sel1")]
    lanes, cands = [], []
    for lane, port in enumerate((0, 1)):
        lanes += [lane, lane]
        cands += sorted([cell, index[MuxStuck("m1", port)]])
    block = FaultSetBlock(table, 2, np.array(lanes), np.array(cands))
    got = bitset.damage_of_fault_sets(block)
    ir = bitset.ir
    for lane, port in enumerate((0, 1)):
        pins = {ir.id_of(mux): p for mux, p in assumed.items()}
        pins[ir.id_of("m1")] = port
        explicit = bitset.damage_of_states([((ir.id_of("sel1"),), pins)])
        assert got[lane] == explicit[0]
        for analysis in analyses.values():
            assert analysis.damage_of_fault_sets([block[lane]]) == [got[lane]]


def test_block_sequence_and_slices():
    network, spec = _build_sp(7)
    analysis = GraphDamageAnalysis(network, spec)
    table = candidate_table(analysis)
    block = vectorized_samples(table, 0.3, 40, block_rng(1, 0, 0))
    lists = [block[i] for i in range(len(block))]
    assert block[2:5] == lists[2:5]
    part = block.lanes_slice(10, 25)
    assert len(part) == 15 and list(part) == lists[10:25]
    assert block.lanes_slice(35, 99).lanes == 5
    flat = [fault for faults in lists for fault in faults]
    assert flat == [table.faults[c] for c in block.cand]


def test_candidate_table_layout():
    network, _ = _build_bridge(2)
    sites = ["sel1", "a", "m1"]
    cands = [faults_of_primitive(network, site) for site in sites]
    table = CandidateTable(sites, cands)
    assert table.counts.tolist() == [1, 1, 2]
    assert table.starts.tolist() == [0, 1, 2]
    assert table.faults == cands[0] + cands[1] + cands[2]


# ---------------------------------------------------------------------------
# per-analysis caches
# ---------------------------------------------------------------------------
def test_table_and_spec_token_cached_per_analysis():
    network, spec = _build_bridge(4)
    analysis = GraphDamageAnalysis(network, spec)
    assert candidate_table(analysis) is candidate_table(analysis)
    hardened = candidate_table(analysis, ("unit.sel1",))
    assert hardened is candidate_table(analysis, ["unit.sel1"])
    assert len(hardened.sites) == len(candidate_table(analysis).sites) - 3
    token = spec_token(analysis)
    assert spec_token(analysis) == token
    other = ReferenceGraphAnalysis(network, spec)
    assert candidate_table(other) is not candidate_table(analysis)
    assert spec_token(other) == token


# ---------------------------------------------------------------------------
# attribution guard: the names the benchmark's layer clock wraps
# ---------------------------------------------------------------------------
def test_monte_carlo_reaches_kernel_through_damage_of_fault_sets(monkeypatch):
    for name in ("campaign_sites", "site_candidates", "vectorized_samples"):
        assert callable(getattr(montecarlo, name)), name
    calls = {"campaign_sites": 0, "site_candidates": 0, "vectorized_samples": 0}
    for name in calls:
        original = getattr(montecarlo, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(montecarlo, name, counted)
    lanes_seen = []
    original_kernel = GraphDamageAnalysis.damage_of_fault_sets

    def kernel(self, sets):
        lanes_seen.append(len(sets))
        return original_kernel(self, sets)

    monkeypatch.setattr(GraphDamageAnalysis, "damage_of_fault_sets", kernel)

    network = build_design("TreeFlat")
    analysis = GraphDamageAnalysis(
        network, spec_for_network(network, seed=0), backend="bitset"
    )
    plan = MonteCarloPlan(
        rates=(0.01, 0.1), samples=100, seed=3, block_lanes=64, bootstrap=0
    )
    result = run_monte_carlo(analysis, plan)
    assert lanes_seen == [64, 36, 64, 36]
    assert calls["vectorized_samples"] == 4
    assert calls["campaign_sites"] == calls["site_candidates"] == 1
    run_monte_carlo(analysis, plan)  # table cached: no rebuild
    assert calls["campaign_sites"] == calls["site_candidates"] == 1
    assert result["outcome"] == "completed"
