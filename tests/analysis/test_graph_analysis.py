"""Unit and property tests for the graph-reachability analysis."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    GraphDamageAnalysis,
    analyze_damage,
)
from repro.analysis.faults import ControlCellBreak, MuxStuck, SegmentBreak
from repro.bench.generators import random_network
from repro.rsn.ast import elaborate
from repro.rsn.network import RsnNetwork
from repro.rsn.primitives import ControlUnit, SegmentRole
from repro.sim import structural_access
from repro.spec import random_spec, uniform_spec


def bridge_network():
    """The Wheatstone-bridge RSN (not series-parallel)."""
    net = RsnNetwork("bridge")
    net.add_scan_in()
    net.add_scan_out()
    net.add_segment("sel1", role=SegmentRole.CONTROL)
    net.add_fanout("f1")
    net.add_segment("a", instrument="ia")
    net.add_segment("b", instrument="ib")
    net.add_fanout("fa")
    net.add_mux("m1", fanin=2, control_cell="sel1")
    net.add_mux("m2", fanin=2, control_cell="sel1")
    net.add_segment("tail", instrument="it")
    for edge in [
        ("scan_in", "sel1"), ("sel1", "f1"), ("f1", "a"), ("f1", "b"),
        ("a", "fa"), ("fa", "m1"), ("b", "m1"), ("m1", "m2"),
        ("fa", "m2"), ("m2", "tail"), ("tail", "scan_out"),
    ]:
        net.add_edge(*edge)
    net.register_unit(
        ControlUnit("unit.sel1", muxes=["m1", "m2"], cells=["sel1"])
    )
    net.validate()
    return net


class TestOnSeriesParallel:
    def test_matches_fast_on_fig1(self, fig1_network, fig1_spec):
        fast = analyze_damage(fig1_network, fig1_spec)
        graph = GraphDamageAnalysis(fig1_network, fig1_spec).report()
        assert fast.total == pytest.approx(graph.total)
        for name in fast.primitive_damage:
            assert fast.primitive_damage[name] == pytest.approx(
                graph.primitive_damage[name]
            ), name

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=20_000))
    def test_matches_fast_on_random_networks(self, seed):
        network = elaborate(
            random_network(seed=seed, max_depth=2, max_items=3)
        )
        spec = random_spec(network.instrument_names(), seed=seed)
        fast = analyze_damage(network, spec)
        graph = GraphDamageAnalysis(network, spec).report()
        for name in fast.primitive_damage:
            assert fast.primitive_damage[name] == pytest.approx(
                graph.primitive_damage[name]
            ), name


class TestOnBridge:
    def test_backend_keyword_accepts_only_bitset(self):
        """``backend=`` survives with one value, for callers that still
        spell it; anything else is an error, not a silent reroute."""
        from repro.errors import ReproError

        network = bridge_network()
        spec = uniform_spec(network.instrument_names())
        assert GraphDamageAnalysis(network, spec, backend="bitset").route == (
            "bitset"
        )
        for backend in ("ir", "dict"):
            with pytest.raises(ReproError):
                GraphDamageAnalysis(network, spec, backend=backend)

    def test_report_computes(self):
        network = bridge_network()
        spec = uniform_spec(network.instrument_names())
        report = analyze_damage(network, spec)
        assert report.total > 0
        assert report.primitive_damage == (
            GraphDamageAnalysis(network, spec).report().primitive_damage
        )

    def test_a_has_redundant_routes(self):
        """The physical point of the bridge: 'a' reaches m2 directly AND
        through m1, so a single stuck mux never cuts it off."""
        network = bridge_network()
        spec = uniform_spec(network.instrument_names())
        analysis = GraphDamageAnalysis(network, spec)
        for mux, port in (("m1", 0), ("m1", 1), ("m2", 0), ("m2", 1)):
            effect = analysis.effect_of_fault(MuxStuck(mux, port))
            assert "a" not in effect.unobservable, (mux, port)

    def test_b_killed_by_either_mux(self):
        network = bridge_network()
        spec = uniform_spec(network.instrument_names())
        analysis = GraphDamageAnalysis(network, spec)
        effect = analysis.effect_of_fault(MuxStuck("m1", 0))
        assert "b" in effect.unobservable
        assert "b" in effect.unsettable

    def test_matches_oracle_for_every_fault(self):
        network = bridge_network()
        spec = uniform_spec(network.instrument_names())
        analysis = GraphDamageAnalysis(network, spec)
        instruments = set(network.instrument_names())
        faults = [
            SegmentBreak("a"),
            SegmentBreak("b"),
            SegmentBreak("tail"),
            MuxStuck("m1", 0),
            MuxStuck("m1", 1),
            MuxStuck("m2", 0),
            MuxStuck("m2", 1),
        ]
        for fault in faults:
            effect = analysis.effect_of_fault(fault)
            unobs, unset = effect.lost_instruments(network)
            access = structural_access(network, faults=[fault])
            assert instruments - access.observable == unobs, fault
            assert instruments - access.settable == unset, fault

    def test_cell_break_matches_oracle(self):
        network = bridge_network()
        spec = uniform_spec(network.instrument_names())
        analysis = GraphDamageAnalysis(network, spec)
        fault = ControlCellBreak("sel1")
        effect = analysis.effect_of_fault(fault)
        unobs, unset = effect.lost_instruments(network)
        access = structural_access(
            network,
            faults=[fault],
            assumed_ports=analysis.cell_stuck_ports("sel1"),
        )
        instruments = set(network.instrument_names())
        assert instruments - access.observable <= unobs
        assert instruments - access.settable <= unset


class TestNonSpPipeline:
    def test_selective_hardening_falls_back(self):
        from repro.core import SelectiveHardening

        network = bridge_network()
        synthesis = SelectiveHardening(network, seed=0)
        assert synthesis.tree is None
        result = synthesis.optimize(generations=30, population_size=16)
        assert len(result.objectives) >= 1

    def test_virtualized_tree_is_structural_only(self):
        from repro.analysis.effects import segment_break_effect
        from repro.errors import ReproError
        from repro.sp import decompose

        network = bridge_network()
        tree = decompose(network, virtualize=True)
        assert tree.is_virtualized
        assert len(tree.leaves_of("a")) >= 2
        with pytest.raises(ReproError):
            segment_break_effect(tree, "a")

    def test_virtualized_leaves_cover_all_primitives(self):
        from repro.sp import decompose

        network = bridge_network()
        tree = decompose(network, virtualize=True)
        canonical = {
            tree.canonical_name(leaf.primitive)
            for leaf in tree.primitive_leaves()
        }
        from repro.rsn.primitives import NodeKind

        expected = {
            node.name
            for node in network.nodes()
            if node.kind in (NodeKind.SEGMENT, NodeKind.MUX)
        }
        assert canonical == expected

    def test_duplication_budget_enforced(self):
        from repro.errors import NotSeriesParallelError
        from repro.sp import decompose

        network = bridge_network()
        with pytest.raises(NotSeriesParallelError):
            decompose(network, virtualize=True, max_duplications=0)


class TestVirtualizedTreeGuards:
    def test_fast_analysis_rejects_virtualized_tree(self):
        from repro.analysis.damage import FastDamageAnalysis
        from repro.errors import ReproError
        from repro.sp import decompose
        from repro.spec import uniform_spec

        network = bridge_network()
        tree = decompose(network, virtualize=True)
        spec = uniform_spec(network.instrument_names())
        with pytest.raises(ReproError):
            FastDamageAnalysis(network, spec, tree=tree)

    def test_mux_stuck_effect_rejects_virtualized_tree(self):
        from repro.analysis.effects import mux_stuck_effect
        from repro.errors import ReproError
        from repro.sp import decompose

        network = bridge_network()
        tree = decompose(network, virtualize=True)
        with pytest.raises(ReproError):
            mux_stuck_effect(tree, "m1", 0)
