"""Exhaustive k-fault campaign tests.

Parity against ``damage_of_fault_sets`` over the full enumeration on
series-parallel *and* non-series-parallel networks, lane-block
boundaries at 63/64/65 combinations, budgets, and checkpoint/resume
bit-identity.
"""

import math
import random
from itertools import combinations

import pytest
from _reference_reach import ReferenceGraphAnalysis
from hypothesis import given, settings, strategies as st

from repro.analysis.graph_analysis import GraphDamageAnalysis
from repro.bench import build_design
from repro.bench.generators import random_network
from repro.campaigns import KFaultPlan, fault_universe, run_k_fault
from repro.rsn.ast import elaborate
from repro.rsn.network import RsnNetwork
from repro.rsn.primitives import ControlUnit, SegmentRole
from repro.spec import random_spec, spec_for_network

seeds = st.integers(min_value=0, max_value=50_000)


def _build(seed):
    network = elaborate(random_network(seed=seed, max_depth=2, max_items=3))
    spec = random_spec(network.instrument_names(), seed=seed)
    return network, spec


def _build_bridge(seed):
    """A seeded non-series-parallel (Wheatstone) network."""
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
    net.add_segment("tail0", length=2, instrument="it0")
    net.add_edge("m2", "tail0")
    net.add_edge("tail0", "scan_out")
    net.register_unit(
        ControlUnit("unit.sel1", muxes=["m1", "m2"], cells=["sel1"])
    )
    net.validate()
    spec = random_spec(net.instrument_names(), seed=seed)
    return net, spec


def _direct(analysis, universe, k):
    combos = list(combinations(universe, k))
    return combos, analysis.damage_of_fault_sets(combos)


class TestParity:
    @settings(deadline=None, max_examples=10)
    @given(seed=seeds, bridge=st.booleans())
    def test_full_enumeration_matches_direct(self, seed, bridge):
        network, spec = (
            _build_bridge(seed) if bridge else _build(seed)
        )
        analysis = GraphDamageAnalysis(network, spec)
        universe = fault_universe(network, "all")
        combos, direct = _direct(
            ReferenceGraphAnalysis(network, spec), universe, 2
        )
        result = run_k_fault(analysis, KFaultPlan(k=2, top=10))
        summary = result["summary"]
        assert summary["combinations_evaluated"] == len(combos)
        assert summary["max_damage"] == (max(direct) if direct else 0.0)
        assert summary["mean_damage"] == (
            sum(direct) / len(direct) if direct else 0.0
        )
        # Worst retained combination carries the true maximum.
        if summary["top"]:
            assert summary["top"][0]["damage"] == max(direct)

    def test_site_filters(self):
        network = build_design("TreeFlat")
        assert len(fault_universe(network, "segments")) + len(
            fault_universe(network, "muxes")
        ) == len(fault_universe(network, "all"))

    def test_k1_matches_single_fault_damages(self):
        network, spec = _build(7)
        analysis = GraphDamageAnalysis(network, spec)
        universe = fault_universe(network, "all")
        singles = ReferenceGraphAnalysis(network, spec).damage_of_fault_sets(
            [(f,) for f in universe]
        )
        result = run_k_fault(analysis, KFaultPlan(k=1, top=5))
        assert result["summary"]["max_damage"] == max(singles)


class TestBlockBoundaries:
    @pytest.mark.parametrize("block_lanes", [63, 64, 65])
    def test_boundary_block_sizes_identical(self, block_lanes):
        """Results are invariant when blocks split exactly at, just
        below, and just above the 64-lane word boundary."""
        network, spec = _build(3)
        analysis = GraphDamageAnalysis(network, spec)
        baseline = run_k_fault(analysis, KFaultPlan(k=2, top=8))
        result = run_k_fault(
            analysis, KFaultPlan(k=2, top=8, block_lanes=block_lanes)
        )
        assert result["summary"] == baseline["summary"]

    def test_exact_63_64_65_combination_counts(self):
        """Universes sized so C(n, 2) lands on 63/66/64-ish block edges:
        cap the enumeration to exactly 63, 64 and 65 combinations and
        check each against the direct prefix."""
        network, spec = _build(9)
        analysis = GraphDamageAnalysis(network, spec)
        universe = fault_universe(network, "all")
        total = math.comb(len(universe), 2)
        combos, direct = _direct(analysis, universe, 2)
        for cap in (63, 64, 65):
            if cap > total:
                pytest.skip("universe too small for the boundary caps")
            result = run_k_fault(
                analysis,
                KFaultPlan(
                    k=2, top=5, max_combinations=cap, block_lanes=64
                ),
            )
            summary = result["summary"]
            prefix = direct[:cap]
            assert summary["combinations_evaluated"] == cap
            assert summary["truncated"] == (cap < total)
            assert summary["max_damage"] == max(prefix)
            assert summary["mean_damage"] == sum(prefix) / cap


class TestBudgets:
    def test_time_budget_truncates(self):
        network, spec = _build(5)
        analysis = GraphDamageAnalysis(network, spec)
        # One combination per block, and a deadline that expires before
        # the second block starts.
        result = run_k_fault(
            analysis,
            KFaultPlan(k=2, top=5, max_seconds=1e-9, block_lanes=1),
        )
        assert result["outcome"] == "truncated"
        assert result["summary"]["truncated"]
        assert "time budget" in result["truncated_reason"]

    def test_cardinality_budget_marks_truncated(self):
        network, spec = _build(5)
        analysis = GraphDamageAnalysis(network, spec)
        result = run_k_fault(
            analysis, KFaultPlan(k=2, top=5, max_combinations=10)
        )
        assert result["summary"]["combinations_evaluated"] == 10
        assert result["summary"]["truncated"]
        assert result["outcome"] == "completed"


class TestCheckpointResume:
    def test_resume_bit_identical(self, tmp_path):
        network, spec = _build(13)
        analysis = GraphDamageAnalysis(network, spec)
        plan = KFaultPlan(k=2, top=8, block_lanes=16)
        reference = run_k_fault(analysis, plan)
        assert reference["blocks_total"] > 3

        path = str(tmp_path / "kfault.jsonl")
        computed = {"n": 0}

        def cancelled():
            return computed["n"] >= 2

        def progress(fraction):
            computed["n"] += 1

        partial = run_k_fault(
            analysis,
            plan,
            checkpoint_path=path,
            progress=progress,
            cancelled=cancelled,
        )
        assert partial["outcome"] == "cancelled"
        resumed = run_k_fault(analysis, plan, checkpoint_path=path)
        assert resumed["outcome"] == "completed"
        assert resumed["blocks_resumed"] == partial["blocks_completed"]
        assert resumed["summary"] == reference["summary"]

    def test_fully_checkpointed_run_replays_everything(self, tmp_path):
        network, spec = _build(13)
        analysis = GraphDamageAnalysis(network, spec)
        plan = KFaultPlan(k=2, top=8, block_lanes=16)
        path = str(tmp_path / "kfault.jsonl")
        first = run_k_fault(analysis, plan, checkpoint_path=path)
        replay = run_k_fault(analysis, plan, checkpoint_path=path)
        assert replay["blocks_resumed"] == replay["blocks_total"]
        assert replay["summary"] == first["summary"]
