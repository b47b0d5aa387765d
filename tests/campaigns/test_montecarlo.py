"""Monte-Carlo campaign tests: scalar seed-for-seed parity, vectorized
determinism, block-size invariance and checkpoint/resume bit-identity.

Every equality here is exact (``==``, never approx): the campaign's
per-rate mean must be bit-identical to the pre-campaign scalar loop,
and a resumed campaign must reproduce an uninterrupted one.
"""

import random

import pytest
from _reference_reach import ReferenceGraphAnalysis
from hypothesis import given, settings, strategies as st

from repro.analysis.faults import faults_of_primitive
from repro.analysis.graph_analysis import (
    GraphDamageAnalysis,
    expected_damage_under_rate,
)
from repro.bench import build_design
from repro.bench.generators import random_network
from repro.campaigns import MonteCarloPlan, run_monte_carlo
from repro.errors import ReproError
from repro.rsn.ast import elaborate
from repro.rsn.primitives import NodeKind
from repro.spec import random_spec, spec_for_network

seeds = st.integers(min_value=0, max_value=50_000)


def _build(seed):
    network = elaborate(random_network(seed=seed, max_depth=2, max_items=3))
    spec = random_spec(network.instrument_names(), seed=seed)
    return network, spec


def _old_expected_damage(network, spec, rate, samples, seed):
    """The pre-campaign implementation, preserved as the seed-for-seed
    oracle (solved on the IR BFS oracle instead of the kernel)."""
    analysis = ReferenceGraphAnalysis(network, spec)
    sites = [
        node.name
        for node in network.nodes()
        if node.kind in (NodeKind.SEGMENT, NodeKind.MUX)
    ]
    rng = random.Random(seed)
    fault_sets = []
    for _ in range(samples):
        faults = []
        for site in sites:
            if rng.random() < rate:
                candidates = faults_of_primitive(network, site)
                if candidates:
                    faults.append(rng.choice(candidates))
        if faults:
            fault_sets.append(faults)
    if not fault_sets:
        return 0.0
    return sum(analysis.damage_of_fault_sets(fault_sets)) / samples


def _record_lanes(analysis):
    """Collect every per-lane damage the campaign asks ``analysis``
    for, in call order."""
    lanes = []
    inner = analysis.damage_of_fault_sets

    def recorded(fault_sets):
        damages = inner(fault_sets)
        lanes.extend(damages)
        return damages

    analysis.damage_of_fault_sets = recorded
    return lanes


class TestScalarParity:
    @settings(deadline=None, max_examples=15)
    @given(seed=seeds, rate_seed=st.integers(0, 10_000))
    def test_seed_for_seed_equivalence(self, seed, rate_seed):
        network, spec = _build(seed)
        rate = random.Random(rate_seed).choice([0.005, 0.02, 0.1, 0.5])
        old = _old_expected_damage(
            network, spec, rate, samples=40, seed=rate_seed
        )
        new = expected_damage_under_rate(
            network, spec, rate, samples=40, seed=rate_seed
        )
        assert new == old

    def test_equivalence_on_design(self):
        network = build_design("TreeFlat")
        spec = spec_for_network(network, seed=0)
        for rate, seed in ((0.01, 0), (0.05, 3), (0.2, 7)):
            old = _old_expected_damage(
                network, spec, rate, samples=60, seed=seed
            )
            new = expected_damage_under_rate(
                network, spec, rate, samples=60, seed=seed
            )
            assert new == old

    def test_scalar_mean_invariant_under_block_size(self):
        """The scalar stream is blocking-independent: 63/64/65-lane
        blocks slice the same materialized sample list."""
        network = build_design("TreeFlat")
        spec = spec_for_network(network, seed=0)
        analysis = GraphDamageAnalysis(network, spec)
        results = []
        for block_lanes in (63, 64, 65, None):
            plan = MonteCarloPlan(
                rates=(0.05,),
                samples=130,
                seed=2,
                sampler="scalar",
                bootstrap=0,
                block_lanes=block_lanes,
            )
            record = run_monte_carlo(analysis, plan)["records"][0]
            results.append(record["mean_damage"])
        assert len(set(results)) == 1

    def test_rate_validation_message_preserved(self):
        network = build_design("TreeFlat")
        spec = spec_for_network(network, seed=0)
        with pytest.raises(ReproError, match=r"within \[0, 1\]"):
            expected_damage_under_rate(network, spec, 1.5)


class TestVectorizedSampler:
    def test_deterministic_across_runs(self):
        network = build_design("TreeFlat")
        spec = spec_for_network(network, seed=0)
        analysis = GraphDamageAnalysis(network, spec)
        plan = MonteCarloPlan(
            rates=(0.01, 0.05), samples=200, seed=1, sampler="vectorized"
        )
        first = run_monte_carlo(analysis, plan)
        second = run_monte_carlo(analysis, plan)
        assert first["records"] == second["records"]

    def test_backend_independent_stream(self):
        """The vectorized sampler never touches kernel state, so the same
        plan gives the same damage on every lane of every block on the
        kernel (which reads the array-form blocks directly) and on both
        BFS oracles (which read their materialized fault lists)."""
        network, spec = _build(11)
        plan = MonteCarloPlan(
            rates=(0.1,), samples=64, seed=5, sampler="vectorized",
            bootstrap=0, block_lanes=24,
        )
        lanes = {}
        means = []
        for backend, analysis in (
            ("bitset", GraphDamageAnalysis(network, spec)),
            ("ir", ReferenceGraphAnalysis(network, spec, backend="ir")),
            ("dict", ReferenceGraphAnalysis(network, spec, backend="dict")),
        ):
            lanes[backend] = _record_lanes(analysis)
            means.append(
                run_monte_carlo(analysis, plan)["records"][0]["mean_damage"]
            )
        assert len(lanes["bitset"]) == 64
        assert lanes["bitset"] == lanes["ir"] == lanes["dict"]
        assert means[0] == means[1] == means[2]

    def test_bootstrap_ci_deterministic_and_ordered(self):
        network = build_design("TreeFlat")
        spec = spec_for_network(network, seed=0)
        analysis = GraphDamageAnalysis(network, spec)
        plan = MonteCarloPlan(
            rates=(0.05,), samples=100, seed=3, bootstrap=100
        )
        rec1 = run_monte_carlo(analysis, plan)["records"][0]
        rec2 = run_monte_carlo(analysis, plan)["records"][0]
        assert (rec1["ci_low"], rec1["ci_high"]) == (
            rec2["ci_low"],
            rec2["ci_high"],
        )
        assert rec1["ci_low"] <= rec1["mean_damage"] <= rec1["ci_high"]

    def test_hardened_units_excluded(self):
        """Hardening every unit removes those sites; rate 1.0 then only
        faults the remaining primitives."""
        network = build_design("TreeFlat")
        spec = spec_for_network(network, seed=0)
        analysis = GraphDamageAnalysis(network, spec)
        all_sites = run_monte_carlo(
            analysis,
            MonteCarloPlan(rates=(1.0,), samples=8, seed=0, bootstrap=0),
        )
        hardened = run_monte_carlo(
            analysis,
            MonteCarloPlan(
                rates=(1.0,),
                samples=8,
                seed=0,
                bootstrap=0,
                hardened_units=tuple(network.unit_names()),
            ),
        )
        assert hardened["n_sites"] < all_sites["n_sites"]


class TestCheckpointResume:
    def _plan(self, sampler):
        return MonteCarloPlan(
            rates=(0.02, 0.1),
            samples=96,
            seed=4,
            sampler=sampler,
            block_lanes=16,
            bootstrap=50,
        )

    @pytest.mark.parametrize("sampler", ["scalar", "vectorized"])
    def test_killed_campaign_resumes_bit_identical(self, tmp_path, sampler):
        network = build_design("TreeFlat")
        spec = spec_for_network(network, seed=0)
        analysis = GraphDamageAnalysis(network, spec)
        plan = self._plan(sampler)
        reference = run_monte_carlo(analysis, plan)
        assert reference["blocks_total"] > 4

        path = str(tmp_path / f"mc-{sampler}.jsonl")
        calls = {"n": 0}

        # "Kill" the campaign by cancelling after three computed blocks.
        def cancelled():
            return calls["n"] >= 3

        def progress(fraction):
            calls["n"] += 1

        partial = run_monte_carlo(
            analysis,
            plan,
            checkpoint_path=path,
            progress=progress,
            cancelled=cancelled,
        )
        assert partial["outcome"] == "cancelled"
        assert 0 < partial["blocks_completed"] < reference["blocks_total"]

        resumed = run_monte_carlo(analysis, plan, checkpoint_path=path)
        assert resumed["outcome"] == "completed"
        assert resumed["blocks_resumed"] == partial["blocks_completed"]
        assert resumed["records"] == reference["records"]

    def test_no_resume_recomputes(self, tmp_path):
        network = build_design("TreeFlat")
        spec = spec_for_network(network, seed=0)
        analysis = GraphDamageAnalysis(network, spec)
        plan = self._plan("vectorized")
        path = str(tmp_path / "mc.jsonl")
        first = run_monte_carlo(analysis, plan, checkpoint_path=path)
        fresh = run_monte_carlo(
            analysis, plan, checkpoint_path=path, resume=False
        )
        assert fresh["blocks_resumed"] == 0
        assert fresh["records"] == first["records"]

    def test_plan_change_invalidates_checkpoint(self, tmp_path):
        network = build_design("TreeFlat")
        spec = spec_for_network(network, seed=0)
        analysis = GraphDamageAnalysis(network, spec)
        path = str(tmp_path / "mc.jsonl")
        run_monte_carlo(
            analysis, self._plan("vectorized"), checkpoint_path=path
        )
        other = MonteCarloPlan(
            rates=(0.02, 0.1),
            samples=96,
            seed=5,  # different seed -> different campaign key
            sampler="vectorized",
            block_lanes=16,
            bootstrap=50,
        )
        rerun = run_monte_carlo(analysis, other, checkpoint_path=path)
        assert rerun["blocks_resumed"] == 0

    def test_progress_reaches_one(self):
        network = build_design("TreeFlat")
        spec = spec_for_network(network, seed=0)
        analysis = GraphDamageAnalysis(network, spec)
        fractions = []
        run_monte_carlo(
            analysis, self._plan("vectorized"), progress=fractions.append
        )
        assert fractions[-1] == 1.0
        assert fractions == sorted(fractions)
