"""Diagnosis campaign tests: packed-matrix ranking parity against the
scalar per-fault loop, effect-signature parity against the BFS oracle, packing
round-trips, ambiguity statistics and checkpoint/resume determinism.
"""

import numpy as np
import pytest
from _reference_reach import ReferenceGraphAnalysis
from hypothesis import given, settings, strategies as st

from repro.analysis.faults import fault_sort_key, iter_all_faults
from repro.analysis.graph_analysis import GraphDamageAnalysis
from repro.bench import build_design
from repro.bench.generators import fig1_example, random_network
from repro.campaigns import (
    DiagnosisPlan,
    SignatureMatrix,
    effect_signature_matrix,
    jaccard_rank_scalar,
    run_diagnosis,
    sequence_signature_matrix,
)
from repro.campaigns.signatures import _pack_rows
from repro.rsn.ast import elaborate
from repro.spec import random_spec, spec_for_network

seeds = st.integers(min_value=0, max_value=50_000)


def _build(seed):
    network = elaborate(random_network(seed=seed, max_depth=2, max_items=3))
    spec = random_spec(network.instrument_names(), seed=seed)
    return network, spec


def _matrix_sets(matrix):
    """Set-form signatures recovered from the packed matrix."""
    return {
        fault: frozenset(
            label
            for label, bit in zip(matrix.labels, matrix._bits[row])
            if bit
        )
        for row, fault in enumerate(matrix.faults)
    }


class TestPacking:
    def test_pack_rows_popcounts(self):
        rng = np.random.default_rng(0)
        bits = (rng.random((17, 150)) < 0.3).astype(np.uint8)
        words = _pack_rows(bits)
        assert words.shape == (17, 3)  # ceil(150 / 64)
        popcounts = np.array(
            [bin(int(w)).count("1") for row in words for w in row]
        ).reshape(17, 3)
        assert (popcounts.sum(axis=1) == bits.sum(axis=1)).all()

    def test_unknown_positions_count_into_union_only(self):
        network = fig1_example()
        spec = spec_for_network(network, seed=0)
        analysis = GraphDamageAnalysis(network, spec)
        matrix = effect_signature_matrix(analysis)
        sets = _matrix_sets(matrix)
        fault = matrix.faults[0]
        observed = set(sets[fault]) | {("unobs", "no-such-primitive")}
        bits, sizes, unknown = matrix.pack_observations([observed])
        assert unknown[0] == 1
        assert sizes[0] == len(observed)
        # The foreign position shrinks every score (bigger union).
        batched = matrix.rank([observed], top=len(matrix))[0]
        scalar = jaccard_rank_scalar(sets, observed, top=len(matrix))
        assert batched == scalar


class TestBatchedScalarParity:
    @settings(deadline=None, max_examples=10)
    @given(seed=seeds, obs_seed=st.integers(0, 10_000))
    def test_rank_matches_scalar_loop(self, seed, obs_seed):
        network, spec = _build(seed)
        analysis = GraphDamageAnalysis(network, spec)
        matrix = effect_signature_matrix(analysis)
        sets = _matrix_sets(matrix)
        rng = np.random.default_rng(obs_seed)
        observations = []
        for _ in range(5):
            truth = matrix.faults[int(rng.integers(0, len(matrix)))]
            observed = {
                pos for pos in sets[truth] if rng.random() > 0.2
            }
            observations.append(observed)
        batched = matrix.rank(observations, top=len(matrix))
        for observed, ranking in zip(observations, batched):
            assert ranking == jaccard_rank_scalar(
                sets, observed, top=len(matrix)
            )

    def test_row_order_is_structural(self):
        network, spec = _build(1)
        analysis = GraphDamageAnalysis(network, spec)
        matrix = effect_signature_matrix(analysis)
        keys = [fault_sort_key(f) for f in matrix.faults]
        assert keys == sorted(keys)

    def test_empty_observation_scores(self):
        """Empty-vs-empty is a perfect match (score 1.0); empty-vs-
        non-empty scores 0 — same as the scalar set arithmetic."""
        network, spec = _build(2)
        analysis = GraphDamageAnalysis(network, spec)
        matrix = effect_signature_matrix(analysis)
        sets = _matrix_sets(matrix)
        assert matrix.rank([frozenset()], top=len(matrix))[
            0
        ] == jaccard_rank_scalar(sets, frozenset(), top=len(matrix))


class TestEffectSignatures:
    @settings(deadline=None, max_examples=8)
    @given(seed=seeds)
    def test_kernel_effects_match_scalar_backend(self, seed):
        """The lane-packed ``fault_effect_bits`` path (bitset) and the
        per-fault ``effect_of_fault`` path over the IR BFS oracle build
        identical matrices."""
        network, spec = _build(seed)
        bitset = effect_signature_matrix(
            GraphDamageAnalysis(network, spec)
        )
        scalar = effect_signature_matrix(
            ReferenceGraphAnalysis(network, spec)
        )
        assert bitset.faults == scalar.faults
        assert bitset.labels == scalar.labels
        assert (bitset._bits == scalar._bits).all()

    def test_effects_match_effect_of_fault(self):
        network, spec = _build(4)
        analysis = GraphDamageAnalysis(network, spec)
        matrix = effect_signature_matrix(analysis)
        sets = _matrix_sets(matrix)
        for fault in list(iter_all_faults(network))[:20]:
            effect = analysis.effect_of_fault(fault)
            expected = {("unobs", n) for n in effect.unobservable} | {
                ("unset", n) for n in effect.unsettable
            }
            assert sets[fault] == expected

    def test_sequence_matrix_on_fig1(self):
        network = fig1_example()
        spec = spec_for_network(network, seed=0)
        analysis = GraphDamageAnalysis(network, spec)
        matrix = sequence_signature_matrix(analysis)
        assert len(matrix) == len(list(iter_all_faults(network)))


class TestAmbiguity:
    def test_groups_sorted_and_disjoint(self):
        network, spec = _build(6)
        analysis = GraphDamageAnalysis(network, spec)
        matrix = effect_signature_matrix(analysis)
        groups = matrix.ambiguity_groups()
        sizes = [len(g) for g in groups]
        assert sizes == sorted(sizes, reverse=True)
        assert all(size > 1 for size in sizes)
        seen = set()
        for group in groups:
            for fault in group:
                assert fault not in seen
                seen.add(fault)
        assert 0.0 <= matrix.resolution() <= 1.0

    def test_resolution_accounts_for_groups(self):
        network, spec = _build(6)
        analysis = GraphDamageAnalysis(network, spec)
        matrix = effect_signature_matrix(analysis)
        detected = int((matrix.sizes > 0).sum())
        ambiguous = sum(len(g) for g in matrix.ambiguity_groups())
        assert matrix.resolution() == (detected - ambiguous) / detected


class TestCampaign:
    def test_summary_fields_and_determinism(self):
        network = build_design("TreeFlat")
        spec = spec_for_network(network, seed=0)
        analysis = GraphDamageAnalysis(network, spec)
        plan = DiagnosisPlan(observations=90, seed=0, block_lanes=32)
        first = run_diagnosis(analysis, plan)
        second = run_diagnosis(analysis, plan)
        assert first["summary"] == second["summary"]
        summary = first["summary"]
        assert summary["observations_evaluated"] == 90
        assert 0.0 <= summary["rank1_accuracy"] <= summary[
            "topk_accuracy"
        ] <= 1.0
        assert first["examples"]  # block 0 carries worked examples

    def test_noiseless_observations_rank_truth_by_resolution(self):
        """With no noise, rank-1 accuracy is bounded below by the
        resolution: a uniquely-signed truth always ranks first."""
        network = build_design("TreeFlat")
        spec = spec_for_network(network, seed=0)
        analysis = GraphDamageAnalysis(network, spec)
        matrix = effect_signature_matrix(analysis)
        result = run_diagnosis(
            analysis, DiagnosisPlan(observations=200, seed=1)
        )
        assert (
            result["summary"]["rank1_accuracy"]
            >= matrix.resolution() - 1e-12
        )

    def test_noise_plan_deterministic(self):
        network = build_design("TreeFlat")
        spec = spec_for_network(network, seed=0)
        analysis = GraphDamageAnalysis(network, spec)
        plan = DiagnosisPlan(observations=64, seed=2, noise=0.3)
        assert (
            run_diagnosis(analysis, plan)["summary"]
            == run_diagnosis(analysis, plan)["summary"]
        )

    def test_checkpoint_resume_bit_identical(self, tmp_path):
        network = build_design("TreeFlat")
        spec = spec_for_network(network, seed=0)
        analysis = GraphDamageAnalysis(network, spec)
        plan = DiagnosisPlan(observations=96, seed=3, block_lanes=16)
        reference = run_diagnosis(analysis, plan)
        assert reference["blocks_total"] == 6

        path = str(tmp_path / "diag.jsonl")
        computed = {"n": 0}

        def cancelled():
            return computed["n"] >= 2

        def progress(fraction):
            computed["n"] += 1

        partial = run_diagnosis(
            analysis,
            plan,
            checkpoint_path=path,
            progress=progress,
            cancelled=cancelled,
        )
        assert partial["outcome"] == "cancelled"
        resumed = run_diagnosis(analysis, plan, checkpoint_path=path)
        assert resumed["outcome"] == "completed"
        assert resumed["blocks_resumed"] == partial["blocks_completed"]
        assert resumed["summary"] == reference["summary"]

    def test_shared_matrix_short_circuit(self):
        network = build_design("TreeFlat")
        spec = spec_for_network(network, seed=0)
        analysis = GraphDamageAnalysis(network, spec)
        matrix = effect_signature_matrix(analysis)
        plan = DiagnosisPlan(observations=30, seed=0)
        direct = run_diagnosis(analysis, plan)
        shared = run_diagnosis(analysis, plan, matrix=matrix)
        assert shared["summary"] == direct["summary"]
