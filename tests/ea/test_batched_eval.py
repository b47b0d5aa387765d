"""Parity and property tests of population-batched EA evaluation.

:class:`FaultSetHardeningProblem` lowers every genome to one residual
fault-set state and sweeps whole populations through
``damage_of_states`` — one bitset lane per unique genome.  Everything it
reports must be *bit-identical* (``==``, never approx) to the scalar
path: one ``damage_of_faults(residual_faults(genome))`` call per genome
through the per-fault BFS oracle of ``_reference_reach``.
"""

import random

import numpy as np
import pytest
from _reference_reach import ReferenceGraphAnalysis
from hypothesis import given, settings, strategies as st

from repro.analysis.graph_analysis import GraphDamageAnalysis
from repro.bench.generators import random_network
from repro.core.problem import FaultSetHardeningProblem
from repro.ea import SPEA2, EvaluationMemo, init_population
from repro.rsn.ast import elaborate
from repro.rsn.network import RsnNetwork
from repro.rsn.primitives import ControlUnit, SegmentRole
from repro.spec import random_spec
from repro.spec.cost_model import GateCountCost

seeds = st.integers(min_value=0, max_value=50_000)


def _build(seed):
    network = elaborate(random_network(seed=seed, max_depth=2, max_items=3))
    spec = random_spec(network.instrument_names(), seed=seed)
    return network, spec


def _build_bridge(seed):
    """A seeded non-series-parallel network (the Wheatstone-bridge shape
    of ``tests/analysis/test_batch.py``)."""
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


def _problems(seed, bridge, **kwargs):
    """The same fault-set problem twice: as production builds it (bitset
    kernel, vectorized lowering), and with per-genome tuple lowering over
    the IR BFS oracle."""
    network, spec = _build_any(seed, bridge)
    built = []
    for analysis, lowering in (
        (GraphDamageAnalysis(network, spec), "vectorized"),
        (ReferenceGraphAnalysis(network, spec), "scalar"),
    ):
        built.append(
            FaultSetHardeningProblem(
                network, analysis.report(), GateCountCost(), analysis,
                lowering=lowering, **kwargs,
            )
        )
    return built


def _scalar_objectives(problem, analysis, genomes):
    """The pre-batching path: per-genome fault multiset + scalar sweep."""
    rows = []
    for genome in np.asarray(genomes, dtype=bool):
        cost = float(genome.astype(float) @ problem.costs)
        damage = analysis.damage_of_faults(problem.residual_faults(genome))
        rows.append([cost, damage])
    return np.asarray(rows, dtype=float)


# ---------------------------------------------------------------------------
# batched == scalar, property-based
# ---------------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(seed=seeds, bridge=st.booleans(), pop_seed=seeds)
def test_batched_matches_scalar(seed, bridge, pop_seed):
    batched, scalar = _problems(seed, bridge)
    genomes = init_population(
        np.random.default_rng(pop_seed), 17, batched.n_vars
    )
    expected = _scalar_objectives(
        batched, scalar._analysis, genomes
    )
    assert np.array_equal(batched.evaluate(genomes), expected)
    # The oracle-backed problem's per-state loop agrees too.
    assert np.array_equal(scalar.evaluate(genomes), expected)


@settings(max_examples=10, deadline=None)
@given(seed=seeds, bridge=st.booleans())
def test_extremes_match_scalar(seed, bridge):
    """max/floor damage are the all-zeros / all-ones joint damages."""
    batched, scalar = _problems(seed, bridge)
    zeros = np.zeros(batched.n_vars, dtype=bool)
    ones = np.ones(batched.n_vars, dtype=bool)
    assert batched.max_damage == scalar._analysis.damage_of_faults(
        batched.residual_faults(zeros)
    )
    assert batched.floor_damage == scalar._analysis.damage_of_faults(
        batched.residual_faults(ones)
    )
    assert batched.max_damage == scalar.max_damage
    assert batched.floor_damage == scalar.floor_damage


# ---------------------------------------------------------------------------
# lane boundaries
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("population", [63, 64, 65])
def test_lane_boundary_populations(population):
    """Populations around the 64-lane word boundary, single-word chunks
    (chunk_lanes=1 forces multi-chunk sweeps at 65 genomes)."""
    network, spec = _build_any(7, True)
    analysis = GraphDamageAnalysis(network, spec, chunk_lanes=1)
    problem = FaultSetHardeningProblem(
        network, analysis.report(), GateCountCost(), analysis
    )
    scalar = ReferenceGraphAnalysis(network, spec)
    genomes = init_population(
        np.random.default_rng(1), population, problem.n_vars
    )
    assert np.array_equal(
        problem.evaluate(genomes),
        _scalar_objectives(problem, scalar, genomes),
    )


# ---------------------------------------------------------------------------
# incremental re-evaluation
# ---------------------------------------------------------------------------
def test_memo_reevaluates_only_changed_genomes():
    batched, _ = _problems(11, True)
    rng = np.random.default_rng(3)
    genomes = init_population(rng, 40, batched.n_vars)
    unique = len({key for key in EvaluationMemo.keys_of(genomes)})

    swept_baseline = batched.counters["states_swept"]  # ctor extremes
    first = batched.evaluate(genomes)
    swept_first = batched.counters["states_swept"] - swept_baseline
    assert 0 < swept_first <= unique

    # Unchanged population: every genome memo-hits, nothing is swept.
    assert np.array_equal(batched.evaluate(genomes), first)
    assert batched.counters["states_swept"] == swept_baseline + swept_first

    # Mutate a handful of rows: only the changed unique genomes sweep.
    mutated = genomes.copy()
    flipped = [0, 3, 9]
    for row in flipped:
        mutated[row, rng.integers(batched.n_vars)] ^= True
    before = batched.counters["states_swept"]
    second = batched.evaluate(mutated)
    fresh = {
        key
        for row, key in enumerate(EvaluationMemo.keys_of(mutated))
        if row in flipped
    }
    assert batched.counters["states_swept"] - before <= len(fresh)
    untouched = [r for r in range(len(genomes)) if r not in flipped]
    assert np.array_equal(second[untouched], first[untouched])


def test_memo_eviction_keeps_results_exact():
    """A tiny memo forces re-sweeps; results must not change."""
    batched, _ = _problems(5, False, max_memo_entries=4)
    genomes = init_population(np.random.default_rng(2), 12, batched.n_vars)
    first = batched.evaluate(genomes)
    assert np.array_equal(batched.evaluate(genomes), first)
    assert len(batched.memo) <= 4


def test_duplicate_genomes_share_one_lane():
    batched, _ = _problems(13, True)
    genome = init_population(np.random.default_rng(5), 2, batched.n_vars)[:1]
    population = np.repeat(genome, 24, axis=0)
    before = batched.counters["states_swept"]
    objectives = batched.evaluate(population)
    assert batched.counters["states_swept"] - before <= 1
    assert np.array_equal(objectives, np.repeat(objectives[:1], 24, axis=0))


# ---------------------------------------------------------------------------
# whole-EA trajectory parity
# ---------------------------------------------------------------------------
@settings(max_examples=5, deadline=None)
@given(seed=seeds, bridge=st.booleans())
def test_spea2_front_parity_across_backends(seed, bridge):
    """Identical SPEA-2 runs over the production problem and the
    scalar-lowered problem over the IR BFS oracle: only the lowering and
    the state sweep differ, so archives, fronts and objective
    trajectories must be bit-identical."""
    fronts = []
    for problem in _problems(seed, bridge):
        result = SPEA2(problem, population_size=16, seed=0).run(4)
        fronts.append((result.front(), result.history))
    (b_front, b_history), (s_front, s_history) = fronts
    assert np.array_equal(b_front[0], s_front[0])
    assert np.array_equal(b_front[1], s_front[1])
    assert b_history == s_history
