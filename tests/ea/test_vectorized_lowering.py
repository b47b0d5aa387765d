"""Properties of the vectorized genome lowering and streaming sweeps.

:class:`PopulationLowering` must produce the *same packed word masks*
the kernel builds from per-genome ``_state_of`` tuples — then everything
downstream (sweeps, damages) is the same computation, so equality is
``==``, never approx.  Streaming the memo misses in lane blocks must be
invisible in the results for any block size.
"""

import numpy as np
import pytest
from _reference_reach import ReferenceGraphAnalysis
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.graph_analysis import GraphDamageAnalysis
from repro.core.lowering import PopulationLowering
from repro.core.problem import FaultSetHardeningProblem
from repro.ea import init_population
from repro.errors import OptimizationError
from repro.spec.cost_model import GateCountCost

from test_batched_eval import _build_any, _scalar_objectives

seeds = st.integers(min_value=0, max_value=50_000)


def _bitset_problem(seed, bridge, lowering="vectorized", **kwargs):
    network, spec = _build_any(seed, bridge)
    analysis = GraphDamageAnalysis(
        network, spec, chunk_lanes=kwargs.pop("chunk_lanes", 64)
    )
    problem = FaultSetHardeningProblem(
        network, analysis.report(), GateCountCost(), analysis,
        lowering=lowering, **kwargs,
    )
    return network, spec, problem


def _population_with_extremes(rng, population, n_vars):
    genomes = init_population(rng, population, n_vars)
    genomes[0] = False  # all-zeros: every candidate faulty at once
    genomes[-1] = True  # all-ones: no residual fault
    return genomes


# ---------------------------------------------------------------------------
# masks: vectorized lowering == per-genome tuple lowering, word-identical
# ---------------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(seed=seeds, bridge=st.booleans(), pop_seed=seeds)
def test_lowered_masks_match_tuple_path(seed, bridge, pop_seed):
    _, _, problem = _bitset_problem(seed, bridge)
    kernel = problem._analysis._batch
    genomes = _population_with_extremes(
        np.random.default_rng(pop_seed), 19, problem.n_vars
    )
    states = [
        kernel.canonical_state(*problem._state_of(genome))
        for genome in genomes
    ]
    prop, alive, _ = kernel._masks(states)
    packed = problem.lower_packed(genomes)
    assert np.array_equal(packed.dead, ~alive)
    if prop is None:
        assert packed.broken is None
    else:
        assert packed.broken is not None
        assert np.array_equal(packed.broken, ~prop)


# ---------------------------------------------------------------------------
# vectorized == _state_of == damage_of_faults(residual_faults(g))
# ---------------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    seed=seeds,
    bridge=st.booleans(),
    pop_seed=seeds,
    hardenable=st.sampled_from(["all", "control"]),
)
def test_vectorized_matches_scalar_references(
    seed, bridge, pop_seed, hardenable
):
    try:
        network, spec, vectorized = _bitset_problem(
            seed, bridge, hardenable=hardenable
        )
    except OptimizationError:
        # a random SP network without control units has no candidates
        # under hardenable="control"
        assume(False)
    _, _, tuples = _bitset_problem(
        seed, bridge, lowering="scalar", hardenable=hardenable
    )
    assert vectorized._vectorized and not tuples._vectorized
    scalar = ReferenceGraphAnalysis(network, spec)
    genomes = _population_with_extremes(
        np.random.default_rng(pop_seed), 17, vectorized.n_vars
    )
    expected = _scalar_objectives(vectorized, scalar, genomes)
    assert np.array_equal(vectorized.evaluate(genomes), expected)
    assert np.array_equal(tuples.evaluate(genomes), expected)


# ---------------------------------------------------------------------------
# lane boundaries and streaming invariance
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("population", [63, 64, 65])
def test_lane_boundaries_under_streaming(population):
    """Populations around the 64-lane word boundary, streamed in
    single-word blocks (chunk_lanes=1 + a tiny budget force 64-lane
    blocks, so 65 genomes take two)."""
    network, spec, problem = _bitset_problem(
        7, True, chunk_lanes=1, max_lane_mb=0.001
    )
    assert problem._lane_block() == 64
    scalar = ReferenceGraphAnalysis(network, spec)
    genomes = _population_with_extremes(
        np.random.default_rng(1), population, problem.n_vars
    )
    assert np.array_equal(
        problem.evaluate(genomes),
        _scalar_objectives(problem, scalar, genomes),
    )


@settings(max_examples=10, deadline=None)
@given(seed=seeds, bridge=st.booleans(), pop_seed=seeds)
def test_streaming_block_size_is_invisible(seed, bridge, pop_seed):
    """Chunked and unchunked sweeps of the same cold population are
    bit-identical (fresh problems, so every genome is a memo miss)."""
    _, _, streamed = _bitset_problem(seed, bridge, max_lane_mb=0.001)
    _, _, unchunked = _bitset_problem(seed, bridge, max_lane_mb=None)
    assert unchunked._lane_block() is None
    genomes = _population_with_extremes(
        np.random.default_rng(pop_seed), 150, streamed.n_vars
    )
    assert np.array_equal(
        streamed.evaluate(genomes), unchunked.evaluate(genomes)
    )


def test_lane_block_respects_budget_and_capacity():
    _, _, problem = _bitset_problem(3, False, chunk_lanes=2)
    problem.max_lane_mb = 1e-9  # absurdly small: floors at one word
    assert problem._lane_block() == 64
    problem.max_lane_mb = 1e9  # absurdly large: kernel chunk bounds it
    assert problem._lane_block() == 128
    problem.max_lane_mb = None  # streaming disabled
    assert problem._lane_block() is None


# ---------------------------------------------------------------------------
# pin-resolution invariant on a contested mux
# ---------------------------------------------------------------------------
def _reference_state(candidate_states, genome):
    """Reimplementation of the ``_state_of`` merge loop: breaks
    accumulate, override pins assign, non-override pins setdefault."""
    broken, forced = [], {}
    for index in np.flatnonzero(~np.asarray(genome, dtype=bool)):
        more_broken, pins, override = candidate_states[index]
        broken.extend(more_broken)
        if override:
            for mux_id, port in pins:
                forced[mux_id] = port
        else:
            for mux_id, port in pins:
                forced.setdefault(mux_id, port)
    return tuple(broken), tuple(forced.items())


def test_contested_mux_priority_resolution():
    """Several candidates pinning the same mux: the vectorized priority
    scan must reproduce override-beats-setdefault, last-override-wins,
    first-setdefault-wins — exhaustively over every genome."""
    _, _, problem = _bitset_problem(3, True)
    kernel = problem._analysis._batch
    ir = problem._analysis.ir
    m1, m2 = ir.id_of("m1"), ir.id_of("m2")
    a = ir.id_of("a")
    candidate_states = [
        # duplicate non-override pins inside one candidate: first wins
        ((a,), ((m1, 1), (m1, 0)), False),
        ((), ((m1, 0), (m2, 1)), True),
        # a later override candidate beats an earlier one
        ((), ((m1, 1),), True),
        # setdefault never beats an active override
        ((), ((m2, 0),), False),
    ]
    lowering = PopulationLowering(ir, candidate_states, len(candidate_states))
    assert lowering._contested_spans  # the fallback path is exercised
    genomes = np.array(
        [
            [bool(code >> bit & 1) for bit in range(len(candidate_states))]
            for code in range(2 ** len(candidate_states))
        ]
    )
    states = [
        kernel.canonical_state(*_reference_state(candidate_states, genome))
        for genome in genomes
    ]
    prop, alive, _ = kernel._masks(states)
    packed = lowering.masks(genomes)
    assert np.array_equal(packed.dead, ~alive)
    assert np.array_equal(packed.broken, ~prop)
    expected = kernel.damage_of_states(
        [_reference_state(candidate_states, genome) for genome in genomes]
    )
    assert np.array_equal(kernel.damage_of_packed(packed), expected)

