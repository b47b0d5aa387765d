"""Parity of the array-form decomposition with the object reducer.

``repro.sp.decompose`` contracts serial runs with numpy and reduces only
the contracted multigraph; ``_reference_reduce`` is the vertex-by-vertex
object reducer it replaced.  The two must agree on everything the
analyses read: the serial leaf order (wire leaves included), every mux's
ports -> ``(lo, hi)`` branch table, every leaf's ``branch_root`` range and
every primitive's ``parent_mux`` — and the O(N) DP on the arrays must
reproduce the explicit per-fault reference exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _nonsp_networks import bridge_network, stem_bridge_network
from _reference_reduce import (
    array_structure,
    reference_decompose,
    reference_structure,
)
from repro.analysis.damage import ExplicitDamageAnalysis, FastDamageAnalysis
from repro.bench import MEDIUM_DESIGNS, build_design
from repro.bench.generators import random_network
from repro.errors import NotSeriesParallelError
from repro.rsn.ast import elaborate
from repro.sp import decompose
from repro.sp.tree import PARALLEL, RUN, SERIES, WIRE
from repro.spec import random_spec, spec_for_network

seeds = st.integers(min_value=0, max_value=100_000)


def _assert_same_structure(network, virtualize=False):
    reference = reference_decompose(network, virtualize=virtualize)
    tree = decompose(network, virtualize=virtualize)
    assert tree.aliases == reference.aliases
    expected = reference_structure(reference)
    actual = array_structure(tree)
    for key in ("leaves", "branches", "branch_ranges", "parent_mux"):
        assert actual[key] == expected[key], key


@pytest.mark.parametrize("design", MEDIUM_DESIGNS + ["MBIST_2_20_20"])
def test_structure_matches_reference_on_designs(design):
    _assert_same_structure(build_design(design))


@settings(max_examples=60, deadline=None)
@given(seed=seeds)
def test_structure_matches_reference_on_random_networks(seed):
    _assert_same_structure(elaborate(random_network(seed=seed)))
    _assert_same_structure(
        elaborate(random_network(seed=seed, max_depth=2, max_items=3))
    )


@pytest.mark.parametrize("design", MEDIUM_DESIGNS)
def test_fast_report_equals_explicit_on_designs(design):
    network = build_design(design)
    spec = spec_for_network(network, seed=0)
    tree = decompose(network)
    fast = FastDamageAnalysis(network, spec, tree=tree).report()
    explicit = ExplicitDamageAnalysis(network, spec, tree=tree).report()
    assert fast.primitive_damage == explicit.primitive_damage
    assert fast.unit_damage == explicit.unit_damage


@settings(max_examples=60, deadline=None)
@given(seed=seeds)
def test_fast_report_equals_explicit_on_random_networks(seed):
    network = elaborate(random_network(seed=seed))
    spec = random_spec(network.instrument_names(), seed=seed)
    tree = decompose(network)
    for sites in ("all", "control", "mux"):
        fast = FastDamageAnalysis(network, spec, tree=tree).report(sites)
        explicit = ExplicitDamageAnalysis(network, spec, tree=tree).report(
            sites
        )
        assert fast.primitive_damage == explicit.primitive_damage


def test_array_tree_is_a_postorder_interval_tree():
    tree = decompose(build_design("MBIST_1_5_20"))
    root = len(tree.kind) - 1
    assert (tree.lo[root], tree.hi[root]) == (0, tree.n_leaves - 1)
    leaves = np.flatnonzero(tree.kind >= RUN)
    # leaf nodes tile the serial order left to right
    assert tree.lo[leaves[0]] == 0
    assert np.array_equal(tree.lo[leaves[1:]], tree.hi[leaves[:-1]] + 1)
    assert np.all(tree.leaf_node[tree.lo[tree.kind == WIRE]] == -1)
    for node in np.flatnonzero(np.isin(tree.kind, (SERIES, PARALLEL))):
        left, right = tree.left[node], tree.right[node]
        assert left < node and right < node
        assert tree.lo[node] == tree.lo[left]
        assert tree.hi[left] + 1 == tree.lo[right]
        assert tree.hi[node] == tree.hi[right]


def test_non_sp_blocked_edges_match_reference():
    with pytest.raises(NotSeriesParallelError) as array_error:
        decompose(bridge_network())
    with pytest.raises(NotSeriesParallelError) as reference_error:
        reference_decompose(bridge_network())
    assert array_error.value.blocked_edges
    assert sorted(array_error.value.blocked_edges) == sorted(
        reference_error.value.blocked_edges
    )


@pytest.mark.parametrize(
    "build",
    [bridge_network, stem_bridge_network, lambda: stem_bridge_network(2)],
    ids=["bridge", "stem_mux", "nested"],
)
def test_virtualized_tree_yields_aliases(build):
    # the stem networks duplicate a mux with its branch table, and the
    # nested one copies structure that already holds copies
    network = build()
    assert decompose(network, virtualize=True).aliases
    _assert_same_structure(network, virtualize=True)
