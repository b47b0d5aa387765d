"""Unit tests for virtual duplication of decomposition subtrees.

``decompose(..., virtualize=True)`` copies the reduced structure feeding
a blocked fan-out into each of its branches.  The stem network's first
bridge duplicates ``S(sel, P(p, q), m0)`` — a mux with its branch table
— and a second bridge duplicates structure that already holds copies.
"""

from _nonsp_networks import stem_bridge_network
from repro.sp import decompose
from repro.sp.tree import PARALLEL, SERIES
from repro.sp.virtualize import virtual_name

STEM = ["sel", "p", "q", "m0"]


def leaf_names(tree):
    return [tree.leaf_name(index) for index in range(tree.n_leaves)]


def stem_blocks(tree):
    """Serial start of every physical or copied stem ``sel, p, q, m0``."""
    canonical = [tree.canonical_name(name) for name in leaf_names(tree)]
    return [
        start
        for start in range(len(canonical) - len(STEM) + 1)
        if canonical[start : start + len(STEM)] == STEM
    ]


def view_node(tree, lo, hi):
    """The view node covering exactly the serial leaves ``[lo, hi]``."""
    for node in tree.root.post_order():
        if (node.lo, node.hi) == (lo, hi):
            return node
    raise AssertionError(f"no subtree spans [{lo}, {hi}]")


def branch_table(tree, slot):
    """A mux leaf's branch entries, with intervals relative to the mux."""
    return [
        (
            tuple(
                tree.ports[tree.port_indptr[e] : tree.port_indptr[e + 1]].tolist()
            ),
            int(tree.branch_lo[e]) - slot,
            int(tree.branch_hi[e]) - slot,
        )
        for e in range(tree.branch_indptr[slot], tree.branch_indptr[slot + 1])
    ]


class TestCopyTree:
    def test_structure_preserved(self):
        tree = decompose(stem_bridge_network(1), virtualize=True)
        names = leaf_names(tree)
        blocks = stem_blocks(tree)
        assert len(blocks) > 1
        original = view_node(tree, names.index("sel"), names.index("m0"))
        kinds = [node.kind for node in original.post_order()]
        for start in blocks:
            clone = view_node(tree, start, start + len(STEM) - 1)
            assert [node.kind for node in clone.post_order()] == kinds

    def test_all_leaves_renamed_and_aliased(self):
        network = stem_bridge_network(1)
        tree = decompose(network, virtualize=True)
        names = leaf_names(tree)
        copies = [
            names[i] for i in range(tree.n_leaves) if tree.leaf_copy[i] >= 0
        ]
        assert copies
        assert sorted(copies) == sorted(tree.aliases)
        for index, name in enumerate(names):
            copy = int(tree.leaf_copy[index])
            if copy >= 0:
                physical = tree.names[tree.leaf_node[index]]
                assert name == virtual_name(physical, copy)
                assert tree.aliases[name] == physical
        assert set(tree.aliases.values()) <= set(network.node_names())
        assert len(set(names)) == len(names)

    def test_no_node_sharing(self):
        tree = decompose(stem_bridge_network(2), virtualize=True)
        inner = (tree.kind == SERIES) | (tree.kind == PARALLEL)
        children = list(tree.left[inner]) + list(tree.right[inner])
        # every node but the root is the child of exactly one parent
        assert sorted(children) == list(range(len(tree.kind) - 1))
        view = list(tree.root.post_order())
        assert len({id(node) for node in view}) == len(view)

    def test_mux_branches_remapped_into_copy(self):
        tree = decompose(stem_bridge_network(2), virtualize=True)
        names = leaf_names(tree)
        view = {id(node) for node in tree.root.post_order()}
        copied_muxes = 0
        for slot, name in enumerate(names):
            if name is None or name not in tree.aliases:
                continue
            physical = tree.aliases[name]
            expected = branch_table(tree, names.index(physical))
            assert branch_table(tree, slot) == expected, name
            if not expected:
                continue
            copied_muxes += 1
            leaf = tree.leaves[slot]
            for _, subtree in leaf.mux_branches:
                assert id(subtree) in view
                # the branches are the copy's own leaves, left of the mux
                assert subtree.hi < slot
                assert all(
                    names[i] in tree.aliases
                    for i in range(subtree.lo, subtree.hi + 1)
                )
        assert copied_muxes

    def test_copy_of_copy_resolves_to_physical(self):
        first = decompose(stem_bridge_network(1), virtualize=True)
        assert first.is_virtualized
        # the second bridge duplicates everything the first one produced
        prefix = [first.canonical_name(name) for name in leaf_names(first)]
        network = stem_bridge_network(2)
        tree = decompose(network, virtualize=True)
        names = leaf_names(tree)
        canonical = [tree.canonical_name(name) for name in names]
        nested = [
            start
            for start in range(len(names) - len(prefix) + 1)
            if canonical[start : start + len(prefix)] == prefix
            and all(
                name in tree.aliases
                for name in names[start : start + len(prefix)]
            )
        ]
        assert nested
        assert set(tree.aliases.values()) <= set(network.node_names())
        assert all(name.count("~v") == 1 for name in tree.aliases)

    def test_virtual_name_format(self):
        assert virtual_name("seg1", 7) == "seg1~v7"

    def test_counter_continues(self):
        tree = decompose(stem_bridge_network(2), virtualize=True)
        copies = tree.leaf_copy[tree.leaf_copy >= 0].tolist()
        # one counter across all duplications: no restart, no gap
        assert sorted(copies) == list(range(len(copies)))
        # each copy numbers its leaves in serial order
        for start in stem_blocks(tree):
            block = tree.leaf_copy[start : start + len(STEM)].tolist()
            if block[0] >= 0:
                assert block == list(range(block[0], block[0] + len(STEM)))

