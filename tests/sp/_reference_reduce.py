"""Reference decomposition: the object reducer over every split vertex.

This is the decomposer the array form in :mod:`repro.sp.reduce`
replaced: it splits every primitive into an input and an output vertex,
keeps one ``_Edge`` object per graph edge and one :class:`SPNode` per
leaf, and runs the series/parallel reductions vertex by vertex.  It is
kept here as the independent oracle the parity tests and the CI sweep
(``tests/sp/sp_parity_sweep.py``) compare the array tree against.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import NotSeriesParallelError, ReproError
from repro.rsn.network import RsnNetwork
from repro.rsn.primitives import NodeKind
from repro.sp.tree import SPKind, SPNode
from repro.sp.virtualize import virtual_name


def copy_tree(
    root: SPNode,
    counter_start: int,
    canonical_of: Dict[str, str],
) -> Tuple[SPNode, Dict[str, str], int]:
    """Deep-copy a decomposition subtree with renamed leaves.

    Returns ``(copy, new_aliases, next_counter)``; ``new_aliases`` maps
    every copied leaf name to its *physical* primitive (resolving chains
    of copies through ``canonical_of``).
    """
    mapping: Dict[int, SPNode] = {}
    aliases: Dict[str, str] = {}
    counter = counter_start
    for node in root.post_order():
        if node.kind is SPKind.WIRE:
            clone = SPNode.wire()
        elif node.kind is SPKind.LEAF:
            physical = canonical_of.get(node.primitive, node.primitive)
            renamed = virtual_name(physical, counter)
            counter += 1
            clone = SPNode.leaf(renamed)
            aliases[renamed] = physical
        else:
            clone = SPNode(
                node.kind,
                left=mapping[id(node.left)],
                right=mapping[id(node.right)],
            )
        mapping[id(node)] = clone

    # Re-link mux branch annotations inside the copy.
    for node in root.post_order():
        if node.kind is SPKind.LEAF and node.mux_branches is not None:
            mapping[id(node)].mux_branches = [
                (ports, mapping[id(subtree)])
                for ports, subtree in node.mux_branches
            ]
    return mapping[id(root)], aliases, counter


class _Edge:
    __slots__ = ("src", "dst", "tree", "ports", "branch_list", "prim_leaf")

    def __init__(self, src, dst, tree, ports, prim_leaf=None):
        self.src = src
        self.dst = dst
        self.tree = tree
        self.ports = ports
        self.branch_list: Optional[List[Tuple[frozenset, SPNode]]] = None
        # Set on the v_in -> v_out edge of a mux so the series merge that
        # absorbs the mux's input structure can attach mux_branches to it.
        self.prim_leaf = prim_leaf

    def branches(self) -> List[Tuple[frozenset, SPNode]]:
        if self.branch_list is not None:
            return self.branch_list
        return [(self.ports, self.tree)]


class _Reducer:
    def __init__(
        self,
        network: RsnNetwork,
        virtualize: bool = False,
        max_duplications: int = 64,
    ):
        self.network = network
        self.virtualize = virtualize
        self.max_duplications = max_duplications
        self.duplications = 0
        self.aliases: Dict[str, str] = {}
        self._virtual_counter = 0
        self.n_vertices = 0
        self.in_edges: List[Set[_Edge]] = []
        self.out_edges: List[Set[_Edge]] = []
        self.vertex_name: List[str] = []
        self.source = -1
        self.sink = -1
        self._build()

    # ------------------------------------------------------------------
    def _new_vertex(self, label: str) -> int:
        vid = self.n_vertices
        self.n_vertices += 1
        self.in_edges.append(set())
        self.out_edges.append(set())
        self.vertex_name.append(label)
        return vid

    def _build(self) -> None:
        net = self.network
        vin: Dict[str, int] = {}
        vout: Dict[str, int] = {}
        for node in net.nodes():
            if node.kind in (NodeKind.SEGMENT, NodeKind.MUX):
                vin[node.name] = self._new_vertex(f"{node.name}:in")
                vout[node.name] = self._new_vertex(f"{node.name}:out")
                leaf = SPNode.leaf(node.name)
                prim = leaf if node.kind is NodeKind.MUX else None
                self._add_edge(
                    _Edge(
                        vin[node.name],
                        vout[node.name],
                        leaf,
                        frozenset(),
                        prim_leaf=prim,
                    )
                )
            else:
                vid = self._new_vertex(node.name)
                vin[node.name] = vid
                vout[node.name] = vid
        self.source = vin[net.scan_in]
        self.sink = vout[net.scan_out]
        for dst_name in net.node_names():
            is_mux = net.node(dst_name).kind is NodeKind.MUX
            for port, src_name in enumerate(net.predecessors(dst_name)):
                ports = frozenset((port,)) if is_mux else frozenset()
                self._add_edge(
                    _Edge(vout[src_name], vin[dst_name], SPNode.wire(), ports)
                )

    def _add_edge(self, edge: _Edge) -> None:
        self.out_edges[edge.src].add(edge)
        self.in_edges[edge.dst].add(edge)

    def _remove_edge(self, edge: _Edge) -> None:
        self.out_edges[edge.src].discard(edge)
        self.in_edges[edge.dst].discard(edge)

    # ------------------------------------------------------------------
    def run(self) -> SPNode:
        self._drain(range(self.n_vertices))
        while True:
            remaining = [
                edge for edges in self.out_edges for edge in edges
            ]
            if len(remaining) == 1:
                edge = remaining[0]
                if edge.src == self.source and edge.dst == self.sink:
                    return edge.tree
            if (
                self.virtualize
                and self.duplications < self.max_duplications
            ):
                blocked_fanout = self._pick_duplication_candidate()
                if blocked_fanout is not None:
                    self._drain(self._duplicate(blocked_fanout))
                    continue
            blocked = [
                (self.vertex_name[e.src], self.vertex_name[e.dst])
                for e in remaining
            ]
            raise NotSeriesParallelError(
                f"network {self.network.name!r} is not series-parallel: "
                f"{len(remaining)} edges remain after reduction"
                + (
                    f" (with {self.duplications} virtual duplications)"
                    if self.virtualize
                    else ""
                ),
                blocked_edges=blocked,
            )

    def _drain(self, vertices) -> None:
        pending = deque(vertices)
        queued = set(pending)
        while pending:
            vertex = pending.popleft()
            queued.discard(vertex)
            for touched in self._reduce_at(vertex):
                if touched not in queued:
                    queued.add(touched)
                    pending.append(touched)

    # -- virtual duplication (non-SP handling) --------------------------
    def _pick_duplication_candidate(self) -> Optional[int]:
        """A blocked fan-out: one in-edge (without a pending mux marker),
        several out-edges."""
        for vertex in range(self.n_vertices):
            if vertex in (self.source, self.sink):
                continue
            if (
                len(self.in_edges[vertex]) == 1
                and len(self.out_edges[vertex]) >= 2
            ):
                in_edge = next(iter(self.in_edges[vertex]))
                if in_edge.prim_leaf is None:
                    return vertex
        return None

    def _duplicate(self, vertex: int) -> List[int]:
        """Give each out-edge of ``vertex`` its own copy of the reduced
        structure feeding it (renamed leaves, recorded in ``aliases``)."""
        in_edge = next(iter(self.in_edges[vertex]))
        out_edges = sorted(
            self.out_edges[vertex], key=lambda e: (e.dst, min(e.ports or {0}))
        )
        self._remove_edge(in_edge)
        touched = [in_edge.src, vertex]
        for index, out_edge in enumerate(out_edges[1:], start=1):
            clone, new_aliases, self._virtual_counter = copy_tree(
                in_edge.tree, self._virtual_counter, self.aliases
            )
            self.aliases.update(new_aliases)
            twin = self._new_vertex(f"{self.vertex_name[vertex]}~dup{index}")
            self._add_edge(
                _Edge(in_edge.src, twin, clone, frozenset())
            )
            self._remove_edge(out_edge)
            moved = _Edge(
                twin,
                out_edge.dst,
                out_edge.tree,
                out_edge.ports,
                prim_leaf=out_edge.prim_leaf,
            )
            moved.branch_list = out_edge.branch_list
            self._add_edge(moved)
            touched.extend((twin, out_edge.dst))
        # the first out-edge keeps the original structure and names
        self._add_edge(
            _Edge(in_edge.src, vertex, in_edge.tree, in_edge.ports)
        )
        self.duplications += 1
        return touched

    def _reduce_at(self, vertex: int):
        """Apply all reductions available at ``vertex``; yield vertices to
        re-examine."""
        # Parallel merges: group in-edges by source (needs two of them).
        by_src: Dict[int, List[_Edge]] = {}
        if len(self.in_edges[vertex]) > 1:
            for edge in self.in_edges[vertex]:
                by_src.setdefault(edge.src, []).append(edge)
        for src, group in by_src.items():
            while len(group) > 1:
                group.sort(key=lambda e: min(e.ports, default=1 << 30))
                first = group.pop(0)
                second = group.pop(0)
                merged = self._merge_parallel(first, second)
                group.append(merged)
                yield src

        # Series merge: inner vertex with exactly one in- and out-edge.
        if vertex in (self.source, self.sink):
            return
        if len(self.in_edges[vertex]) == 1 and len(self.out_edges[vertex]) == 1:
            before = next(iter(self.in_edges[vertex]))
            after = next(iter(self.out_edges[vertex]))
            merged = self._merge_series(before, after)
            yield merged.src
            yield merged.dst

    def _merge_parallel(self, first: _Edge, second: _Edge) -> _Edge:
        self._remove_edge(first)
        self._remove_edge(second)
        merged = _Edge(
            first.src,
            first.dst,
            SPNode.parallel(first.tree, second.tree),
            first.ports | second.ports,
        )
        merged.branch_list = first.branches() + second.branches()
        self._add_edge(merged)
        return merged

    def _merge_series(self, before: _Edge, after: _Edge) -> _Edge:
        self._remove_edge(before)
        self._remove_edge(after)
        if after.prim_leaf is not None:
            # ``after`` is a mux's primitive edge: everything reduced into
            # ``before`` is the parallel branch structure the mux closes.
            after.prim_leaf.mux_branches = before.branches()
        merged = _Edge(
            before.src,
            after.dst,
            SPNode.series(before.tree, after.tree),
            after.ports,
            # ``before`` may itself start at some other mux's split vertex
            # whose input structure has not reduced yet; keep its marker so
            # that mux still gets its branches recorded later.
            prim_leaf=before.prim_leaf,
        )
        merged.branch_list = after.branch_list
        self._add_edge(merged)
        return merged


class ReferenceTree:
    """A decomposition tree bound to the network it was derived from.

    When the RSN is not series-parallel, :func:`repro.sp.decompose` may
    (on request) *virtually duplicate* parts of the graph to obtain an SP
    representation — the physical network is untouched.  ``aliases`` then
    maps every duplicated leaf name to the physical primitive it copies,
    and a primitive can own several leaves (:meth:`leaves_of`).
    """

    def __init__(
        self,
        network: RsnNetwork,
        root: SPNode,
        aliases: Optional[Dict[str, str]] = None,
    ):
        self.network = network
        self.root = root
        self.aliases: Dict[str, str] = dict(aliases or {})
        self.leaves: List[SPNode] = []
        self._leaf_of: Dict[str, SPNode] = {}
        self._copies_of: Dict[str, List[SPNode]] = {}
        self._index_of: Dict[int, int] = {}
        root.parent = None
        for node in root.pre_order():
            if node.is_inner:
                node.left.parent = node.right.parent = node
                continue
            self._index_of[id(node)] = len(self.leaves)
            self.leaves.append(node)
            if node.primitive is None:
                continue
            if node.primitive in self._leaf_of:
                raise ReproError(
                    f"primitive {node.primitive!r} appears twice in the "
                    "decomposition tree"
                )
            self._leaf_of[node.primitive] = node
            canonical = self.aliases.get(node.primitive, node.primitive)
            self._copies_of.setdefault(canonical, []).append(node)

    @property
    def is_virtualized(self) -> bool:
        """True when the tree contains duplicated (virtual) leaves."""
        return bool(self.aliases)

    def canonical_name(self, leaf_name: str) -> str:
        """The physical primitive behind a (possibly duplicated) leaf."""
        return self.aliases.get(leaf_name, leaf_name)

    def leaves_of(self, primitive: str) -> List[SPNode]:
        """All leaves representing a physical primitive (>= 1)."""
        try:
            return self._copies_of[primitive]
        except KeyError:
            raise ReproError(
                f"primitive {primitive!r} has no decomposition-tree leaf"
            ) from None

    def leaf(self, primitive: str) -> SPNode:
        found = self._leaf_of.get(primitive)
        if found is not None:
            return found
        copies = self._copies_of.get(primitive)
        if copies:
            return copies[0]
        raise ReproError(
            f"primitive {primitive!r} has no decomposition-tree leaf"
        )

    def has_leaf(self, primitive: str) -> bool:
        return primitive in self._leaf_of or primitive in self._copies_of

    def leaf_index(self, node: SPNode) -> int:
        """Serial position of a leaf (scan-in side first)."""
        return self._index_of[id(node)]

    def primitive_leaves(self) -> Iterator[SPNode]:
        for leaf in self.leaves:
            if leaf.kind is SPKind.LEAF:
                yield leaf

    def branch_root(self, node: SPNode) -> SPNode:
        """Root of the innermost parallel branch containing ``node``.

        The highest ancestor reachable from ``node`` through S nodes only:
        either a child of a P node or the tree root.  A fault in a scan
        segment is isolated inside this branch (Sec. IV-B.1).
        """
        current = node
        while (
            current.parent is not None
            and current.parent.kind is SPKind.SERIES
        ):
            current = current.parent
        return current

    def parent_mux(self, node: SPNode) -> Optional[SPNode]:
        """The closest parental scan multiplexer of a primitive.

        The mux closing the innermost parallel branch around ``node``: the
        first mux leaf to the serial right of the branch root's parent P
        composition.  None when ``node`` sits on the top-level trunk.
        """
        branch = self.branch_root(node)
        pnode = branch.parent
        if pnode is None:
            return None
        for mux in self._closing_candidates(pnode):
            return mux
        return None

    def _closing_candidates(self, pnode: SPNode) -> Iterator[SPNode]:
        """Mux leaves whose ``mux_branches`` reference ``pnode``'s children.

        In a tree built by :func:`repro.sp.decompose` the closing mux leaf
        is the serial right-neighbour of the P composition; walk up from the
        P node and scan the right siblings' leftmost leaves.
        """
        current = pnode
        while current.parent is not None:
            parent = current.parent
            if parent.kind is SPKind.SERIES and parent.left is current:
                node = parent.right
                while node.is_inner:
                    node = node.left
                if node.kind is SPKind.LEAF and node.mux_branches is not None:
                    yield node
                return
            current = parent

    def annotate_ranges(self) -> None:
        """Fill every node's ``[lo, hi]`` serial leaf-index range.

        Idempotent; one iterative post-order pass.
        """
        if self.root.lo >= 0:
            return
        for node in self.root.post_order():
            if node.is_leaf:
                node.lo = node.hi = self.leaf_index(node)
            else:
                node.lo = node.left.lo
                node.hi = node.right.hi

    def branch_range(self, leaf: SPNode) -> Tuple[int, int]:
        """Serial index range of the innermost parallel branch around
        ``leaf`` (requires :meth:`annotate_ranges`)."""
        root = self.branch_root(leaf)
        return root.lo, root.hi

    def size(self) -> int:
        """Total number of tree vertices."""
        return sum(1 for _ in self.root.post_order())

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"<ReferenceTree of {self.network.name}: {len(self.leaves)} leaves, "
            f"{self.size()} vertices>"
        )


def reference_decompose(
    network: RsnNetwork,
    virtualize: bool = False,
    max_duplications: int = 64,
) -> ReferenceTree:
    """The object reducer's decomposition tree of ``network``."""
    reducer = _Reducer(
        network, virtualize=virtualize, max_duplications=max_duplications
    )
    root = reducer.run()
    return ReferenceTree(network, root, aliases=reducer.aliases)


def reference_structure(tree: ReferenceTree) -> Dict:
    """What the array tree must reproduce, read off the object tree:
    serial leaf order (wire leaves as None), each mux's branch table
    ``[(ports, lo, hi)]``, each leaf's ``branch_root`` range and each
    primitive's ``parent_mux``."""
    tree.annotate_ranges()
    return {
        "leaves": [leaf.primitive for leaf in tree.leaves],
        "branches": {
            leaf.primitive: [
                (tuple(sorted(ports)), subtree.lo, subtree.hi)
                for ports, subtree in leaf.mux_branches
            ]
            for leaf in tree.leaves
            if leaf.mux_branches is not None
        },
        "branch_ranges": [tree.branch_range(leaf) for leaf in tree.leaves],
        "parent_mux": {
            leaf.primitive: getattr(tree.parent_mux(leaf), "primitive", None)
            for leaf in tree.primitive_leaves()
        },
    }


def array_structure(tree) -> Dict:
    """The same record read off an :class:`repro.sp.SPTree`'s arrays
    (``parent_mux`` through its view)."""
    names = [tree.leaf_name(index) for index in range(tree.n_leaves)]
    indptr = tree.branch_indptr
    branches = {}
    for slot in range(tree.n_leaves):
        entries = range(indptr[slot], indptr[slot + 1])
        if len(entries):
            branches[names[slot]] = [
                (
                    tuple(
                        tree.ports[
                            tree.port_indptr[e] : tree.port_indptr[e + 1]
                        ].tolist()
                    ),
                    int(tree.branch_lo[e]),
                    int(tree.branch_hi[e]),
                )
                for e in entries
            ]
    branch_lo, branch_hi = tree.leaf_branch_ranges()
    return {
        "leaves": names,
        "branches": branches,
        "branch_ranges": list(
            zip(branch_lo.tolist(), branch_hi.tolist())
        ),
        "parent_mux": {
            leaf.primitive: getattr(tree.parent_mux(leaf), "primitive", None)
            for leaf in tree.primitive_leaves()
        },
    }
