"""Series-parallel recognition and decomposition-tree construction.

The RSN graph is converted to a two-terminal multigraph in which every scan
primitive is an *edge* (vertex splitting), then repeatedly simplified with
the two classic reductions:

* **series**: an inner vertex with exactly one in-edge and one out-edge is
  removed and its edges concatenated — tree composition ``S``;
* **parallel**: two edges sharing both endpoints are merged — tree
  composition ``P``.

The RSN is series-parallel exactly when this terminates with a single
scan-in -> scan-out edge, whose tree is the paper's binary decomposition
tree.  During reduction, the edges entering each multiplexer keep track of
the mux *port* they arrive on, so every mux leaf ends up annotated with its
``(ports, branch subtree)`` pairs — the structure stuck-at-id analysis
needs.

Everything is iterative and O(V + E) amortized, so million-primitive
networks (MBIST_5_100_100) decompose in seconds.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from ..errors import NotSeriesParallelError
from ..rsn.network import RsnNetwork
from ..rsn.primitives import NodeKind
from .tree import SPNode, SPTree


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
        from .virtualize import copy_tree

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


def decompose(
    network: RsnNetwork,
    virtualize: bool = False,
    max_duplications: int = 64,
) -> SPTree:
    """Build the binary decomposition tree of a series-parallel RSN.

    With ``virtualize=True``, non-SP networks are handled by virtually
    duplicating blocked stem structures (see :mod:`repro.sp.virtualize`);
    the resulting tree carries the copy-to-primitive alias map.  Without
    it, a non-SP network raises
    :class:`repro.errors.NotSeriesParallelError` — see
    :func:`is_series_parallel` for a predicate and the exception's
    ``blocked_edges`` for diagnostics.
    """
    reducer = _Reducer(
        network, virtualize=virtualize, max_duplications=max_duplications
    )
    root = reducer.run()
    return SPTree(network, root, aliases=reducer.aliases)


def is_series_parallel(network: RsnNetwork) -> bool:
    """True when the RSN graph reduces to a single series-parallel edge."""
    try:
        _Reducer(network).run()
    except NotSeriesParallelError:
        return False
    return True
