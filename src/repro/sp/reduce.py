"""Series-parallel recognition and decomposition-tree construction.

The RSN graph is read as a two-terminal multigraph in which every scan
primitive is an *edge* (vertex splitting), then repeatedly simplified
with the two classic reductions:

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

Run contraction.  Nearly every vertex of a scan network is a link of a
serial chain (MBIST_2_20_20: 178 of 12,397 nodes have in- or out-degree
other than 1), and reducing those one by one is all series steps.  They
are done up front, vectorized over the compiled IR's CSR arrays: each
maximal run of primitives becomes one edge whose tree is a RUN node — a
contiguous interval of serial leaves.  Only the contracted multigraph
(scan ports, fan-out stems, multiplexer inputs) goes through the
reduction loop, and the result is emitted as the postorder arrays of
:class:`repro.sp.tree.SPTree`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import NotSeriesParallelError
from ..ir import MUX, SEGMENT, intern
from ..rsn.network import RsnNetwork
from .tree import PARALLEL, RUN, SERIES, WIRE, SPTree
from .virtualize import virtual_name

#: Sort key of a port-less edge among the in-edges of a vertex.
_NO_PORT = 1 << 30
#: A turn later than every split vertex's (see ``_Reducer._replay``).
_AFTER_ALL_TURNS = 1 << 62


def _contract(ir):
    """Chain order and contracted edges of a compiled network.

    Vertex keys follow node ids: ``2 * v`` is node ``v`` itself or, for a
    primitive, its input side; ``2 * v + 1`` a primitive's output side.
    A segment with one predecessor is entered straight through, and a
    primitive with one successor passes straight on; chaining both gives
    the maximal runs.  Returns ``(chain, edges, turn_in)``: ``chain``
    lists every primitive id, each run contiguous and in scan order; each
    edge is ``(src, dst, first, stop, port, is_mux_start, settle)`` with
    its leaves at ``chain[first:stop]``, ``port`` the mux port it enters
    (or -1) and ``settle`` the turn its run settles at (or -1);
    ``turn_in`` is each node's (input side's) turn.
    """
    count = ir.n_nodes
    kinds = np.frombuffer(ir.kinds, dtype=np.uint8)
    succ_indptr = np.frombuffer(ir.succ_indptr, dtype=np.int32)
    succ_indices = np.frombuffer(ir.succ_indices, dtype=np.int32)
    succ_ports = np.frombuffer(ir.succ_ports, dtype=np.int32)
    pred_indptr = np.frombuffer(ir.pred_indptr, dtype=np.int32)
    pred_indices = np.frombuffer(ir.pred_indices, dtype=np.int32)
    outdeg = np.diff(succ_indptr)
    is_prim = (kinds == SEGMENT) | (kinds == MUX)
    pass_in = (kinds == SEGMENT) & (np.diff(pred_indptr) == 1)
    pass_out = is_prim & (outdeg == 1)

    # chain links u -> v, then list ranking by pointer jumping: ``prev``
    # converges to each node's run head, ``depth`` to its offset in it.
    link_src = np.flatnonzero(pass_out)
    link_dst = succ_indices[succ_indptr[link_src]]
    linked = pass_in[link_dst]
    link_src, link_dst = link_src[linked], link_dst[linked]
    prev = np.arange(count)
    prev[link_dst] = link_src
    depth = np.zeros(count, dtype=np.int64)
    depth[link_dst] = 1
    while True:
        jump = prev[prev]
        if np.array_equal(jump, prev):
            break
        depth += depth[prev]
        prev = jump

    prims = np.flatnonzero(is_prim)
    run_length = np.bincount(prev[prims], minlength=count)
    heads = np.flatnonzero(run_length)
    starts = np.zeros(count, dtype=np.int64)
    starts[heads] = np.cumsum(run_length[heads]) - run_length[heads]
    chain = np.empty(len(prims), dtype=np.int64)
    chain[starts[prev[prims]] + depth[prims]] = prims

    # one edge per run: it leaves the head's input side, or the vertex
    # feeding a pass-through head; it ends at the run end's output side,
    # or at whatever vertex the run end passes on to.
    firsts = starts[heads]
    stops = firsts + run_length[heads]
    ends = chain[stops - 1]
    feeder = pred_indices[pred_indptr[heads[pass_in[heads]]]]
    run_src = 2 * heads
    run_src[pass_in[heads]] = 2 * feeder + is_prim[feeder]
    passes = pass_out[ends]
    follow = succ_indices[succ_indptr[ends[passes]]]
    run_dst = 2 * ends + 1
    run_dst[passes] = 2 * follow
    run_port = np.full(len(heads), -1, dtype=np.int64)
    run_port[passes] = np.where(
        kinds[follow] == MUX, succ_ports[succ_indptr[ends[passes]]], -1
    )

    # primitive-free edges: from a vertex that does not pass on, into
    # one that is not entered straight through.
    slot_src = np.repeat(np.arange(count), outdeg)
    wire = ~pass_out[slot_src] & ~pass_in[succ_indices]
    wire_src = slot_src[wire]
    wire_dst = succ_indices[wire]
    wire_port = np.where(kinds[wire_dst] == MUX, succ_ports[wire], -1)

    # Turn of each split vertex in a vertex-by-vertex reduction: node id
    # order, primitives taking two (input side, output side).  A run
    # settles at the turn of its last inner vertex (see _Reducer._replay).
    turn_in = np.arange(count) + np.cumsum(is_prim) - is_prim
    inner = np.maximum(
        np.where(pass_in[chain], turn_in[chain], -1),
        np.where(pass_out[chain], turn_in[chain] + 1, -1),
    )
    settle = np.maximum.reduceat(inner, firsts) if len(firsts) else firsts

    edges = list(
        zip(
            run_src.tolist(),
            run_dst.tolist(),
            firsts.tolist(),
            stops.tolist(),
            run_port.tolist(),
            (kinds[heads] == MUX).tolist(),
            settle.tolist(),
        )
    )
    edges.extend(
        zip(
            (2 * wire_src + is_prim[wire_src]).tolist(),
            (2 * wire_dst).tolist(),
            [0] * len(wire_src),
            [0] * len(wire_src),
            wire_port.tolist(),
            [False] * len(wire_src),
            [-1] * len(wire_src),
        )
    )
    return chain, edges, turn_in


class _Edge:
    __slots__ = (
        "src", "dst", "tree", "ports", "min_port", "branch_list", "marker",
        "unsettled",
    )

    def __init__(
        self, src, dst, tree, ports, branch_list=None, marker=-1, unsettled=()
    ):
        self.src = src
        self.dst = dst
        self.tree = tree
        self.ports = ports
        self.min_port = min(ports, default=_NO_PORT)
        self.branch_list: Optional[List[Tuple[frozenset, int]]] = branch_list
        # Set on the edge leaving a mux's input side (its run starts with
        # the mux) so the series merge that absorbs the mux's input
        # structure can record the mux's branches.
        self.marker = marker
        #: Settle turns of the runs inside that have not settled yet, in
        #: path order (see ``_Reducer._replay``).
        self.unsettled = list(unsettled)

    def branches(self) -> List[Tuple[frozenset, int]]:
        if self.branch_list is not None:
            return self.branch_list
        return [(self.ports, self.tree)]


class _Reducer:
    """The series/parallel reduction loop on the contracted multigraph.

    Tree nodes are ``(kind, left, right, first, stop, copy)`` records in
    ``nodes``: ``chain[first:stop]`` are a RUN node's leaves and ``copy``
    the virtual counter of a duplicated run's first leaf (-1 if physical).
    """

    def __init__(
        self,
        network: RsnNetwork,
        virtualize: bool = False,
        max_duplications: int = 64,
    ):
        self.network = network
        self.ir = ir = intern(network)
        self.virtualize = virtualize
        self.max_duplications = max_duplications
        self.duplications = 0
        self.aliases: Dict[str, str] = {}
        self._virtual_counter = 0
        self.nodes: List[Tuple[int, int, int, int, int, int]] = []
        #: RUN node whose first leaf is a mux -> that mux's branch list
        #: ``[(ports, tree node)]``.
        self.branches_of: Dict[int, List[Tuple[frozenset, int]]] = {}
        self.in_edges: Dict[int, Dict[_Edge, None]] = {}
        self.out_edges: Dict[int, Dict[_Edge, None]] = {}
        self.labels: Dict[int, str] = {}
        self.source = 2 * ir.id_of(network.scan_in)
        self.sink = 2 * ir.id_of(network.scan_out)
        self._next_vertex = 2 * ir.n_nodes
        self.chain, edges, self.turn_in = _contract(ir)
        #: The turn being replayed, and the edge each unsettled run is in.
        self.now = -1
        self.settling: Dict[int, _Edge] = {}
        for vertex in (self.source, self.sink):
            self._touch(vertex)
        for src, dst, first, stop, port, mux_start, settle in edges:
            tree = self._node(RUN if stop > first else WIRE, first=first, stop=stop)
            self._add_edge(
                _Edge(
                    src,
                    dst,
                    tree,
                    frozenset((port,)) if port >= 0 else frozenset(),
                    marker=tree if mux_start else -1,
                    unsettled=(settle,) if settle >= 0 else (),
                )
            )

    # ------------------------------------------------------------------
    def _node(self, kind, left=-1, right=-1, first=0, stop=0, copy=-1) -> int:
        self.nodes.append((kind, left, right, first, stop, copy))
        return len(self.nodes) - 1

    def _series(self, left: int, right: int) -> int:
        """Series composition; absorbs wire operands."""
        if self.nodes[left][0] == WIRE:
            return right
        if self.nodes[right][0] == WIRE:
            return left
        return self._node(SERIES, left, right)

    def _touch(self, vertex: int) -> None:
        if vertex not in self.in_edges:
            self.in_edges[vertex] = {}
            self.out_edges[vertex] = {}

    def _add_edge(self, edge: _Edge) -> _Edge:
        edge.unsettled = [turn for turn in edge.unsettled if turn > self.now]
        for turn in edge.unsettled:
            self.settling[turn] = edge
        self._touch(edge.src)
        self._touch(edge.dst)
        self.out_edges[edge.src][edge] = None
        self.in_edges[edge.dst][edge] = None
        return edge

    def _remove_edge(self, edge: _Edge) -> None:
        del self.out_edges[edge.src][edge]
        del self.in_edges[edge.dst][edge]

    def _label(self, vertex: int) -> str:
        if vertex in self.labels:
            return self.labels[vertex]
        node = vertex // 2
        name = self.ir.names[node]
        if self.ir.kinds[node] in (SEGMENT, MUX):
            return f"{name}:{'out' if vertex % 2 else 'in'}"
        return name

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Reduce; return the root tree node."""
        self._replay()
        while True:
            remaining = [
                edge for edges in self.out_edges.values() for edge in edges
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
                (self._label(e.src), self._label(e.dst)) for e in remaining
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

    def _replay(self) -> None:
        """Reduce in the order a reduction over every split vertex takes.

        That reduction visits the vertices in id order — node ids, a
        primitive's input side before its output side — and then the
        vertices its steps touched, first in, first out.  Which of a
        mux's branches merge first, and so the serial order of the
        leaves, depends on that order.  Here each contracted vertex is
        visited at its turn, and a run counts as unsettled (it cannot
        join a parallel merge, and merges across it touch nothing on
        that side) until the turn of its last inner vertex has passed;
        then its ends are touched as that vertex's series step would.
        The tree is therefore the same as the vertex-by-vertex
        reducer's (``tests/sp/_reference_reduce.py``).
        """
        vertices = sorted(
            self.in_edges,
            key=lambda v: int(self.turn_in[v // 2]) + v % 2,
        )
        queued = set(vertices)
        pending: deque = deque()

        def touch(vertex: int) -> None:
            if vertex not in queued:
                queued.add(vertex)
                pending.append(vertex)

        settles = deque(sorted(self.settling))
        for vertex in vertices:
            turn = int(self.turn_in[vertex // 2]) + vertex % 2
            while settles and settles[0] < turn:
                self._settle(settles.popleft(), touch)
            self.now = turn
            queued.discard(vertex)
            for touched in self._reduce_at(vertex):
                touch(touched)
        while settles:
            self._settle(settles.popleft(), touch)
        self.now = _AFTER_ALL_TURNS
        self._drain(pending, queued)

    def _settle(self, turn: int, touch) -> None:
        """The run whose last inner vertex has turn ``turn`` settles."""
        self.now = turn
        edge = self.settling.pop(turn)
        index = edge.unsettled.index(turn)
        if index == 0:
            touch(edge.src)
        if index == len(edge.unsettled) - 1:
            touch(edge.dst)
        del edge.unsettled[index]

    def _drain(self, pending, queued=None) -> None:
        pending = deque(pending)
        queued = set(pending) if queued is None else queued
        while pending:
            vertex = pending.popleft()
            queued.discard(vertex)
            for touched in self._reduce_at(vertex):
                if touched not in queued:
                    queued.add(touched)
                    pending.append(touched)

    def _reduce_at(self, vertex: int):
        """Apply all reductions available at ``vertex``; yield vertices to
        re-examine."""
        ins = self.in_edges[vertex]
        # Parallel merges: group settled in-edges by source (needs two).
        by_src: Dict[int, List[_Edge]] = {}
        if len(ins) > 1:
            for edge in ins:
                if not edge.unsettled:
                    by_src.setdefault(edge.src, []).append(edge)
        for src, group in by_src.items():
            while len(group) > 1:
                group.sort(key=lambda e: e.min_port)
                first = group.pop(0)
                second = group.pop(0)
                group.append(self._merge_parallel(first, second))
                yield src

        # Series merge: inner vertex with exactly one in- and out-edge.
        if vertex in (self.source, self.sink):
            return
        outs = self.out_edges[vertex]
        if len(ins) == 1 and len(outs) == 1:
            before, after = next(iter(ins)), next(iter(outs))
            settled = (not before.unsettled, not after.unsettled)
            merged = self._merge_series(before, after)
            if settled[0]:
                yield merged.src
            if settled[1]:
                yield merged.dst

    def _merge_parallel(self, first: _Edge, second: _Edge) -> _Edge:
        self._remove_edge(first)
        self._remove_edge(second)
        return self._add_edge(
            _Edge(
                first.src,
                first.dst,
                self._node(PARALLEL, first.tree, second.tree),
                first.ports | second.ports,
                branch_list=first.branches() + second.branches(),
            )
        )

    def _merge_series(self, before: _Edge, after: _Edge) -> _Edge:
        self._remove_edge(before)
        self._remove_edge(after)
        if after.marker >= 0:
            # ``after`` leaves a mux's input side: everything reduced into
            # ``before`` is the parallel branch structure the mux closes.
            self.branches_of[after.marker] = before.branches()
        return self._add_edge(
            _Edge(
                before.src,
                after.dst,
                self._series(before.tree, after.tree),
                after.ports,
                branch_list=after.branch_list,
                # ``before`` may itself leave some other mux's input side
                # whose input structure has not reduced yet; keep its
                # marker so that mux still gets its branches recorded.
                marker=before.marker,
                unsettled=before.unsettled + after.unsettled,
            )
        )

    # -- virtual duplication (non-SP handling) --------------------------
    def _pick_duplication_candidate(self) -> Optional[int]:
        """A blocked fan-out: one in-edge (without a pending mux marker),
        several out-edges."""
        for vertex in sorted(self.in_edges):
            ins = self.in_edges[vertex]
            if (
                vertex not in (self.source, self.sink)
                and len(ins) == 1
                and len(self.out_edges[vertex]) >= 2
                and next(iter(ins)).marker < 0
            ):
                return vertex
        return None

    def _duplicate(self, vertex: int) -> List[int]:
        """Give each out-edge of ``vertex`` its own copy of the reduced
        structure feeding it (renamed leaves, recorded in ``aliases``)."""
        in_edge = next(iter(self.in_edges[vertex]))
        out_edges = sorted(
            self.out_edges[vertex],
            key=lambda e: (e.dst, min(e.ports or {0})),
        )
        self._remove_edge(in_edge)
        touched = [in_edge.src, vertex]
        for index, out_edge in enumerate(out_edges[1:], start=1):
            twin = self._next_vertex
            self._next_vertex += 1
            self.labels[twin] = f"{self._label(vertex)}~dup{index}"
            self._add_edge(
                _Edge(
                    in_edge.src,
                    twin,
                    self._copy_subtree(in_edge.tree),
                    frozenset(),
                )
            )
            self._remove_edge(out_edge)
            out_edge.src = twin
            self._add_edge(out_edge)
            touched.extend((twin, out_edge.dst))
        # the first out-edge keeps the original structure and names
        self._add_edge(
            _Edge(in_edge.src, vertex, in_edge.tree, in_edge.ports)
        )
        self.duplications += 1
        return touched

    def _copy_subtree(self, root: int) -> int:
        """Deep-copy a subtree with its leaves renamed to fresh virtual
        copies (numbered in serial order) and its mux branch lists
        re-linked into the copy."""
        mapping: Dict[int, int] = {}
        names = self.ir.names
        for node in self._post_order(root):
            kind, left, right, first, stop, _ = self.nodes[node]
            if kind == RUN:
                base = self._virtual_counter
                self._virtual_counter += stop - first
                for offset, prim in enumerate(self.chain[first:stop].tolist()):
                    copy_name = virtual_name(names[prim], base + offset)
                    self.aliases[copy_name] = names[prim]
                mapping[node] = self._node(RUN, first=first, stop=stop, copy=base)
            elif kind == WIRE:
                mapping[node] = self._node(WIRE)
            else:
                mapping[node] = self._node(kind, mapping[left], mapping[right])
        for node, clone in list(mapping.items()):
            if node in self.branches_of:
                self.branches_of[clone] = [
                    (ports, mapping[tree])
                    for ports, tree in self.branches_of[node]
                ]
        return mapping[root]

    def _post_order(self, root: int) -> List[int]:
        """Children before parents; leaves come out in serial order."""
        order: List[int] = []
        stack: List[Tuple[int, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            kind, left, right = self.nodes[node][:3]
            if expanded or kind >= RUN:
                order.append(node)
                continue
            stack.extend(((node, True), (right, False), (left, False)))
        return order

    # ------------------------------------------------------------------
    def emit(self, root: int) -> SPTree:
        """Renumber the tree reachable from ``root`` in postorder and lay
        its leaves out serially, as :class:`SPTree` arrays."""
        order = self._post_order(root)
        position = {node: index for index, node in enumerate(order)}
        position[-1] = -1
        records = np.array([self.nodes[node] for node in order], dtype=np.int64)
        kind = records[:, 0].astype(np.int8)
        is_leaf = kind >= RUN
        # a wire leaf is one slot reading the sentinel past the chain's end
        first = np.where(kind == RUN, records[:, 3], len(self.chain))[is_leaf]
        width = np.where(kind == RUN, records[:, 4] - records[:, 3], 1)[is_leaf]
        copy = records[is_leaf, 5]
        offset = np.cumsum(width) - width
        serial = np.arange(int(width.sum()), dtype=np.int64)
        leaf_node = np.append(self.chain, -1)[
            np.repeat(first - offset, width) + serial
        ]
        leaf_copy = np.where(
            np.repeat(copy, width) >= 0,
            np.repeat(copy - offset, width) + serial,
            -1,
        )
        left = np.array([position[node[1]] for node in records.tolist()])
        right = np.array([position[node[2]] for node in records.tolist()])
        lo = np.zeros(len(order), dtype=np.int64)
        hi = np.zeros(len(order), dtype=np.int64)
        lo[is_leaf] = offset
        hi[is_leaf] = offset + width - 1
        for index in np.flatnonzero(~is_leaf).tolist():
            lo[index] = lo[left[index]]
            hi[index] = hi[right[index]]

        # branch tables, keyed by the serial index of each mux leaf; a
        # branch whose tree is not in the result (a wire absorbed by a
        # series merge) is the empty interval [0, -1]
        counts = np.zeros(len(serial) + 1, dtype=np.int64)
        branch_tree, port_count, ports = [], [], []
        for slot, branches in sorted(
            (int(lo[position[node]]), branches)
            for node, branches in self.branches_of.items()
            if node in position
        ):
            counts[slot + 1] = len(branches)
            for entry_ports, tree in branches:
                branch_tree.append(position.get(tree, -1))
                port_count.append(len(entry_ports))
                ports.extend(sorted(entry_ports))
        branch_tree = np.array(branch_tree, dtype=np.int64)
        attached = branch_tree >= 0
        branch_lo = np.where(attached, lo[branch_tree], 0)
        branch_hi = np.where(attached, hi[branch_tree], -1)
        return SPTree(
            self.network,
            kind=kind,
            left=left,
            right=right,
            lo=lo,
            hi=hi,
            names=self.ir.names,
            leaf_node=leaf_node,
            leaf_copy=leaf_copy,
            branch_indptr=np.cumsum(counts),
            branch_tree=branch_tree,
            branch_lo=branch_lo,
            branch_hi=branch_hi,
            port_indptr=np.cumsum([0] + port_count),
            ports=np.array(ports, dtype=np.int64),
            aliases=self.aliases,
        )


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
    return reducer.emit(reducer.run())


def is_series_parallel(network: RsnNetwork) -> bool:
    """True when the RSN graph reduces to a single series-parallel edge."""
    try:
        _Reducer(network).run()
    except NotSeriesParallelError:
        return False
    return True
