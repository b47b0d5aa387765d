"""Binary decomposition trees of series-parallel RSNs (Sec. III, Def. 1).

The tree's leaves are the scan primitives (segments and multiplexers) plus
*wire* leaves for primitive-less bypass branches; inner nodes are ``S``
(series) or ``P`` (parallel) compositions.  Serial order is significant:
``S(a, b)`` means ``a`` lies closer to the scan-in than ``b``.

Multiplexer leaves additionally carry ``mux_branches``: the list of
``(ports, subtree)`` pairs describing which subtree of the preceding
parallel composition enters the mux on which port — the information
stuck-at-id fault analysis needs.

:func:`repro.sp.decompose` emits the tree as arrays (:class:`SPTree`):
a postorder node table whose leaves are *runs* — contiguous intervals of
serial leaves — and, per mux leaf, a CSR table of its branches.  Every
subtree covers one serial interval ``[lo, hi]``, so the damage DP works
on interval arithmetic alone.  The object form (:class:`SPNode`, one
node per primitive) is a view built on first use for the explicit
reference analysis, the structure queries and rendering.

All traversals are iterative; decomposition trees of large RSNs are far
deeper than Python's recursion limit.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import ReproError
from ..rsn.network import RsnNetwork
from .virtualize import virtual_name


class SPKind(enum.Enum):
    SERIES = "S"
    PARALLEL = "P"
    LEAF = "leaf"
    WIRE = "wire"


# Node codes of the array tree (``SPTree.kind``).  A RUN node is a series
# chain of one or more primitive leaves; a WIRE node holds one empty slot.
SERIES, PARALLEL, RUN, WIRE = range(4)


class SPNode:
    """One vertex of a binary decomposition tree."""

    __slots__ = (
        "kind",
        "left",
        "right",
        "primitive",
        "mux_branches",
        "parent",
        "lo",
        "hi",
    )

    def __init__(
        self,
        kind: SPKind,
        left: Optional["SPNode"] = None,
        right: Optional["SPNode"] = None,
        primitive: Optional[str] = None,
    ):
        self.kind = kind
        self.left = left
        self.right = right
        self.primitive = primitive
        # list[(frozenset[int], SPNode)] on mux leaves, else None
        self.mux_branches: Optional[List[Tuple[frozenset, "SPNode"]]] = None
        self.parent: Optional["SPNode"] = None
        # Serial leaf-index range [lo, hi] covered by this subtree; filled
        # by SPTree.annotate_ranges() and used by the damage analyses.
        self.lo = -1
        self.hi = -1

    # -- constructors ---------------------------------------------------
    @staticmethod
    def leaf(primitive: str) -> "SPNode":
        return SPNode(SPKind.LEAF, primitive=primitive)

    @staticmethod
    def wire() -> "SPNode":
        return SPNode(SPKind.WIRE)

    @staticmethod
    def series(left: "SPNode", right: "SPNode") -> "SPNode":
        """Series composition; absorbs wire operands."""
        if left.kind is SPKind.WIRE:
            return right
        if right.kind is SPKind.WIRE:
            return left
        return SPNode(SPKind.SERIES, left=left, right=right)

    @staticmethod
    def parallel(left: "SPNode", right: "SPNode") -> "SPNode":
        return SPNode(SPKind.PARALLEL, left=left, right=right)

    # -- queries ---------------------------------------------------------
    # S and P nodes always carry both children, leaves and wires none.
    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def is_inner(self) -> bool:
        return self.left is not None

    def children(self) -> Tuple["SPNode", ...]:
        if self.is_leaf:
            return ()
        return (self.left, self.right)

    def __repr__(self):  # pragma: no cover - debugging aid
        if self.kind is SPKind.LEAF:
            return f"leaf({self.primitive})"
        if self.kind is SPKind.WIRE:
            return "wire"
        return f"{self.kind.value}({self.left!r}, {self.right!r})"

    # -- iterative traversals ---------------------------------------------
    def post_order(self) -> Iterator["SPNode"]:
        """Children before parents — the paper's "reverse polish" order."""
        stack: List[Tuple["SPNode", bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded or node.is_leaf:
                yield node
                continue
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))

    def pre_order(self) -> Iterator["SPNode"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.is_inner:
                stack.append(node.right)
                stack.append(node.left)

    def in_order_leaves(self) -> Iterator["SPNode"]:
        """Leaves in serial (scan-in to scan-out) order."""
        for node in self.pre_order():
            if node.is_leaf:
                yield node

    def format(self, max_depth: int = 30) -> str:
        """Multi-line rendering of the tree (Fig. 3 style), for debugging
        and documentation; deep chains are elided beyond ``max_depth``."""
        lines: List[str] = []
        stack: List[Tuple["SPNode", int]] = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            pad = "  " * depth
            if depth > max_depth:
                lines.append(f"{pad}...")
                continue
            if node.kind is SPKind.LEAF:
                lines.append(f"{pad}{node.primitive}")
            elif node.kind is SPKind.WIRE:
                lines.append(f"{pad}(wire)")
            else:
                lines.append(f"{pad}{node.kind.value}")
                stack.append((node.right, depth + 1))
                stack.append((node.left, depth + 1))
        return "\n".join(lines)


class SPTree:
    """A decomposition tree bound to the network it was derived from.

    Array form (built by :func:`repro.sp.decompose`, read by the damage
    DP):

    * ``kind`` / ``left`` / ``right`` / ``lo`` / ``hi`` — the nodes in
      postorder (the root is last); ``left``/``right`` are ``-1`` on RUN
      and WIRE nodes, ``[lo, hi]`` is the serial leaf interval a node
      covers;
    * ``leaf_node`` — per serial leaf, the compiled-IR id of its primitive
      (``-1`` for a wire leaf; ``names`` are the IR's node names);
      ``leaf_copy`` — the virtual-copy counter of a duplicated leaf
      (``-1`` for physical leaves);
    * the branch tables of every mux leaf ``j``: its entries are
      ``branch_indptr[j]:branch_indptr[j + 1]``, entry ``e`` is the
      subtree ``branch_tree[e]`` spanning ``[branch_lo[e], branch_hi[e]]``
      and enters the mux on ports
      ``ports[port_indptr[e]:port_indptr[e + 1]]``.

    When the RSN is not series-parallel, :func:`repro.sp.decompose` may
    (on request) *virtually duplicate* parts of the graph to obtain an SP
    representation — the physical network is untouched.  ``aliases`` then
    maps every duplicated leaf name to the physical primitive it copies,
    and a primitive can own several leaves (:meth:`leaves_of`).

    The object view (``root``, ``leaves`` and the leaf queries) is built
    from the arrays on first use.
    """

    def __init__(
        self,
        network: RsnNetwork,
        *,
        kind: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        names: Tuple[str, ...],
        leaf_node: np.ndarray,
        leaf_copy: np.ndarray,
        branch_indptr: np.ndarray,
        branch_tree: np.ndarray,
        branch_lo: np.ndarray,
        branch_hi: np.ndarray,
        port_indptr: np.ndarray,
        ports: np.ndarray,
        aliases: Optional[Dict[str, str]] = None,
    ):
        self.network = network
        self.kind = kind
        self.left = left
        self.right = right
        self.lo = lo
        self.hi = hi
        self.names = names
        self.leaf_node = leaf_node
        self.leaf_copy = leaf_copy
        self.branch_indptr = branch_indptr
        self.branch_tree = branch_tree
        self.branch_lo = branch_lo
        self.branch_hi = branch_hi
        self.port_indptr = port_indptr
        self.ports = ports
        self.aliases: Dict[str, str] = dict(aliases or {})
        self._serial_index: Optional[np.ndarray] = None
        self._leaf_branch: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._root: Optional[SPNode] = None

    @property
    def is_virtualized(self) -> bool:
        """True when the tree contains duplicated (virtual) leaves."""
        return bool(self.aliases)

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_node)

    # -- array queries ---------------------------------------------------
    @property
    def serial_index(self) -> np.ndarray:
        """Per compiled-IR node id, the serial index of its physical leaf
        (``-1`` for scan ports and fan-outs)."""
        if self._serial_index is None:
            index = np.full(len(self.names), -1, dtype=np.int64)
            physical = np.flatnonzero(
                (self.leaf_node >= 0) & (self.leaf_copy < 0)
            )
            index[self.leaf_node[physical]] = physical
            self._serial_index = index
        return self._serial_index

    def leaf_branch_ranges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per serial leaf, the interval ``[lo, hi]`` of the innermost
        parallel branch around it (:meth:`branch_root` as arrays)."""
        if self._leaf_branch is None:
            # Top-down: S children inherit their parent's branch, P
            # children and the root open their own.
            count = len(self.kind)
            top_lo = self.lo.copy()
            top_hi = self.hi.copy()
            kind, left, right = self.kind, self.left, self.right
            for node in range(count - 1, -1, -1):
                if kind[node] == SERIES:
                    for child in (left[node], right[node]):
                        top_lo[child] = top_lo[node]
                        top_hi[child] = top_hi[node]
            leaves = np.flatnonzero(kind >= RUN)  # serial order
            widths = self.hi[leaves] - self.lo[leaves] + 1
            self._leaf_branch = (
                np.repeat(top_lo[leaves], widths),
                np.repeat(top_hi[leaves], widths),
            )
        return self._leaf_branch

    def leaf_name(self, index: int) -> Optional[str]:
        """Name of serial leaf ``index`` (None for a wire leaf)."""
        node = int(self.leaf_node[index])
        if node < 0:
            return None
        name = self.names[node]
        copy = int(self.leaf_copy[index])
        return name if copy < 0 else virtual_name(name, copy)

    # -- object view -------------------------------------------------------
    @property
    def root(self) -> SPNode:
        if self._root is None:
            self._build_view()
        return self._root

    @property
    def leaves(self) -> List[SPNode]:
        """Leaves in serial order (scan-in side first)."""
        self.root
        return self._leaves

    def _build_view(self) -> None:
        leaves: List[SPNode] = []
        for index in range(self.n_leaves):
            name = self.leaf_name(index)
            leaf = SPNode.wire() if name is None else SPNode.leaf(name)
            leaf.lo = leaf.hi = index
            leaves.append(leaf)
        nodes: List[SPNode] = []
        kind, left, right = self.kind, self.left, self.right
        for index in range(len(kind)):
            code = kind[index]
            lo, hi = int(self.lo[index]), int(self.hi[index])
            if code >= RUN:
                # a run is a left-deep series chain of its leaves
                node = leaves[lo]
                for slot in range(lo + 1, hi + 1):
                    node = SPNode(SPKind.SERIES, left=node, right=leaves[slot])
                    node.lo, node.hi = lo, slot
            else:
                node = SPNode(
                    SPKind.SERIES if code == SERIES else SPKind.PARALLEL,
                    left=nodes[left[index]],
                    right=nodes[right[index]],
                )
                node.lo, node.hi = lo, hi
            nodes.append(node)
        indptr = self.branch_indptr
        for mux in np.flatnonzero(np.diff(indptr)):
            branches = []
            for entry in range(indptr[mux], indptr[mux + 1]):
                ports = frozenset(
                    self.ports[
                        self.port_indptr[entry] : self.port_indptr[entry + 1]
                    ].tolist()
                )
                tree = self.branch_tree[entry]
                branches.append(
                    (ports, nodes[tree] if tree >= 0 else SPNode.wire())
                )
            leaves[mux].mux_branches = branches
        root = nodes[-1]
        root.parent = None
        for node in root.pre_order():
            if node.is_inner:
                node.left.parent = node.right.parent = node
        self._leaves = leaves
        self._index_of = {id(leaf): index for index, leaf in enumerate(leaves)}
        self._leaf_of: Dict[str, SPNode] = {}
        self._copies_of: Dict[str, List[SPNode]] = {}
        for leaf in leaves:
            if leaf.primitive is not None:
                self._leaf_of[leaf.primitive] = leaf
                canonical = self.aliases.get(leaf.primitive, leaf.primitive)
                self._copies_of.setdefault(canonical, []).append(leaf)
        self._root = root

    def canonical_name(self, leaf_name: str) -> str:
        """The physical primitive behind a (possibly duplicated) leaf."""
        return self.aliases.get(leaf_name, leaf_name)

    def leaves_of(self, primitive: str) -> List[SPNode]:
        """All leaves representing a physical primitive (>= 1)."""
        self.root
        try:
            return self._copies_of[primitive]
        except KeyError:
            raise ReproError(
                f"primitive {primitive!r} has no decomposition-tree leaf"
            ) from None

    def leaf(self, primitive: str) -> SPNode:
        self.root
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
        self.root
        return primitive in self._leaf_of or primitive in self._copies_of

    def leaf_index(self, node: SPNode) -> int:
        """Serial position of a leaf (scan-in side first)."""
        self.root
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
        """Make every view node's ``[lo, hi]`` serial leaf-index range
        available (the view is built with them)."""
        self.root

    def branch_range(self, leaf: SPNode) -> Tuple[int, int]:
        """Serial index range of the innermost parallel branch around
        ``leaf``."""
        root = self.branch_root(leaf)
        return root.lo, root.hi

    def size(self) -> int:
        """Total number of tree vertices."""
        return sum(1 for _ in self.root.post_order())

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"<SPTree of {self.network.name}: {self.n_leaves} leaves, "
            f"{len(self.kind)} array nodes>"
        )
