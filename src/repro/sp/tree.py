"""Binary decomposition trees of series-parallel RSNs (Sec. III, Def. 1).

The tree's leaves are the scan primitives (segments and multiplexers) plus
*wire* leaves for primitive-less bypass branches; inner nodes are ``S``
(series) or ``P`` (parallel) compositions.  Serial order is significant:
``S(a, b)`` means ``a`` lies closer to the scan-in than ``b``.

Multiplexer leaves additionally carry ``mux_branches``: the list of
``(ports, subtree)`` pairs describing which subtree of the preceding
parallel composition enters the mux on which port — the information
stuck-at-id fault analysis needs.

All traversals are iterative; decomposition trees of large RSNs are far
deeper than Python's recursion limit.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ReproError
from ..rsn.network import RsnNetwork


class SPKind(enum.Enum):
    SERIES = "S"
    PARALLEL = "P"
    LEAF = "leaf"
    WIRE = "wire"


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
            f"<SPTree of {self.network.name}: {len(self.leaves)} leaves, "
            f"{self.size()} vertices>"
        )
