"""The RSN graph: vertices, ordered edges, validation and queries.

An :class:`RsnNetwork` is a directed acyclic multigraph with one primary
scan-in and one primary scan-out.  Edge order matters on multiplexer inputs:
the position of a predecessor in the mux's predecessor list *is* the mux
port it drives, which is what stuck-at-id fault analysis and scan-path
simulation key on.

The network is usually produced by :class:`repro.rsn.builder.RsnBuilder`
(which elaborates a hierarchical description), but it can also be assembled
edge by edge for irregular topologies.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import DuplicateNameError, UnknownNodeError, ValidationError
from .primitives import (
    ControlUnit,
    Fanout,
    Instrument,
    Node,
    NodeKind,
    ScanMux,
    ScanPort,
    ScanSegment,
    SegmentRole,
)


class RsnNetwork:
    """A reconfigurable scan network between one scan-in and one scan-out."""

    def __init__(self, name: str = "rsn"):
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._succ: Dict[str, List[str]] = {}
        self._pred: Dict[str, List[str]] = {}
        self._instruments: Dict[str, Instrument] = {}
        self._units: Dict[str, ControlUnit] = {}
        self._scan_in: Optional[str] = None
        self._scan_out: Optional[str] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _add(self, node: Node) -> Node:
        if node.name in self._nodes:
            raise DuplicateNameError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._succ[node.name] = []
        self._pred[node.name] = []
        return node

    def add_scan_in(self, name: str = "scan_in") -> ScanPort:
        if self._scan_in is not None:
            raise DuplicateNameError("network already has a scan-in port")
        port = ScanPort(name, NodeKind.SCAN_IN)
        self._add(port)
        self._scan_in = name
        return port

    def add_scan_out(self, name: str = "scan_out") -> ScanPort:
        if self._scan_out is not None:
            raise DuplicateNameError("network already has a scan-out port")
        port = ScanPort(name, NodeKind.SCAN_OUT)
        self._add(port)
        self._scan_out = name
        return port

    def add_segment(
        self,
        name: str,
        length: int = 1,
        instrument: Optional[str] = None,
        role: SegmentRole = SegmentRole.DATA,
    ) -> ScanSegment:
        seg = ScanSegment(name, length=length, instrument=instrument, role=role)
        self._add(seg)
        if instrument is not None:
            if instrument in self._instruments:
                raise DuplicateNameError(
                    f"duplicate instrument name {instrument!r}"
                )
            self._instruments[instrument] = Instrument(instrument, name)
        return seg

    def add_mux(
        self,
        name: str,
        fanin: int = 2,
        control_cell: Optional[str] = None,
        sib_of: Optional[str] = None,
    ) -> ScanMux:
        mux = ScanMux(
            name, fanin=fanin, control_cell=control_cell, sib_of=sib_of
        )
        self._add(mux)
        return mux

    def add_fanout(self, name: str) -> Fanout:
        fan = Fanout(name)
        self._add(fan)
        return fan

    def add_edge(self, src: str, dst: str) -> None:
        """Connect ``src`` to ``dst``.

        For a mux destination, the port number is the current number of
        predecessors, i.e. edges must be added in port order.
        """
        for endpoint in (src, dst):
            if endpoint not in self._nodes:
                raise UnknownNodeError(f"unknown node {endpoint!r}")
        self._succ[src].append(dst)
        self._pred[dst].append(src)

    def register_unit(self, unit: ControlUnit) -> None:
        """Register a hardening unit (mux + its control cells)."""
        if unit.name in self._units:
            raise DuplicateNameError(f"duplicate control unit {unit.name!r}")
        for member in unit.members:
            if member not in self._nodes:
                raise UnknownNodeError(
                    f"control unit {unit.name!r}: unknown member {member!r}"
                )
        self._units[unit.name] = unit

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def scan_in(self) -> str:
        if self._scan_in is None:
            raise UnknownNodeError("network has no scan-in port")
        return self._scan_in

    @property
    def scan_out(self) -> str:
        if self._scan_out is None:
            raise UnknownNodeError("network has no scan-out port")
        return self._scan_out

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise UnknownNodeError(f"unknown node {name!r}") from None

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def node_names(self) -> Iterator[str]:
        return iter(self._nodes.keys())

    def successors(self, name: str) -> Tuple[str, ...]:
        return tuple(self._succ[name])

    def predecessors(self, name: str) -> Tuple[str, ...]:
        return tuple(self._pred[name])

    def n_edges(self) -> int:
        return sum(map(len, self._succ.values()))

    def edges(self) -> Iterator[Tuple[str, str]]:
        for src, dsts in self._succ.items():
            for dst in dsts:
                yield (src, dst)

    def mux_port(self, mux: str, src: str) -> int:
        """The port of ``mux`` driven by ``src`` (first match)."""
        try:
            return self._pred[mux].index(src)
        except ValueError:
            raise UnknownNodeError(
                f"{src!r} does not drive mux {mux!r}"
            ) from None

    def segments(self) -> Iterator[ScanSegment]:
        for node in self._nodes.values():
            if node.kind is NodeKind.SEGMENT:
                yield node  # type: ignore[misc]

    def data_segments(self) -> Iterator[ScanSegment]:
        for seg in self.segments():
            if seg.role is SegmentRole.DATA:
                yield seg

    def control_segments(self) -> Iterator[ScanSegment]:
        for seg in self.segments():
            if seg.role is not SegmentRole.DATA:
                yield seg

    def muxes(self) -> Iterator[ScanMux]:
        for node in self._nodes.values():
            if node.kind is NodeKind.MUX:
                yield node  # type: ignore[misc]

    def fanouts(self) -> Iterator[Fanout]:
        for node in self._nodes.values():
            if node.kind is NodeKind.FANOUT:
                yield node  # type: ignore[misc]

    def instruments(self) -> Iterator[Instrument]:
        return iter(self._instruments.values())

    def instrument(self, name: str) -> Instrument:
        try:
            return self._instruments[name]
        except KeyError:
            raise UnknownNodeError(f"unknown instrument {name!r}") from None

    def instrument_names(self) -> List[str]:
        return list(self._instruments.keys())

    def units(self) -> Iterator[ControlUnit]:
        return iter(self._units.values())

    def unit(self, name: str) -> ControlUnit:
        try:
            return self._units[name]
        except KeyError:
            raise UnknownNodeError(f"unknown control unit {name!r}") from None

    def unit_names(self) -> List[str]:
        return list(self._units.keys())

    def unit_of(self, member: str) -> Optional[ControlUnit]:
        """The hardening unit covering a node, or None."""
        for unit in self._units.values():
            if member in unit.members:
                return unit
        return None

    def counts(self) -> Tuple[int, int]:
        """(#segments, #multiplexers) in Table-I accounting.

        "# Segments" counts *data* segments (the instrument-facing shift
        registers); SIB bits and configuration cells belong to the control
        primitives counted under "# Multiplexers" together with their mux.
        This is the only accounting under which the published counts of
        designs like TreeFlat (24 segments, 24 multiplexers for a flat chain
        of 24 single-instrument SIBs) are coherent.
        """
        n_segments = sum(1 for _ in self.data_segments())
        n_muxes = sum(1 for _ in self.muxes())
        return n_segments, n_muxes

    def total_bits(self) -> int:
        """Total number of scan flip-flops in the network."""
        return sum(seg.length for seg in self.segments())

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def topological_order(self) -> List[str]:
        """Topological order of all nodes; raises on cycles."""
        indeg = {name: len(preds) for name, preds in self._pred.items()}
        ready = [name for name, deg in indeg.items() if deg == 0]
        order: List[str] = []
        while ready:
            name = ready.pop()
            order.append(name)
            for succ in self._succ[name]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._nodes):
            raise ValidationError(["network contains a scan-path cycle"])
        return order

    def validate(self) -> None:
        """Check structural well-formedness; raise ValidationError if bad."""
        problems: List[str] = []
        if self._scan_in is None:
            problems.append("missing scan-in port")
        if self._scan_out is None:
            problems.append("missing scan-out port")
        if problems:
            raise ValidationError(problems)

        expected_degrees = {
            NodeKind.SCAN_IN: (0, 0, 1, 1),
            NodeKind.SCAN_OUT: (1, 1, 0, 0),
            NodeKind.SEGMENT: (1, 1, 1, 1),
            NodeKind.FANOUT: (1, 1, 2, None),
            NodeKind.MUX: (2, None, 1, 1),
        }
        for node in self._nodes.values():
            indeg = len(self._pred[node.name])
            outdeg = len(self._succ[node.name])
            lo_in, hi_in, lo_out, hi_out = expected_degrees[node.kind]
            if indeg < lo_in or (hi_in is not None and indeg > hi_in):
                problems.append(
                    f"{node.kind.value} {node.name!r}: in-degree {indeg}"
                )
            if outdeg < lo_out or (hi_out is not None and outdeg > hi_out):
                problems.append(
                    f"{node.kind.value} {node.name!r}: out-degree {outdeg}"
                )
            if node.kind is NodeKind.MUX:
                if indeg != node.fanin:  # type: ignore[union-attr]
                    problems.append(
                        f"mux {node.name!r}: fanin {node.fanin} but "
                        f"{indeg} predecessors"  # type: ignore[union-attr]
                    )
                cell = node.control_cell  # type: ignore[union-attr]
                if cell is not None:
                    cell_node = self._nodes.get(cell)
                    if cell_node is None:
                        problems.append(
                            f"mux {node.name!r}: unknown control cell "
                            f"{cell!r}"
                        )
                    elif (
                        cell_node.kind is not NodeKind.SEGMENT
                        or not cell_node.is_control  # type: ignore[union-attr]
                    ):
                        problems.append(
                            f"mux {node.name!r}: control cell {cell!r} is "
                            "not a control segment"
                        )

        try:
            order = self.topological_order()
        except ValidationError as exc:
            problems.extend(exc.problems)
            order = []

        if order:
            problems.extend(self._connectivity_problems())

        if problems:
            raise ValidationError(problems)

    def _connectivity_problems(self) -> List[str]:
        """Every vertex must lie on some scan-in -> scan-out path."""
        problems: List[str] = []
        from_in = self._reachable(self.scan_in, self._succ)
        to_out = self._reachable(self.scan_out, self._pred)
        for name in self._nodes:
            if name not in from_in:
                problems.append(f"{name!r} unreachable from scan-in")
            elif name not in to_out:
                problems.append(f"{name!r} cannot reach scan-out")
        return problems

    @staticmethod
    def _reachable(start: str, adjacency: Dict[str, List[str]]) -> set:
        seen = {start}
        frontier = [start]
        while frontier:
            name = frontier.pop()
            for nxt in adjacency[name]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export as a :class:`networkx.MultiDiGraph` with node attributes."""
        import networkx as nx

        graph = nx.MultiDiGraph(name=self.name)
        for node in self._nodes.values():
            attrs = {"kind": node.kind.value}
            if node.kind is NodeKind.SEGMENT:
                attrs["length"] = node.length  # type: ignore[union-attr]
                attrs["role"] = node.role.value  # type: ignore[union-attr]
                if node.instrument:  # type: ignore[union-attr]
                    attrs["instrument"] = node.instrument  # type: ignore[union-attr]
            graph.add_node(node.name, **attrs)
        for src, dst in self.edges():
            graph.add_edge(src, dst)
        return graph

    def __repr__(self):  # pragma: no cover - debugging aid
        n_seg, n_mux = self.counts()
        return (
            f"<RsnNetwork {self.name}: {n_seg} segments, {n_mux} muxes, "
            f"{len(self._nodes)} vertices>"
        )


def iter_instrument_segments(network: RsnNetwork) -> Iterable[ScanSegment]:
    """All segments hosting an instrument, in insertion order."""
    for seg in network.segments():
        if seg.hosts_instrument:
            yield seg
