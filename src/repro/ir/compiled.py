"""The compiled network IR: one array-backed form under every hot path.

:class:`CompiledNetwork` is a frozen lowering of :class:`RsnNetwork` onto
dense integer node ids and CSR adjacency arrays.  The dict-of-lists,
string-keyed graph stays the construction / validation API; everything
that walks the graph per fault or per scan cycle — the reachability BFS
of :class:`repro.analysis.GraphDamageAnalysis`, the series-parallel
decomposition of :func:`repro.sp.decompose`, the active-path
walk of :class:`repro.sim.ScanSimulator`, the dominator computation of
:mod:`repro.graph.dominators` and the worker dispatch of
:class:`repro.analysis.CriticalityEngine` — executes on this one
representation.

Layout
------
* ``names`` — node names in insertion order; the index is the node id.
* ``kinds`` — per-node kind code (``SCAN_IN`` .. ``FANOUT``), a ``bytes``
  object so indexing yields plain ints.
* ``succ_indptr`` / ``succ_indices`` — CSR successor adjacency.
* ``succ_ports`` — aligned with ``succ_indices``: the position of this
  edge occurrence in the destination's predecessor list, i.e. the mux
  input port the edge drives when the destination is a multiplexer.
* ``pred_indptr`` / ``pred_indices`` — CSR predecessor adjacency; the
  slot offset inside a node's row *is* the mux port (predecessor order
  defines ports, exactly as in the dict graph).
* ``topo`` — a precomputed topological order of all node ids.
* ``fanin`` / ``control_cell`` / ``seg_length`` / ``roles`` — per-node
  primitive attributes (zero / ``-1`` where not applicable).
* ``fingerprint`` — SHA-256 over the canonical structure description
  (including :data:`IR_VERSION`), the engine's disk-cache key component.

The hot-path arrays are :mod:`array`-module ``'i'`` arrays rather than
numpy: indexing them from the Python BFS/walk loops yields unboxed ints
(numpy scalar boxing would make the loops slower, not faster), they
pickle compactly for spawn-mode workers, and numpy views are one
``np.frombuffer`` away where vectorized math wants them
(:meth:`CompiledNetwork.weight_vectors`).
"""

from __future__ import annotations

import hashlib
import json
from array import array
from typing import Dict, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from ..errors import UnknownNodeError, ValidationError
from ..rsn.network import RsnNetwork
from ..rsn.primitives import ControlUnit, NodeKind, SegmentRole

#: Bump whenever the compiled layout or its semantics change; folded into
#: every fingerprint so engine disk-cache entries from older IR layouts
#: can never be served.
IR_VERSION = "1"

#: Fault lanes per machine word in the bit-parallel batch analysis
#: (:mod:`repro.analysis.batch`): one ``uint64`` holds 64 independent
#: fault instances.
LANE_BITS = 64


def lane_words(count: int) -> int:
    """Words needed to hold ``count`` fault lanes (``ceil(count / 64)``)."""
    return -(-count // LANE_BITS)

# Stable kind codes (part of the fingerprint — never renumber).
SCAN_IN, SCAN_OUT, SEGMENT, MUX, FANOUT = range(5)
_KIND_CODE = {
    NodeKind.SCAN_IN: SCAN_IN,
    NodeKind.SCAN_OUT: SCAN_OUT,
    NodeKind.SEGMENT: SEGMENT,
    NodeKind.MUX: MUX,
    NodeKind.FANOUT: FANOUT,
}

# Stable segment-role codes; NO_ROLE marks non-segment nodes.
ROLE_DATA, ROLE_CONTROL, ROLE_SIB, NO_ROLE = 0, 1, 2, -1
_ROLE_CODE = {
    SegmentRole.DATA: ROLE_DATA,
    SegmentRole.CONTROL: ROLE_CONTROL,
    SegmentRole.SIB: ROLE_SIB,
}
_ROLE_OF_CODE = {code: role for role, code in _ROLE_CODE.items()}


def fingerprint_payload(network: RsnNetwork) -> Dict:
    """A canonical, JSON-stable description of the network structure.

    Node insertion order and *predecessor* order are part of the
    structure (mux ports are defined by predecessor order), so both are
    serialized verbatim.  Successor order is included as well so the
    payload round-trips the adjacency exactly.
    """
    nodes: List[Dict] = []
    for node in network.nodes():
        entry: Dict = {"name": node.name, "kind": node.kind.value}
        if node.kind is NodeKind.SEGMENT:
            entry["length"] = node.length
            entry["role"] = node.role.value
            entry["instrument"] = node.instrument
        elif node.kind is NodeKind.MUX:
            entry["fanin"] = node.fanin
            entry["control_cell"] = node.control_cell
            entry["sib_of"] = node.sib_of
        nodes.append(entry)
    return {
        "name": network.name,
        "nodes": nodes,
        "succ": [list(network.successors(n)) for n in network.node_names()],
        "pred": [
            list(network.predecessors(n)) for n in network.node_names()
        ],
        "units": [
            {
                "name": unit.name,
                "muxes": list(unit.muxes),
                "cells": list(unit.cells),
                "is_sib": unit.is_sib,
            }
            for unit in network.units()
        ],
    }


def _fingerprint(payload: Dict) -> str:
    text = json.dumps(
        {"ir_version": IR_VERSION, "network": payload},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CompiledNetwork:
    """Frozen array-backed lowering of one :class:`RsnNetwork`.

    Built by :func:`intern` / :func:`compile_network`; all attributes are
    read-only after construction.
    """

    __slots__ = (
        "name",
        "names",
        "kinds",
        "succ_indptr",
        "succ_indices",
        "succ_ports",
        "pred_indptr",
        "pred_indices",
        "topo",
        "scan_in",
        "scan_out",
        "fanin",
        "control_cell",
        "sib_of",
        "seg_length",
        "roles",
        "instrument_of",
        "instruments",
        "instrument_segment",
        "units",
        "fingerprint",
        "_index",
        "_frozen",
    )

    def __init__(self, **fields):
        object.__setattr__(self, "_frozen", False)
        for slot in self.__slots__:
            if slot == "_frozen":
                continue
            setattr(self, slot, fields[slot])
        object.__setattr__(self, "_frozen", True)

    def __setattr__(self, name, value):
        if getattr(self, "_frozen", False):
            raise AttributeError(
                f"CompiledNetwork is frozen; cannot set {name!r}"
            )
        object.__setattr__(self, name, value)

    # -- pickling (required explicitly because of __slots__) -----------
    def __getstate__(self):
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "_frozen"
        }

    def __setstate__(self, state):
        object.__setattr__(self, "_frozen", False)
        for slot, value in state.items():
            object.__setattr__(self, slot, value)
        object.__setattr__(self, "_frozen", True)

    # -- basic queries ---------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.names)

    @property
    def n_edges(self) -> int:
        return len(self.succ_indices)

    def id_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownNodeError(f"unknown node {name!r}") from None

    def name_of(self, node_id: int) -> str:
        return self.names[node_id]

    def successors(self, node_id: int) -> Tuple[int, ...]:
        lo, hi = self.succ_indptr[node_id], self.succ_indptr[node_id + 1]
        return tuple(self.succ_indices[lo:hi])

    def predecessors(self, node_id: int) -> Tuple[int, ...]:
        lo, hi = self.pred_indptr[node_id], self.pred_indptr[node_id + 1]
        return tuple(self.pred_indices[lo:hi])

    def mux_port_source(self, mux_id: int, port: int) -> int:
        """The node id driving ``port`` of mux ``mux_id``."""
        lo, hi = self.pred_indptr[mux_id], self.pred_indptr[mux_id + 1]
        if not 0 <= port < hi - lo:
            raise UnknownNodeError(
                f"mux {self.names[mux_id]!r} has no port {port}"
            )
        return self.pred_indices[lo + port]

    def stuck_values(self, mux_id: int) -> range:
        """Stuck-at-id fault values of a mux (== ``range(fanin)``)."""
        return range(self.fanin[mux_id])

    # -- lane helpers (bit-parallel batch analysis) ----------------------
    def mux_dead_slots(self, mux_id: int, port: int) -> List[int]:
        """Predecessor-CSR slots of ``mux_id`` killed when it is stuck at
        ``port``: every input slot except the (wrapped) pinned one.

        These are the positions whose lane bits the batch analysis clears
        in its per-edge *alive mask* — data can neither enter nor leave a
        mux through a deselected port.
        """
        lo = self.pred_indptr[mux_id]
        pinned = port % self.fanin[mux_id]
        return [
            lo + q for q in range(self.fanin[mux_id]) if q != pinned
        ]

    def succ_pred_slots(self) -> np.ndarray:
        """For each successor-CSR slot, the matching predecessor-CSR slot.

        Edge occurrence ``succ_indices[s]`` entered through port
        ``succ_ports[s]`` occupies position ``pred_indptr[dst] +
        succ_ports[s]`` in the destination's predecessor row.  Backward
        sweeps use this to share one per-predecessor-slot alive mask with
        the forward direction.  O(E); callers cache the result.
        """
        pred_indptr = np.frombuffer(self.pred_indptr, dtype=np.int32)
        succ_indices = np.frombuffer(self.succ_indices, dtype=np.int32)
        succ_ports = np.frombuffer(self.succ_ports, dtype=np.int32)
        return (
            pred_indptr[succ_indices].astype(np.int64)
            + succ_ports.astype(np.int64)
        )

    def primitive_ids(self) -> List[int]:
        """Ids of all scan primitives (segments and muxes), in id order."""
        kinds = self.kinds
        return [
            i
            for i in range(len(self.names))
            if kinds[i] == SEGMENT or kinds[i] == MUX
        ]

    def weight_vectors(self, spec) -> Tuple[np.ndarray, np.ndarray]:
        """``(do, ds)`` damage-weight vectors aligned to node ids.

        Entry ``i`` holds the observability / settability weight of the
        instrument hosted by segment ``i`` (zero for instrument-free
        nodes), so per-fault damage is a plain gather-sum over ids.
        """
        count = len(self.names)
        do_w = np.zeros(count)
        ds_w = np.zeros(count)
        for seg_id, instrument in zip(
            self.instrument_segment, self.instruments
        ):
            do_w[seg_id], ds_w[seg_id] = spec.weight(instrument)
        return do_w, ds_w

    def spec_digest(self, spec) -> str:
        """A content hash of :meth:`weight_vectors` — the spec's
        contribution to every cache key (the analysis result cache, the
        campaign checkpoints): ``d_j`` depends on the spec only through
        these weights, and specs have no fingerprint of their own."""
        do_w, ds_w = self.weight_vectors(spec)
        digest = hashlib.sha256()
        digest.update(do_w.tobytes())
        digest.update(ds_w.tobytes())
        return digest.hexdigest()[:32]

    # -- reconstruction --------------------------------------------------
    def to_network(self) -> RsnNetwork:
        """Rebuild the dict-based :class:`RsnNetwork` this IR was compiled
        from, structure-identical (same fingerprint).

        Used by spawn-mode engine workers, which receive the compact IR
        over the wire and re-derive whatever view (e.g. the decomposition
        tree) their analysis method needs.
        """
        net = RsnNetwork(self.name)
        for i, name in enumerate(self.names):
            kind = self.kinds[i]
            if kind == SCAN_IN:
                net.add_scan_in(name)
            elif kind == SCAN_OUT:
                net.add_scan_out(name)
            elif kind == SEGMENT:
                net.add_segment(
                    name,
                    length=self.seg_length[i],
                    instrument=self.instrument_of[i],
                    role=_ROLE_OF_CODE[self.roles[i]],
                )
            elif kind == MUX:
                cell = self.control_cell[i]
                net.add_mux(
                    name,
                    fanin=self.fanin[i],
                    control_cell=self.names[cell] if cell >= 0 else None,
                    sib_of=self.sib_of[i],
                )
            else:
                net.add_fanout(name)
        # Adjacency is restored row-by-row rather than through add_edge:
        # the CSR rows preserve the original per-node successor and
        # predecessor orders exactly (ports!), while a replay through
        # add_edge would have to reconstruct the global interleaving.
        names = self.names
        for i, name in enumerate(names):
            net._succ[name] = [
                names[v] for v in self.successors(i)
            ]
            net._pred[name] = [
                names[u] for u in self.predecessors(i)
            ]
        for unit_name, muxes, cells, is_sib in self.units:
            net.register_unit(
                ControlUnit(unit_name, muxes=muxes, cells=cells, is_sib=is_sib)
            )
        # The rebuilt network's compiled form is this IR: seed the intern
        # memo so analyses of it (worker DP, analyze jobs) never compile
        # it a second time.
        _INTERNED[net] = self
        return net

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"<CompiledNetwork {self.name}: {self.n_nodes} nodes, "
            f"{self.n_edges} edges, {self.fingerprint[:12]}…>"
        )


def _topological_order(
    count: int,
    succ_indptr: Sequence[int],
    succ_indices: Sequence[int],
    pred_indptr: Sequence[int],
) -> array:
    """Kahn's algorithm over the CSR arrays (LIFO ready list, matching
    :meth:`RsnNetwork.topological_order` for determinism)."""
    indeg = [pred_indptr[i + 1] - pred_indptr[i] for i in range(count)]
    ready = [i for i in range(count) if indeg[i] == 0]
    order = array("i")
    while ready:
        node = ready.pop()
        order.append(node)
        for slot in range(succ_indptr[node], succ_indptr[node + 1]):
            succ = succ_indices[slot]
            indeg[succ] -= 1
            if indeg[succ] == 0:
                ready.append(succ)
    if len(order) != count:
        raise ValidationError(["network contains a scan-path cycle"])
    return order


def compile_network(network: RsnNetwork) -> CompiledNetwork:
    """Lower ``network`` into a fresh :class:`CompiledNetwork`.

    Prefer :func:`intern`, which memoizes per network object.
    """
    names: Tuple[str, ...] = tuple(network.node_names())
    index: Dict[str, int] = {name: i for i, name in enumerate(names)}
    count = len(names)

    kinds = bytearray(count)
    fanin = array("i", [0]) * count
    control_cell = array("i", [-1]) * count
    seg_length = array("i", [0]) * count
    roles = array("b", [NO_ROLE]) * count
    sib_of: List[Optional[str]] = [None] * count
    instrument_of: List[Optional[str]] = [None] * count

    for i, name in enumerate(names):
        node = network.node(name)
        kinds[i] = _KIND_CODE[node.kind]
        if node.kind is NodeKind.SEGMENT:
            seg_length[i] = node.length
            roles[i] = _ROLE_CODE[node.role]
            instrument_of[i] = node.instrument
        elif node.kind is NodeKind.MUX:
            fanin[i] = node.fanin
            sib_of[i] = node.sib_of
            if node.control_cell is not None:
                try:
                    control_cell[i] = index[node.control_cell]
                except KeyError:
                    raise UnknownNodeError(
                        f"mux {name!r}: unknown control cell "
                        f"{node.control_cell!r}"
                    ) from None

    pred_indptr = array("i", [0])
    pred_indices = array("i")
    for name in names:
        for pred in network.predecessors(name):
            pred_indices.append(index[pred])
        pred_indptr.append(len(pred_indices))

    # succ_ports[slot]: the position of this edge occurrence in the
    # destination's predecessor row — the mux input port it drives.  The
    # k-th (src, dst) occurrence in src's successor list pairs with the
    # k-th occurrence of src in dst's predecessor list (add_edge appends
    # to both simultaneously).
    ports_of: Dict[Tuple[int, int], List[int]] = {}
    for i in range(count):
        for port, slot in enumerate(
            range(pred_indptr[i], pred_indptr[i + 1])
        ):
            ports_of.setdefault((pred_indices[slot], i), []).append(port)
    taken: Dict[Tuple[int, int], int] = {}
    succ_indptr = array("i", [0])
    succ_indices = array("i")
    succ_ports = array("i")
    for i, name in enumerate(names):
        for succ in network.successors(name):
            j = index[succ]
            occurrence = taken.get((i, j), 0)
            taken[(i, j)] = occurrence + 1
            succ_indices.append(j)
            succ_ports.append(ports_of[(i, j)][occurrence])
        succ_indptr.append(len(succ_indices))

    topo = _topological_order(
        count, succ_indptr, succ_indices, pred_indptr
    )

    instruments: List[str] = []
    instrument_segment = array("i")
    for instrument in network.instruments():
        instruments.append(instrument.name)
        instrument_segment.append(index[instrument.segment])

    units = tuple(
        (unit.name, unit.muxes, unit.cells, unit.is_sib)
        for unit in network.units()
    )

    scan_in = index[network.scan_in] if network._scan_in else -1
    scan_out = index[network.scan_out] if network._scan_out else -1

    return CompiledNetwork(
        name=network.name,
        names=names,
        kinds=bytes(kinds),
        succ_indptr=succ_indptr,
        succ_indices=succ_indices,
        succ_ports=succ_ports,
        pred_indptr=pred_indptr,
        pred_indices=pred_indices,
        topo=topo,
        scan_in=scan_in,
        scan_out=scan_out,
        fanin=fanin,
        control_cell=control_cell,
        sib_of=tuple(sib_of),
        seg_length=seg_length,
        roles=roles,
        instrument_of=tuple(instrument_of),
        instruments=tuple(instruments),
        instrument_segment=instrument_segment,
        units=units,
        fingerprint=_fingerprint(fingerprint_payload(network)),
        _index=index,
    )


# One compiled form per live network object.  Mutating a network after it
# was interned is unsupported (networks are built, validated, then
# analyzed); as a guard against accidental reuse the cached entry is
# dropped when the node or edge count no longer matches.
_INTERNED: "WeakKeyDictionary[RsnNetwork, CompiledNetwork]" = (
    WeakKeyDictionary()
)


def intern(network: RsnNetwork) -> CompiledNetwork:
    """The compiled form of ``network``, memoized per network object.

    Every consumer (analyses, simulator, engine, dominators) interns
    rather than compiling, so one network analyzed by several layers is
    lowered exactly once.
    """
    compiled = _INTERNED.get(network)
    if compiled is not None:
        if (
            compiled.n_nodes == len(network)
            and compiled.n_edges == network.n_edges()
        ):
            return compiled
    compiled = compile_network(network)
    _INTERNED[network] = compiled
    return compiled
