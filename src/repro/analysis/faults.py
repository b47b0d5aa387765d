"""Permanent fault models of RSN primitives (Sec. IV-B).

Three concrete single-fault classes are analyzed:

* :class:`SegmentBreak` — a defect in a scan segment breaks the integrity
  of every scan path traversing it;
* :class:`MuxStuck` — a stuck-at-id fault: the multiplexer permanently
  selects one input regardless of its address port;
* :class:`ControlCellBreak` — a defect in a configuration cell: the cell's
  own chain position is broken *and* every multiplexer it drives loses its
  address control (taken at the worst stuck value).

SIB faults are combinations of these, per the paper: *stuck-at-asserted* /
*stuck-at-deasserted* are ``MuxStuck`` on the SIB's bypass mux (hosted /
bypass port) and a defect SIB bit is a ``ControlCellBreak``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Iterator, List, Tuple, Union

import numpy as np

from ..errors import ReproError
from ..rsn.network import RsnNetwork
from ..rsn.primitives import NodeKind, ScanMux, SegmentRole


class SegmentBreak:
    """Broken scan chain inside segment ``segment``."""

    __slots__ = ("segment",)

    def __init__(self, segment: str):
        self.segment = segment

    @property
    def site(self) -> str:
        return self.segment

    def __eq__(self, other):
        return isinstance(other, SegmentBreak) and other.segment == self.segment

    def __hash__(self):
        return hash(("SegmentBreak", self.segment))

    def __repr__(self):
        return f"SegmentBreak({self.segment!r})"


class MuxStuck:
    """Mux ``mux`` permanently selecting input port ``port``."""

    __slots__ = ("mux", "port")

    def __init__(self, mux: str, port: int):
        self.mux = mux
        self.port = int(port)

    @property
    def site(self) -> str:
        return self.mux

    def __eq__(self, other):
        return (
            isinstance(other, MuxStuck)
            and (other.mux, other.port) == (self.mux, self.port)
        )

    def __hash__(self):
        return hash(("MuxStuck", self.mux, self.port))

    def __repr__(self):
        return f"MuxStuck({self.mux!r}, port={self.port})"


class ControlCellBreak:
    """Broken configuration cell: chain break + uncontrolled muxes."""

    __slots__ = ("cell",)

    def __init__(self, cell: str):
        self.cell = cell

    @property
    def site(self) -> str:
        return self.cell

    def __eq__(self, other):
        return isinstance(other, ControlCellBreak) and other.cell == self.cell

    def __hash__(self):
        return hash(("ControlCellBreak", self.cell))

    def __repr__(self):
        return f"ControlCellBreak({self.cell!r})"


Fault = Union[SegmentBreak, MuxStuck, ControlCellBreak]


def sib_stuck_asserted(network: RsnNetwork, sib: str) -> MuxStuck:
    """The SIB permanently grants access to its hosted sub-network."""
    unit = network.unit(sib)
    if not unit.is_sib:
        raise ReproError(f"{sib!r} is not a SIB unit")
    return MuxStuck(unit.muxes[0], ScanMux.SIB_HOSTED_PORT)


def sib_stuck_deasserted(network: RsnNetwork, sib: str) -> MuxStuck:
    """The SIB permanently bypasses its hosted sub-network."""
    unit = network.unit(sib)
    if not unit.is_sib:
        raise ReproError(f"{sib!r} is not a SIB unit")
    return MuxStuck(unit.muxes[0], ScanMux.SIB_BYPASS_PORT)


def controlled_muxes(network: RsnNetwork, cell: str) -> List[str]:
    """Names of the muxes whose address port ``cell`` drives."""
    return [
        mux.name
        for mux in network.muxes()
        if mux.control_cell == cell
    ]


def faults_of_primitive(
    network: RsnNetwork, name: str
) -> Tuple[Fault, ...]:
    """The concrete fault list of one scan primitive.

    * data segment -> a single :class:`SegmentBreak`;
    * control segment (incl. SIB bits) -> a single
      :class:`ControlCellBreak`;
    * mux -> one :class:`MuxStuck` per input port.
    """
    node = network.node(name)
    if node.kind is NodeKind.SEGMENT:
        if node.role is SegmentRole.DATA:
            return (SegmentBreak(name),)
        return (ControlCellBreak(name),)
    if node.kind is NodeKind.MUX:
        return tuple(MuxStuck(name, port) for port in node.stuck_values())
    return ()


def iter_all_faults(network: RsnNetwork) -> Iterator[Fault]:
    """Every modeled single fault of the network, in topological order of
    its fault site."""
    for name in network.node_names():
        for fault in faults_of_primitive(network, name):
            yield fault


# ----------------------------------------------------------------------
# array-form fault-set blocks
# ----------------------------------------------------------------------
class CandidateTable:
    """Every concrete fault of a site list, flattened into one table.

    ``candidates[i]`` is site ``i``'s fault tuple
    (:func:`faults_of_primitive`); ``faults`` concatenates them in site
    order, so candidate index ``starts[i] + k`` is the ``k``-th fault of
    site ``i``.  Identity matters: the bitset kernel caches one lowering
    per table, so a table is built once and reused for every block drawn
    over the same sites.
    """

    __slots__ = ("sites", "candidates", "faults", "counts", "starts", "__weakref__")

    def __init__(self, sites: Sequence, candidates: Sequence):
        self.sites = tuple(sites)
        self.candidates = tuple(tuple(c) for c in candidates)
        self.faults: Tuple[Fault, ...] = tuple(
            fault for cands in self.candidates for fault in cands
        )
        self.counts = np.array(
            [len(c) for c in self.candidates], dtype=np.int64
        )
        self.starts = np.zeros(len(self.counts), dtype=np.int64)
        np.cumsum(self.counts[:-1], out=self.starts[1:])


class FaultSetBlock(Sequence):
    """``lanes`` simultaneous fault sets as ``(lane, candidate)`` pairs.

    ``lane`` and ``cand`` are equal-length ``int64`` arrays, sorted by
    lane and, within a lane, by ascending candidate index — the order a
    per-sample loop over the sites appends faults in.  The block is a
    ``Sequence[Sequence[Fault]]`` (``len`` is the lane count), so every
    consumer of plain fault lists accepts it; ``Fault`` lists are built
    on first element access, all lanes in one split.  The bitset kernel
    reads the pairs directly instead
    (:meth:`repro.analysis.batch.BatchFaultAnalysis.damage_of_fault_sets`).
    """

    def __init__(
        self,
        table: CandidateTable,
        lanes: int,
        lane: np.ndarray,
        cand: np.ndarray,
    ):
        self.table = table
        self.lanes = int(lanes)
        self.lane = np.asarray(lane, dtype=np.int64)
        self.cand = np.asarray(cand, dtype=np.int64)
        self._lists = None

    def __len__(self) -> int:
        return self.lanes

    def __getitem__(self, index):
        if self._lists is None:
            faults = self.table.faults
            picked = [faults[c] for c in self.cand.tolist()]
            bounds = self._bounds(0, self.lanes).tolist()
            self._lists = [
                picked[lo:hi] for lo, hi in zip(bounds, bounds[1:])
            ]
        return self._lists[index]

    def _bounds(self, lo: int, hi: int) -> np.ndarray:
        """Pair offsets of lanes ``lo .. hi`` (``hi - lo + 1`` entries)."""
        return np.searchsorted(self.lane, np.arange(lo, hi + 1))

    def lanes_slice(self, lo: int, hi: int) -> "FaultSetBlock":
        """Lanes ``lo .. hi-1`` as their own block, renumbered from 0."""
        hi = min(hi, self.lanes)
        lo = min(lo, hi)
        start, stop = self._bounds(lo, hi)[[0, -1]]
        return FaultSetBlock(
            self.table,
            hi - lo,
            self.lane[start:stop] - lo,
            self.cand[start:stop],
        )


# ----------------------------------------------------------------------
# canonical ordering
# ----------------------------------------------------------------------
def fault_sort_key(fault: Fault) -> Tuple[int, str, int]:
    """A stable structural sort key: (kind rank, site name, port).

    Total over all modeled faults and identical across processes —
    unlike ``repr()``-based ordering, which ties diagnosis rankings to
    the incidental formatting of the fault classes.  Used wherever a
    deterministic fault order is needed (diagnosis tie-breaking,
    campaign top-damage retention, signature-matrix row order).
    """
    if isinstance(fault, SegmentBreak):
        return (0, fault.segment, -1)
    if isinstance(fault, MuxStuck):
        return (1, fault.mux, fault.port)
    if isinstance(fault, ControlCellBreak):
        return (2, fault.cell, -1)
    raise ReproError(f"unknown fault {fault!r}")


def fault_set_sort_key(faults) -> Tuple[Tuple[int, str, int], ...]:
    """Lexicographic key over a fault multiset (sorted memberwise), the
    deterministic tie-break for equal-damage fault combinations."""
    return tuple(sorted(fault_sort_key(fault) for fault in faults))


# ----------------------------------------------------------------------
# JSON form (the analysis service's wire format for fault queries)
# ----------------------------------------------------------------------
def fault_to_dict(fault: Fault) -> dict:
    """A JSON-serializable description of one fault; exact inverse of
    :func:`fault_from_dict`."""
    if isinstance(fault, SegmentBreak):
        return {"kind": "segment_break", "segment": fault.segment}
    if isinstance(fault, MuxStuck):
        return {"kind": "mux_stuck", "mux": fault.mux, "port": fault.port}
    if isinstance(fault, ControlCellBreak):
        return {"kind": "control_cell_break", "cell": fault.cell}
    raise ReproError(f"unknown fault {fault!r}")


def fault_from_dict(payload: dict) -> Fault:
    """Parse the JSON form produced by :func:`fault_to_dict`."""
    if not isinstance(payload, dict):
        raise ReproError(f"fault must be an object, got {payload!r}")
    kind = payload.get("kind")
    try:
        if kind == "segment_break":
            return SegmentBreak(str(payload["segment"]))
        if kind == "mux_stuck":
            return MuxStuck(str(payload["mux"]), int(payload["port"]))
        if kind == "control_cell_break":
            return ControlCellBreak(str(payload["cell"]))
    except KeyError as exc:
        raise ReproError(f"fault JSON misses key {exc}") from None
    raise ReproError(f"unknown fault kind {kind!r} in {payload!r}")
