"""Test-only reachability oracles: the per-fault searches the bitset
kernel replaced.

The production analysis has one path per regime
(:func:`repro.analysis.route_analysis`): the Sec. IV-C DP for single
faults on series-parallel networks, the lane-packed bitset kernel for
everything else.  The scalar reachability searches that used to sit
beside the kernel behind ``backend=`` selectors live on here, unchanged,
as independent oracles — the same way ``tests/sp/_reference_reduce.py``
keeps the old object reducer:

* :class:`ReferenceGraphAnalysis` with ``backend="dict"`` — the original
  string-keyed BFS over the dict graph (``_forward_reach`` /
  ``_backward_reach`` / ``_single_sets_dict``);
* :class:`ReferenceGraphAnalysis` with ``backend="ir"`` — the per-fault
  BFS over the compiled IR (``_forward_seen`` / ``_backward_seen`` /
  ``_single_sets``);
* :func:`reference_active_path` — the name-dict active-path walk of the
  scan simulator.

They share no code with the kernel they check beyond the compiled IR
and the fault classes.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.analysis.damage import _AnalysisBase
from repro.analysis.effects import FaultEffect
from repro.analysis.faults import (
    ControlCellBreak,
    Fault,
    MuxStuck,
    SegmentBreak,
)
from repro.errors import ReproError, SimulationError
from repro.ir import MUX as IR_MUX
from repro.ir import SEGMENT as IR_SEGMENT
from repro.rsn.network import RsnNetwork
from repro.rsn.primitives import NodeKind

_BACKENDS = ("ir", "dict")


class ReferenceGraphAnalysis(_AnalysisBase):
    """Per-fault BFS reachability analysis (``backend`` ``"ir"`` or
    ``"dict"``), the scalar oracle of the bitset kernel."""

    def __init__(
        self,
        network: RsnNetwork,
        spec,
        policy: str = "max",
        backend: str = "ir",
    ):
        super().__init__(
            network, spec, tree=False, policy=policy
        )
        if backend not in _BACKENDS:
            raise ReproError(
                f"backend must be one of {_BACKENDS}, got {backend!r}"
            )
        self.backend = backend
        self._do_of: Dict[str, float] = {}
        self._ds_of: Dict[str, float] = {}
        for segment in network.segments():
            if segment.instrument is not None:
                do_w, ds_w = spec.weight(segment.instrument)
                self._do_of[segment.name] = do_w
                self._ds_of[segment.name] = ds_w
        # Id-aligned weight vectors (plain lists: the summation loops are
        # Python-level, where list indexing beats numpy scalar boxing).
        do_vec, ds_vec = self.ir.weight_vectors(spec)
        self._do_by_id: List[float] = do_vec.tolist()
        self._ds_by_id: List[float] = ds_vec.tolist()
        self._primitive_ids = self.ir.primitive_ids()
        if backend == "dict":
            # port of each (src, mux) edge occurrence, name-keyed
            self._entry_ports: Dict[Tuple[str, str], Set[int]] = {}
            for mux in network.muxes():
                for port, pred in enumerate(
                    network.predecessors(mux.name)
                ):
                    self._entry_ports.setdefault(
                        (pred, mux.name), set()
                    ).add(port)

    # -- reachability over the compiled IR ------------------------------
    def _forward_seen(
        self, broken: Set[int], forced: Mapping[int, int]
    ) -> bytearray:
        """Per-id flags: reachable from scan-in via fault-clean,
        selectable paths."""
        ir = self.ir
        kinds = ir.kinds
        indptr = ir.succ_indptr
        indices = ir.succ_indices
        ports = ir.succ_ports
        fanin = ir.fanin
        seen = bytearray(ir.n_nodes)
        start = ir.scan_in
        seen[start] = 1
        frontier = [start]
        while frontier:
            current = frontier.pop()
            if kinds[current] == IR_SEGMENT and current in broken:
                continue  # data cannot propagate through the break
            for slot in range(indptr[current], indptr[current + 1]):
                successor = indices[slot]
                if seen[successor]:
                    continue
                if kinds[successor] == IR_MUX and forced:
                    pinned = forced.get(successor)
                    if (
                        pinned is not None
                        and ports[slot] != pinned % fanin[successor]
                    ):
                        continue
                seen[successor] = 1
                frontier.append(successor)
        return seen

    def _backward_seen(
        self, broken: Set[int], forced: Mapping[int, int]
    ) -> bytearray:
        """Per-id flags: can propagate data to scan-out."""
        ir = self.ir
        kinds = ir.kinds
        indptr = ir.pred_indptr
        indices = ir.pred_indices
        fanin = ir.fanin
        seen = bytearray(ir.n_nodes)
        start = ir.scan_out
        seen[start] = 1
        frontier = [start]
        while frontier:
            current = frontier.pop()
            if kinds[current] == IR_SEGMENT and current in broken:
                continue
            lo = indptr[current]
            hi = indptr[current + 1]
            if kinds[current] == IR_MUX:
                pinned = forced.get(current)
                if pinned is not None:
                    # a pinned mux only propagates its stuck port
                    slot = lo + pinned % fanin[current]
                    lo, hi = slot, slot + 1
            for slot in range(lo, hi):
                predecessor = indices[slot]
                if not seen[predecessor]:
                    seen[predecessor] = 1
                    frontier.append(predecessor)
        return seen

    def _single_sets(
        self, broken: Set[int], forced: Mapping[int, int]
    ) -> Tuple[Set[int], Set[int]]:
        """(unobservable ids, unsettable ids) of one pinned/broken state.

        A primitive is *settable* when a break-clean, stuck-respecting
        path arrives from the scan-in AND some stuck-respecting path (data
        may be corrupted beyond the primitive — irrelevant for setting)
        continues to the scan-out, i.e. the primitive lies on an active
        path with a clean prefix.  *Observable* is the mirror image."""
        if self.backend == "dict":
            return self._single_sets_dict(broken, forced)
        empty: Set[int] = set()
        forward_clean = self._forward_seen(broken, forced)
        backward_clean = self._backward_seen(broken, forced)
        forward_any = self._forward_seen(empty, forced)
        backward_any = self._backward_seen(empty, forced)
        unsettable: Set[int] = set()
        unobservable: Set[int] = set()
        for node_id in self._primitive_ids:
            alive = node_id not in broken
            if not (
                alive
                and forward_clean[node_id]
                and backward_any[node_id]
            ):
                unsettable.add(node_id)
            if not (
                alive
                and backward_clean[node_id]
                and forward_any[node_id]
            ):
                unobservable.add(node_id)
        return unobservable, unsettable

    # -- reference dict backend (string-keyed BFS, pre-IR semantics) -----
    def _forward_reach(
        self, broken: Set[str], forced: Mapping[str, int]
    ) -> Set[str]:
        """Nodes reachable from scan-in via fault-clean, selectable paths."""
        network = self.network
        seen = {network.scan_in}
        frontier = deque(seen)
        while frontier:
            current = frontier.popleft()
            node = network.node(current)
            if node.kind is NodeKind.SEGMENT and current in broken:
                continue
            for successor in network.successors(current):
                if successor in seen:
                    continue
                succ_node = network.node(successor)
                if succ_node.kind is NodeKind.MUX:
                    pinned = forced.get(successor)
                    if pinned is not None:
                        ports = self._entry_ports.get(
                            (current, successor), set()
                        )
                        if pinned % succ_node.fanin not in ports:
                            continue
                seen.add(successor)
                frontier.append(successor)
        return seen

    def _backward_reach(
        self, broken: Set[str], forced: Mapping[str, int]
    ) -> Set[str]:
        """Nodes that can propagate data to scan-out."""
        network = self.network
        seen = {network.scan_out}
        frontier = deque(seen)
        while frontier:
            current = frontier.popleft()
            node = network.node(current)
            if node.kind is NodeKind.SEGMENT and current in broken:
                continue
            if node.kind is NodeKind.MUX:
                pinned = forced.get(current)
                predecessors = network.predecessors(current)
                for port, predecessor in enumerate(predecessors):
                    if pinned is not None and port != pinned % node.fanin:
                        continue
                    if predecessor not in seen:
                        seen.add(predecessor)
                        frontier.append(predecessor)
                continue
            for predecessor in network.predecessors(current):
                if predecessor not in seen:
                    seen.add(predecessor)
                    frontier.append(predecessor)
        return seen

    def _single_sets_dict(
        self, broken: Set[int], forced: Mapping[int, int]
    ) -> Tuple[Set[int], Set[int]]:
        """The original name-keyed traversal, lifted to id results."""
        ir = self.ir
        broken_names = {ir.names[i] for i in broken}
        forced_names = {ir.names[i]: port for i, port in forced.items()}
        empty: Set[str] = set()
        forward_clean = self._forward_reach(broken_names, forced_names)
        backward_clean = self._backward_reach(broken_names, forced_names)
        forward_any = self._forward_reach(empty, forced_names)
        backward_any = self._backward_reach(empty, forced_names)
        unsettable: Set[int] = set()
        unobservable: Set[int] = set()
        for node_id in self._primitive_ids:
            name = ir.names[node_id]
            alive = name not in broken_names
            if not (
                alive
                and name in forward_clean
                and name in backward_any
            ):
                unsettable.add(node_id)
            if not (
                alive
                and name in backward_clean
                and name in forward_any
            ):
                unobservable.add(node_id)
        return unobservable, unsettable

    # -- fault lowering and damage ----------------------------------------
    def _damage_of_sets(
        self, unobservable: Set[int], unsettable: Set[int]
    ) -> float:
        do_w = self._do_by_id
        ds_w = self._ds_by_id
        return (
            sum(do_w[i] for i in unobservable)
            + sum(ds_w[i] for i in unsettable)
        )

    def _fault_sets(self, fault: Fault) -> Tuple[Set[int], Set[int]]:
        ir = self.ir
        if isinstance(fault, SegmentBreak):
            return self._single_sets({ir.id_of(fault.segment)}, {})
        if isinstance(fault, MuxStuck):
            return self._single_sets(
                set(), {ir.id_of(fault.mux): fault.port}
            )
        if isinstance(fault, ControlCellBreak):
            unobs, unset = self._single_sets(
                {ir.id_of(fault.cell)}, {}
            )
            for mux, port in self.cell_stuck_ports(fault.cell).items():
                more_unobs, more_unset = self._single_sets(
                    set(), {ir.id_of(mux): port}
                )
                unobs |= more_unobs
                unset |= more_unset
            return unobs, unset
        raise ReproError(f"unknown fault {fault!r}")

    def effect_of_fault(self, fault: Fault) -> FaultEffect:
        unobs, unset = self._fault_sets(fault)
        names = self.ir.names
        return FaultEffect(
            fault,
            {names[i] for i in unobs},
            {names[i] for i in unset},
        )

    def damage_of_fault(self, fault: Fault) -> float:
        return self._damage_of_sets(*self._fault_sets(fault))

    def damage_vector(self, faults: Sequence[Fault]) -> np.ndarray:
        """Eq. 1 damage of every fault, each evaluated independently
        (a per-fault loop)."""
        return np.array([self.damage_of_fault(fault) for fault in faults])

    def cell_stuck_ports(self, cell: str) -> Dict[str, int]:
        ir = self.ir
        cell_id = ir.id_of(cell)
        break_unobs, break_unset = self._single_sets({cell_id}, {})
        base = self._damage_of_sets(break_unobs, break_unset)
        ports: Dict[str, int] = {}
        for mux in self.muxes_of_cell(cell):
            mux_id = ir.id_of(mux)
            best_port = 0
            best_marginal = -1.0
            for port in ir.stuck_values(mux_id):
                stuck_unobs, stuck_unset = self._single_sets(
                    set(), {mux_id: port}
                )
                marginal = (
                    self._damage_of_sets(
                        break_unobs | stuck_unobs,
                        break_unset | stuck_unset,
                    )
                    - base
                )
                if marginal > best_marginal:
                    best_marginal = marginal
                    best_port = port
            ports[mux] = best_port
        return ports

    # -- multi-fault extension --------------------------------------------
    def effect_of_faults(self, faults) -> FaultEffect:
        """Joint effect of several *simultaneous* faults (exact).

        The paper's model is single-fault; reachability composes
        naturally, so the graph engine evaluates any fault multiset in one
        pass: breaks accumulate, stuck selects pin, and a broken control
        cell pins its muxes at the worst marginal single-fault ports.
        """
        ir = self.ir
        broken: Set[int] = set()
        forced: Dict[int, int] = {}
        for fault in faults:
            if isinstance(fault, SegmentBreak):
                broken.add(ir.id_of(fault.segment))
            elif isinstance(fault, MuxStuck):
                forced[ir.id_of(fault.mux)] = fault.port
            elif isinstance(fault, ControlCellBreak):
                broken.add(ir.id_of(fault.cell))
                for mux, port in self.cell_stuck_ports(fault.cell).items():
                    forced.setdefault(ir.id_of(mux), port)
            else:
                raise ReproError(f"unknown fault {fault!r}")
        unobs, unset = self._single_sets(broken, forced)
        names = ir.names
        return FaultEffect(
            tuple(faults),
            {names[i] for i in unobs},
            {names[i] for i in unset},
        )

    def damage_of_faults(self, faults) -> float:
        """Eq. 1 damage of a simultaneous fault multiset."""
        return self.effect_of_faults(faults).damage(
            self._do_of, self._ds_of
        )

    def damage_of_fault_sets(
        self, fault_sets: Sequence[Sequence[Fault]]
    ) -> List[float]:
        """Damage of many simultaneous fault multisets — a per-multiset
        loop; array-form
        :class:`~repro.analysis.faults.FaultSetBlock` s iterate their
        materialized fault lists."""
        return [self.damage_of_faults(faults) for faults in fault_sets]

    def damage_of_states(self, states) -> np.ndarray:
        """Damage of many pre-lowered ``(broken ids, mux pins)`` states —
        the population entry point of the EA's fault-set objective, one
        4-BFS query per state (the parity reference)."""
        results = []
        for broken, forced in states:
            pins = dict(
                forced.items() if isinstance(forced, Mapping) else forced
            )
            unobs, unset = self._single_sets(
                {int(node) for node in broken}, pins
            )
            results.append(self._damage_of_sets(unobs, unset))
        return np.asarray(results, dtype=float)


def reference_active_path(self) -> List[str]:
    """The scan simulator's active path, by the name-dict walk (pre-IR);
    ``self`` is a :class:`repro.sim.simulator.ScanSimulator`."""
    path = [self.network.scan_out]
    current = self.network.scan_out
    seen = {current}
    while current != self.network.scan_in:
        node = self.network.node(current)
        if node.kind is NodeKind.MUX:
            port = self.select_of(current)
            current = self.network.predecessors(current)[port]
        else:
            current = self.network.predecessors(current)[0]
        if current in seen:
            raise SimulationError(
                f"active path loops through {current!r}"
            )
        seen.add(current)
        path.append(current)
    path.reverse()
    return path
