"""Graph-reachability damage analysis — no decomposition tree required.

Works on *arbitrary* RSN graphs, including non-series-parallel ones where
the tree-based analyses of :mod:`repro.analysis.damage` do not apply:

* an instrument is **settable** under a fault when a scan-in-to-segment
  path exists that crosses no broken segment and enters every multiplexer
  on a selectable port (stuck ports are fixed);
* it is **observable** when such a path exists from the segment to the
  scan-out.

Each fault costs two breadth-first searches (O(V+E)); a full report is
O(N·(V+E)).  On series-parallel networks this agrees exactly with the
decomposition-tree analyses (property-tested); like them — and like the
configuration-enumeration oracle — it treats multiplexer selects as
independent, i.e. shared-select-cell coupling between muxes on one path is
resolved optimistically.

A broken control cell uses the same rule as the tree analyses: the cell
breaks like a segment, and every mux it drives is pinned to the stuck
value with the worst marginal damage (union of the single-fault effects).

Three interchangeable backends drive the reachability queries:

* ``"ir"`` (default) — per-fault BFS over the compiled IR
  (:func:`repro.ir.intern`): integer node ids, CSR adjacency rows and
  per-slot entry-port tables instead of name-dict lookups.
* ``"dict"`` — the original string-keyed traversal, kept as the
  reference implementation for the parity property tests and the CI
  smoke diff.
* ``"bitset"`` — the lane-packed batch kernel
  (:class:`repro.analysis.batch.BatchFaultAnalysis`): 64 fault instances
  per ``uint64`` word, all reachability solved in a few vectorized
  sweeps.  Identical results (property-tested bit-identical against the
  other two); the only backend whose cost is sublinear in the fault
  count, and the one the :class:`repro.analysis.CriticalityEngine`
  should run for whole-design criticality passes.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ReproError
from ..ir import LANE_BITS as IR_LANE_BITS
from ..ir import MUX as IR_MUX
from ..ir import SEGMENT as IR_SEGMENT
from ..rsn.network import RsnNetwork
from ..rsn.primitives import NodeKind
from .batch import BatchFaultAnalysis
from .damage import DamageReport, _AnalysisBase
from .effects import FaultEffect
from .faults import ControlCellBreak, Fault, MuxStuck, SegmentBreak

_BACKENDS = ("ir", "dict", "bitset")


class GraphDamageAnalysis(_AnalysisBase):
    """Tree-free reference analysis for arbitrary RSN graphs."""

    def __init__(
        self,
        network: RsnNetwork,
        spec,
        policy: str = "max",
        backend: str = "ir",
        chunk_lanes: int = 64,
    ):
        super().__init__(
            network, spec, tree=False, policy=policy
        )
        if backend not in _BACKENDS:
            raise ReproError(
                f"backend must be one of {_BACKENDS}, got {backend!r}"
            )
        self.backend = backend
        self._batch: Optional[BatchFaultAnalysis] = (
            BatchFaultAnalysis(
                network, spec, policy=policy, chunk_lanes=chunk_lanes
            )
            if backend == "bitset"
            else None
        )
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
        if self._batch is not None:
            return self._batch.state_sets(broken, forced)
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
        if self._batch is not None:
            return float(self._batch.damage_vector([fault])[0])
        return self._damage_of_sets(*self._fault_sets(fault))

    def damage_vector(self, faults: Sequence[Fault]) -> np.ndarray:
        """Eq. 1 damage of every fault, each evaluated independently.

        With the bitset backend this is the batch kernel's native entry
        point — one lane per fault, all solved together; the scalar
        backends fall back to a per-fault loop.
        """
        if self._batch is not None:
            return self._batch.damage_vector(faults)
        return np.array([self.damage_of_fault(fault) for fault in faults])

    def primitive_damages(self, names: Sequence[str]) -> List[float]:
        """``d_j`` for each named primitive (the engine's chunk query);
        one lane-packed pass under the bitset backend."""
        if self._batch is not None:
            return self._batch.primitive_damages(names)
        return super().primitive_damages(names)

    @property
    def batch_counters(self) -> Dict[str, int]:
        """Lane/chunk/sweep counters of the bitset kernel (empty for the
        scalar backends); surfaced through ``EngineStats``."""
        return dict(self._batch.counters) if self._batch is not None else {}

    def cell_stuck_ports(self, cell: str) -> Dict[str, int]:
        if self._batch is not None:
            return self._batch.cell_stuck_ports(cell)
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
        if self._batch is not None:
            return float(self._batch.damage_of_fault_sets([faults])[0])
        return self.effect_of_faults(faults).damage(
            self._do_of, self._ds_of
        )

    def damage_of_fault_sets(
        self, fault_sets: Sequence[Sequence[Fault]]
    ) -> List[float]:
        """Damage of many simultaneous fault multisets — one lane each
        under the bitset backend (e.g. all Monte-Carlo defect samples in
        one pass), a per-multiset loop otherwise.  Array-form
        :class:`~repro.analysis.faults.FaultSetBlock` s are lowered
        straight to packed masks by the bitset kernel; the scalar
        backends iterate their materialized fault lists."""
        if self._batch is not None:
            return [
                float(value)
                for value in self._batch.damage_of_fault_sets(fault_sets)
            ]
        return [self.damage_of_faults(faults) for faults in fault_sets]

    def damage_of_states(self, states) -> np.ndarray:
        """Damage of many pre-lowered ``(broken ids, mux pins)`` states —
        the population entry point of the EA's fault-set objective.  One
        lane per unique state under the bitset backend; the scalar
        backends run the 4-BFS query per state (the parity reference)."""
        if self._batch is not None:
            return self._batch.damage_of_states(states)
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

    def damage_of_packed_states(self, packed) -> np.ndarray:
        """Array-form population query: damage per lane of a
        :class:`repro.analysis.batch.PackedStates` block (vectorized
        genome lowering).  The packed masks are a bitset-kernel encoding
        — the scalar backends have no lane notion, so this raises rather
        than silently unpacking (callers keep the tuple path as the
        parity reference there)."""
        if self._batch is None:
            raise ReproError(
                "packed population states need backend='bitset', "
                f"got {self.backend!r}"
            )
        return self._batch.damage_of_packed(packed)

    @property
    def lane_capacity(self) -> Optional[int]:
        """Lanes one bitset kernel chunk solves (``chunk_lanes`` words);
        ``None`` for the scalar backends."""
        if self._batch is None:
            return None
        return self._batch.chunk_lanes * IR_LANE_BITS


def analyze_damage_graph(
    network: RsnNetwork, spec, policy: str = "max", backend: str = "ir"
) -> DamageReport:
    """Damage report via graph reachability (works on non-SP networks)."""
    return GraphDamageAnalysis(
        network, spec, policy=policy, backend=backend
    ).report()


def expected_damage_under_rate(
    network: RsnNetwork,
    spec,
    defect_rate: float,
    samples: int = 200,
    seed: int = 0,
    hardened_units=(),
    backend: str = "bitset",
    sampler: str = "scalar",
) -> float:
    """Monte-Carlo expected damage when every un-hardened primitive fails
    independently with probability ``defect_rate``.

    A multi-fault generalization of Eq. 2 (whose sum is the first-order
    term of this expectation divided by the rate): useful to compare
    hardening selections under realistic defect clustering rather than
    the single-fault worst case.  Runs as a one-rate campaign through
    the streaming block executor (:mod:`repro.campaigns.montecarlo`).

    The default ``sampler="scalar"`` preserves the original per-site
    ``random.Random(seed)`` stream exactly, so results are seed-for-seed
    identical to the pre-campaign implementation (and backend-
    independent); ``sampler="vectorized"`` switches to the campaign's
    per-block numpy substreams — the resumable, O(block) path rate
    sweeps use.
    """
    from ..campaigns import MonteCarloPlan, run_monte_carlo

    analysis = GraphDamageAnalysis(network, spec, backend=backend)
    plan = MonteCarloPlan(
        rates=(defect_rate,),
        samples=samples,
        seed=seed,
        sampler=sampler,
        hardened_units=tuple(hardened_units),
        bootstrap=0,
    )
    result = run_monte_carlo(analysis, plan)
    return result["records"][0]["mean_damage"]
