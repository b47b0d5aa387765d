"""Bit-parallel batched fault analysis: 64 fault lanes per machine word.

The exact criticality analysis (Eq. 1) needs the damage of *every* scan
primitive, i.e. one observability/settability analysis per fault.  A
per-fault graph search spends four Python-level BFS walks on each —
O(|faults| * |E|) with interpreter overhead on every edge.  This module
applies classic bitset
dataflow instead: many independent fault instances are packed into the
bits of ``uint64`` words ("lanes"), and reachability for *all* of them is
computed in a handful of vectorized sweeps over the compiled IR.

Problem encoding
----------------
Each lane is one *fault state* — a set of broken segments plus a map of
muxes pinned to a stuck port.  Two mask families encode a whole batch:

* ``prop``  — shape ``(n_nodes, W)`` ``uint64``; bit ``f`` of row ``v``
  is 0 iff node ``v`` is broken in lane ``f``.  A broken segment can
  still be *reached* (the defect is observed at the break), but data
  never propagates through it, so ``prop`` gates a node's *outgoing*
  contribution in both sweep directions.
* ``alive`` — shape ``(n_pred_slots, W)``; one row per predecessor-CSR
  slot, i.e. per (mux, input-port) edge occurrence.  Bit ``f`` is 0 iff
  the lane pins that mux to a different port
  (:meth:`repro.ir.CompiledNetwork.mux_dead_slots`).  The same mask
  serves both directions: a deselected port neither admits data into the
  mux (forward) nor propagates the mux's demand for data backwards —
  ``succ_pred_slots`` maps successor-CSR slots onto it.

Sweeps and the fixpoint argument
--------------------------------
Reachability is the least fixpoint of the monotone system

    reach[v]  |=  reach[u] & prop[u] & alive[(u, v)]        (forward)

over all edges (mirrored through predecessors for the backward
direction, seeded all-ones at the scan-in / scan-out).  The compiled IR
is a validated DAG with a precomputed topological order, and every
right-hand side of the system only mentions nodes strictly earlier in
that order — so a single sweep in topo order (reverse-topo for the
backward system) computes the fixpoint exactly: when node ``v`` is
processed, every ``reach[u]`` it reads is already final, and no later
update can ever change it again.  A second sweep would change nothing;
:meth:`BatchFaultAnalysis.forward_pass` exposes change tracking so the
test-suite asserts exactly that instead of paying for a verification
sweep at runtime.  (On a cyclic graph the sweep *would* have to iterate
until a pass reports no change, but ``compile_network`` rejects cycles
outright.)

The sweep itself is scheduled once per network, fault-independent: the
DAG is split into maximal *linear runs* (chains where each node has a
single predecessor and its predecessor a single successor — the common
case in scan networks, which are mostly long serial chains) plus the
remaining *merge nodes* (muxes, fanout joins).  A run of length k
becomes one ``np.bitwise_and.accumulate`` over its gathered gate rows; a
merge node becomes one gather + ``bitwise_or`` reduction over its
predecessor slots.  The Python-level loop is therefore over *branch
points*, not nodes or edges.

Damage
------
A primitive is settable in lane ``f`` when it is not broken, forward-
reachable through fault-clean edges, and backward-reachable through any
stuck-respecting path; observable is the mirror image (exactly
:meth:`GraphDamageAnalysis._single_sets`).  Per-lane damage is then a
weighted popcount: unpack the per-primitive accessibility bits and take
a (blocked) dot product with the id-aligned weight vectors.  With the
paper's integer damage weights every sum is exact in float64, so the
batch results are bit-identical to the per-fault searches
(property-tested in ``tests/analysis/test_batch.py`` against the
test-only oracles of ``tests/analysis/_reference_reach.py``).

A :class:`ControlCellBreak` is the *union* of its component effect sets
(the cell's own break plus one worst-marginal stuck state per controlled
mux, evaluated independently — Sec. IV-B.3); unions do not compose as a
single reachability lane, so a composite fault occupies one lane per
component and its accessibility bits are AND-ed at damage time.  The
worst-marginal ports of *every* control cell are resolved together on
the first query (:meth:`BatchFaultAnalysis._resolve_cell_ports`): break
and stuck lanes of whole cells packed into shared chunks, one solve per
chunk instead of one per cell.

Fault multisets
---------------
:meth:`BatchFaultAnalysis.damage_of_fault_sets` evaluates simultaneous
fault sets one lane each.  Plain ``Fault`` lists are lowered one at a
time to hashed tuple states (duplicates share a lane).  Array-form
blocks (:class:`repro.analysis.faults.FaultSetBlock`, what the
Monte-Carlo samplers emit) skip the tuples: their ``(lane, candidate)``
pairs become candidate-activity words, and a
:class:`repro.core.lowering.PopulationLowering` built once per candidate
table turns those into :class:`PackedStates` with a few array
operations, applying the same override-beats-``setdefault`` pin rule.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ReproError
from ..ir import MUX as IR_MUX
from ..ir import ROLE_DATA as IR_ROLE_DATA
from ..ir import SEGMENT as IR_SEGMENT
from ..ir import LANE_BITS, intern, lane_words
from ..obs.resources import add_lane_bytes
from ..obs.trace import span
from ..rsn.network import RsnNetwork
from .faults import (
    CandidateTable,
    ControlCellBreak,
    Fault,
    FaultSetBlock,
    MuxStuck,
    SegmentBreak,
)

_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Weighted-popcount row block: bounds the float64 temporary of the
#: damage dot product to ``_ROW_BLOCK * 64 * chunk_lanes`` bytes.
_ROW_BLOCK = 2048

# Lane bit positions are defined on the uint8 view of the word matrix
# (byte lane >> 3, bit lane & 7), so packing and unpacking agree with
# np.unpackbits(..., bitorder="little") on any host endianness; the
# uint64 sweeps themselves are bit-position agnostic.
def _clear_bit(view8: np.ndarray, row: int, lane: int) -> None:
    view8[row, lane >> 3] &= np.uint8(0xFF ^ (1 << (lane & 7)))


def _pack_lanes(bits: np.ndarray, words: int) -> np.ndarray:
    """Pack a ``(rows, lanes)`` boolean matrix into ``(rows, words)``
    ``uint64`` with the ``_clear_bit`` lane layout (little bit order);
    padding lanes come out 0."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    full = np.zeros((len(bits), words * 8), dtype=np.uint8)
    full[:, : packed.shape[1]] = packed
    return full.view(np.uint64)


#: One fault state: (sorted broken node ids, sorted (mux id, wrapped
#: pinned port) items).  Hashable, so equal states share a lane.
_State = Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]


class PackedStates:
    """Array-form fault states: one kernel lane per bit, no tuples.

    The population entry point for callers that lower whole genome
    blocks vectorized (:class:`repro.core.lowering.PopulationLowering`):

    * ``broken`` — ``(n_nodes, words)`` ``uint64``; bit ``f`` of row
      ``v`` set iff lane ``f`` breaks node ``v`` (``None`` when no lane
      breaks anything — the ``prop is None`` fast path).
    * ``dead``  — ``(n_pred_slots, words)``; bit ``f`` set iff lane
      ``f`` pins the slot's mux to a different port.

    These are the complements of the kernel's ``prop``/``alive`` sweep
    masks with the ``_pack_lanes`` bit layout; padding lanes must be 0.
    :meth:`BatchFaultAnalysis.damage_of_packed` inverts them **in
    place** (the matrices are the dominant memory term at population
    scale), so a container is consumed by the call that solves it.
    """

    __slots__ = ("broken", "dead", "lanes")

    def __init__(
        self,
        broken: Optional[np.ndarray],
        dead: np.ndarray,
        lanes: int,
    ):
        self.broken = broken
        self.dead = dead
        self.lanes = int(lanes)


class BatchFaultAnalysis:
    """Lane-packed damage analysis over one network's compiled IR.

    The engine of :class:`GraphDamageAnalysis` (same optimistic
    select-independence, same broken-control-cell rule as the tree
    analyses).
    """

    def __init__(
        self,
        network: Optional[RsnNetwork],
        spec,
        policy: str = "max",
        chunk_lanes: int = 64,
        ir=None,
    ):
        # ``ir=`` constructs the kernel straight from a CompiledNetwork —
        # the zero-copy path of the sharded worker tier, where the arrays
        # are memoryview windows into a shared-memory segment and no dict
        # graph exists (repro.ir.shm).  Every query below reads only the
        # IR, so both construction paths are computationally identical.
        if ir is None:
            if network is None:
                raise ReproError(
                    "BatchFaultAnalysis needs a network or a compiled ir"
                )
            ir = intern(network)
        self.network = network
        self.ir = ir
        self.spec = spec
        self.policy = policy
        self.chunk_lanes = max(1, int(chunk_lanes))
        ir = self.ir
        self._n = ir.n_nodes
        self._kinds = ir.kinds
        self._pred_indptr = np.frombuffer(ir.pred_indptr, dtype=np.int32)
        self._pred_indices = np.frombuffer(
            ir.pred_indices, dtype=np.int32
        )
        self._n_slots = len(ir.pred_indices)
        self._primitive_ids = ir.primitive_ids()
        do_vec, ds_vec = ir.weight_vectors(spec)
        weighted = np.flatnonzero((do_vec != 0.0) | (ds_vec != 0.0))
        self._weighted_ids = weighted
        self._do_w = do_vec[weighted]
        self._ds_w = ds_vec[weighted]
        self._total_do = float(self._do_w.sum())
        self._total_ds = float(self._ds_w.sum())
        self._cell_to_muxes: Dict[int, List[int]] = {}
        for mux_id in range(self._n):
            cell = ir.control_cell[mux_id]
            if ir.kinds[mux_id] == IR_MUX and cell >= 0:
                self._cell_to_muxes.setdefault(cell, []).append(mux_id)
        self._cell_ports_memo: Optional[Dict[int, Dict[str, int]]] = None
        # One PopulationLowering per candidate table of array-form
        # fault-set blocks, dropped with the table.
        self._table_lowerings: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self._build_schedule()
        #: Instrumentation surfaced through ``EngineStats``: lanes packed,
        #: chunks solved, vectorized sweeps executed, duplicate states
        #: folded onto existing lanes.
        self.counters: Dict[str, int] = {
            "lanes": 0,
            "chunks": 0,
            "sweeps": 0,
            "deduped": 0,
        }

    # ------------------------------------------------------------------
    # fault-independent sweep schedule
    # ------------------------------------------------------------------
    def _build_schedule(self) -> None:
        ir = self.ir
        n = self._n
        succ_indptr = np.frombuffer(ir.succ_indptr, dtype=np.int32)
        succ_indices = np.frombuffer(ir.succ_indices, dtype=np.int32)
        pred_indptr = self._pred_indptr
        n_succ = np.diff(succ_indptr)
        n_pred = np.diff(pred_indptr)
        pslot_of_sslot = ir.succ_pred_slots()

        # chain edge u -> v: u's sole successor, v's sole predecessor.
        run_next = np.full(n, -1, dtype=np.int64)
        single_succ = np.flatnonzero(n_succ == 1)
        targets = succ_indices[succ_indptr[single_succ]]
        chain = n_pred[targets] == 1
        run_next[single_succ[chain]] = targets[chain]
        is_chain_target = np.zeros(n, dtype=bool)
        is_chain_target[run_next[run_next >= 0]] = True

        # Forward steps, in topo order of run heads.  Each step:
        #   (head, head_srcs, head_slots, run_nodes, run_srcs, run_slots)
        # head reduction over its predecessor slots, then one AND-
        # accumulate down the head's linear run (possibly empty).
        fwd: List[Tuple] = []
        for head in ir.topo:
            if is_chain_target[head]:
                continue  # materialized inside its run's step
            lo, hi = pred_indptr[head], pred_indptr[head + 1]
            head_slots = np.arange(lo, hi, dtype=np.int64)
            head_srcs = self._pred_indices[lo:hi].astype(np.int64)
            nodes: List[int] = []
            srcs: List[int] = []
            slots: List[int] = []
            prev, node = head, run_next[head]
            while node >= 0:
                nodes.append(node)
                srcs.append(prev)
                slots.append(int(pred_indptr[node]))
                prev, node = node, run_next[node]
            fwd.append(
                (
                    int(head),
                    head_srcs,
                    head_slots,
                    np.asarray(nodes, dtype=np.int64),
                    np.asarray(srcs, dtype=np.int64),
                    np.asarray(slots, dtype=np.int64),
                )
            )
        self._fwd_schedule = fwd

        # Backward steps mirror the runs: the tail reduces over its
        # successor edges (through the shared per-pred-slot alive mask),
        # then one AND-accumulate climbs the run back to its head.
        topo_pos = np.empty(n, dtype=np.int64)
        topo_pos[np.asarray(ir.topo, dtype=np.int64)] = np.arange(n)
        bwd: List[Tuple] = []
        for step in fwd:
            head, _, _, nodes, srcs, slots = step
            tail = int(nodes[-1]) if len(nodes) else head
            lo, hi = succ_indptr[tail], succ_indptr[tail + 1]
            tail_dsts = succ_indices[lo:hi].astype(np.int64)
            tail_pslots = pslot_of_sslot[lo:hi]
            bwd.append(
                (
                    topo_pos[tail],
                    tail,
                    tail_dsts,
                    tail_pslots,
                    srcs[::-1].copy(),   # nodes computed: n_{k-1} .. head
                    nodes[::-1].copy(),  # their successors: tail .. n_1
                    slots[::-1].copy(),  # pred slot of each such edge
                )
            )
        bwd.sort(key=lambda entry: -entry[0])
        self._bwd_schedule = [entry[1:] for entry in bwd]

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------
    def forward_pass(
        self,
        reach: np.ndarray,
        prop: Optional[np.ndarray],
        alive: np.ndarray,
        track: bool = False,
    ) -> bool:
        """One forward sweep in topo order; returns whether any row
        changed (only computed when ``track`` — the fixpoint check the
        tests run, which a DAG sweep never needs at runtime)."""
        changed = False
        for head, srcs, slots, run_nodes, run_srcs, run_slots in (
            self._fwd_schedule
        ):
            if len(slots):
                contrib = reach[srcs] & alive[slots]
                if prop is not None:
                    contrib &= prop[srcs]
                value = np.bitwise_or.reduce(contrib, axis=0)
                value |= reach[head]
                if track and not np.array_equal(value, reach[head]):
                    changed = True
                reach[head] = value
            if len(run_nodes):
                gate = alive[run_slots].copy()
                if prop is not None:
                    gate &= prop[run_srcs]
                np.bitwise_and.accumulate(gate, axis=0, out=gate)
                gate &= reach[head]
                gate |= reach[run_nodes]
                if track and not np.array_equal(gate, reach[run_nodes]):
                    changed = True
                reach[run_nodes] = gate
        self.counters["sweeps"] += 1
        return changed

    def backward_pass(
        self,
        reach: np.ndarray,
        prop: Optional[np.ndarray],
        alive: np.ndarray,
        track: bool = False,
    ) -> bool:
        """One backward sweep in reverse topo order (see
        :meth:`forward_pass`)."""
        changed = False
        for tail, dsts, pslots, run_nodes, run_dsts, run_pslots in (
            self._bwd_schedule
        ):
            if len(pslots):
                contrib = reach[dsts] & alive[pslots]
                if prop is not None:
                    contrib &= prop[dsts]
                value = np.bitwise_or.reduce(contrib, axis=0)
                value |= reach[tail]
                if track and not np.array_equal(value, reach[tail]):
                    changed = True
                reach[tail] = value
            if len(run_nodes):
                gate = alive[run_pslots].copy()
                if prop is not None:
                    gate &= prop[run_dsts]
                np.bitwise_and.accumulate(gate, axis=0, out=gate)
                gate &= reach[tail]
                gate |= reach[run_nodes]
                if track and not np.array_equal(gate, reach[run_nodes]):
                    changed = True
                reach[run_nodes] = gate
        self.counters["sweeps"] += 1
        return changed

    def _reach(self, direction, prop, alive, words: int) -> np.ndarray:
        reach = np.zeros((self._n, words), dtype=np.uint64)
        with span(
            "batch.sweep",
            direction=direction,
            clean=prop is not None,
            words=words,
        ):
            if direction == "forward":
                reach[self.ir.scan_in] = _FULL_WORD
                self.forward_pass(reach, prop, alive)
            else:
                reach[self.ir.scan_out] = _FULL_WORD
                self.backward_pass(reach, prop, alive)
        return reach

    # ------------------------------------------------------------------
    # mask construction and chunk solving
    # ------------------------------------------------------------------
    def _masks(self, states: Sequence[_State]):
        words = lane_words(len(states))
        lanes = len(states)
        ir = self.ir
        # One boolean column per lane, scattered with fancy indexing and
        # packed in a single pass: population-sized batches break or pin
        # hundreds of nodes per lane, far too many for per-bit clears.
        broken_bits = np.zeros((self._n, lanes), dtype=bool)
        dead_bits = np.zeros((self._n_slots, lanes), dtype=bool)
        any_broken = False
        for lane, (broken, forced) in enumerate(states):
            if broken:
                any_broken = True
                broken_bits[list(broken), lane] = True
            for mux_id, port in forced:
                dead_bits[ir.mux_dead_slots(mux_id, port), lane] = True
        alive = ~_pack_lanes(dead_bits, words)
        prop = ~_pack_lanes(broken_bits, words) if any_broken else None
        return prop, alive, words

    def _solve(self, states: Sequence[_State]):
        """Accessibility of every node under every state.

        Returns ``(not_broken, settable, observable)`` word matrices of
        shape ``(n_nodes, lane_words(len(states)))``.
        """
        with span(
            "batch.chunk",
            lanes=len(states),
            occupancy=round(len(states) / (lane_words(len(states)) * 64), 3),
        ):
            prop, alive, words = self._masks(states)
            result = self._solve_masks(prop, alive, words)
        self.counters["lanes"] += len(states)
        self.counters["chunks"] += 1
        return result

    def _solve_masks(self, prop, alive, words: int):
        """The four sweeps over prebuilt masks: ``(prop, settable,
        observable)`` word matrices for any mask source (tuple states or
        packed array lowering)."""
        # Resource accounting: the chunk's estimated mask working set
        # (same per-lane model as the campaign executor's lane budget) —
        # 6 node-rows (prop + 4 reach results + a combine temp) plus the
        # alive slot-rows, 8 bytes per word.
        add_lane_bytes((6 * self._n + self._n_slots) * words * 8)
        fwd_any = self._reach("forward", None, alive, words)
        bwd_any = self._reach("backward", None, alive, words)
        if prop is None:  # no lane breaks anything: clean == any
            fwd_clean, bwd_clean = fwd_any, bwd_any
        else:
            fwd_clean = self._reach("forward", prop, alive, words)
            bwd_clean = self._reach("backward", prop, alive, words)
        settable = fwd_clean & bwd_any
        observable = bwd_clean & fwd_any
        if prop is not None:
            settable &= prop
            observable &= prop
        return prop, settable, observable

    @staticmethod
    def _unpack(words: np.ndarray, lanes: int) -> np.ndarray:
        """Rows of 0/1 bytes, one column per lane."""
        flat = np.ascontiguousarray(words).view(np.uint8)
        return np.unpackbits(flat, axis=1, bitorder="little")[:, :lanes]

    def _weighted_lane_sums(self, bits: np.ndarray, weights) -> np.ndarray:
        """``weights @ bits`` in float64, blocked so the uint8 -> float64
        cast never materializes the whole matrix."""
        out = np.zeros(bits.shape[1])
        for lo in range(0, bits.shape[0], _ROW_BLOCK):
            block = bits[lo : lo + _ROW_BLOCK]
            out += weights[lo : lo + _ROW_BLOCK] @ block.astype(np.float64)
        return out

    def _mask_damages(
        self, settable: np.ndarray, observable: np.ndarray, lanes: int
    ):
        """Weighted-popcount damage per lane from solved accessibility
        words, plus the unpacked bits of the weighted primitives (for
        composite-fault recombination)."""
        w_ids = self._weighted_ids
        set_bits = self._unpack(settable[w_ids], lanes)
        obs_bits = self._unpack(observable[w_ids], lanes)
        damages = (
            (self._total_do - self._weighted_lane_sums(obs_bits, self._do_w))
            + (self._total_ds - self._weighted_lane_sums(set_bits, self._ds_w))
        )
        return damages, obs_bits, set_bits

    def _lane_damages(self, states: Sequence[_State]):
        """Per-lane damage plus the unpacked accessibility bits of the
        weighted primitives (for composite-fault recombination)."""
        _, settable, observable = self._solve(states)
        return self._mask_damages(settable, observable, len(states))

    def _composite_damage(
        self, obs_bits: np.ndarray, set_bits: np.ndarray, lanes: List[int]
    ) -> float:
        """Damage of the union of several component effect sets: a
        primitive stays accessible only if every component leaves it so."""
        obs = obs_bits[:, lanes].min(axis=1)
        settable = set_bits[:, lanes].min(axis=1)
        return float(
            (self._total_do - self._do_w @ obs.astype(np.float64))
            + (self._total_ds - self._ds_w @ settable.astype(np.float64))
        )

    # ------------------------------------------------------------------
    # fault lowering
    # ------------------------------------------------------------------
    @staticmethod
    def _state(
        broken: Sequence[int], forced: Mapping[int, int]
    ) -> _State:
        return (
            tuple(sorted(broken)),
            tuple(sorted(forced.items())),
        )

    def _fault_effect(self, fault: Fault) -> Tuple:
        """``(broken ids, ((mux id, wrapped port), ...), override)`` of one
        fault — the candidate-state shape of
        :class:`~repro.core.lowering.PopulationLowering`.  ``override``
        marks an explicit stuck pin, which beats the assumed pins of a
        broken control cell on the same mux."""
        ir = self.ir
        if isinstance(fault, SegmentBreak):
            return (ir.id_of(fault.segment),), (), False
        if isinstance(fault, MuxStuck):
            mux_id = ir.id_of(fault.mux)
            return (), ((mux_id, fault.port % ir.fanin[mux_id]),), True
        if isinstance(fault, ControlCellBreak):
            pins = []
            for mux, port in self.cell_stuck_ports(fault.cell).items():
                mux_id = ir.id_of(mux)
                pins.append((mux_id, port % ir.fanin[mux_id]))
            return (ir.id_of(fault.cell),), tuple(pins), False
        raise ReproError(f"unknown fault {fault!r}")

    def _components(self, fault: Fault) -> List[_State]:
        """The lanes a single fault occupies (several for a broken
        control cell: union-of-effects semantics, see module docstring)."""
        broken, pins, _ = self._fault_effect(fault)
        components = [self._state(broken, {})] if broken else []
        components.extend(self._state((), dict([pin])) for pin in pins)
        return components

    def _multiset_state(self, faults: Sequence[Fault]) -> _State:
        """One lane for a *simultaneous* fault multiset, mirroring
        :meth:`GraphDamageAnalysis.effect_of_faults` exactly (breaks
        accumulate, stuck selects pin, broken cells pin their muxes at
        the worst marginal ports without overriding explicit pins)."""
        broken: Set[int] = set()
        forced: Dict[int, int] = {}
        for fault in faults:
            ids, pins, override = self._fault_effect(fault)
            broken.update(ids)
            for mux_id, port in pins:
                if override:
                    forced[mux_id] = port
                else:
                    forced.setdefault(mux_id, port)
        return self._state(broken, forced)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def state_sets(
        self, broken: Set[int], forced: Mapping[int, int]
    ) -> Tuple[Set[int], Set[int]]:
        """(unobservable ids, unsettable ids) of one broken/pinned state
        — the kernel-backed replacement for the scalar 4-BFS
        ``_single_sets`` query."""
        ir = self.ir
        wrapped = {
            mux_id: port % ir.fanin[mux_id]
            for mux_id, port in forced.items()
        }
        _, settable, observable = self._solve(
            [self._state(tuple(broken), wrapped)]
        )
        set_col = self._unpack(settable, 1)[:, 0]
        obs_col = self._unpack(observable, 1)[:, 0]
        unobservable = {
            node_id for node_id in self._primitive_ids if not obs_col[node_id]
        }
        unsettable = {
            node_id for node_id in self._primitive_ids if not set_col[node_id]
        }
        return unobservable, unsettable

    def damage_vector(self, faults: Sequence[Fault]) -> np.ndarray:
        """Eq. 1 damage of every fault in ``faults``, evaluated
        independently, in one lane-packed pass (chunked to bound the
        working set)."""
        faults = list(faults)
        damages = np.zeros(len(faults))
        capacity = self.chunk_lanes * LANE_BITS
        index = 0
        while index < len(faults):
            chunk_faults: List[Tuple[int, List[int]]] = []
            lane_of: Dict[_State, int] = {}
            states: List[_State] = []
            while index < len(faults):
                components = self._components(faults[index])
                fresh = [c for c in components if c not in lane_of]
                if states and len(states) + len(fresh) > capacity:
                    break
                for state in fresh:
                    lane_of[state] = len(states)
                    states.append(state)
                chunk_faults.append(
                    (index, [lane_of[c] for c in components])
                )
                index += 1
            lane_damages, obs_bits, set_bits = self._lane_damages(states)
            for fault_index, lanes in chunk_faults:
                if len(lanes) == 1:
                    damages[fault_index] = lane_damages[lanes[0]]
                else:
                    damages[fault_index] = self._composite_damage(
                        obs_bits, set_bits, lanes
                    )
        return damages

    def fault_effect_bits(
        self, faults: Sequence[Fault]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Lost-primitive signature bits of every fault in one batch.

        Returns ``(unobservable, unsettable)`` 0/1 ``uint8`` matrices of
        shape ``(n_faults, n_primitives)``, columns aligned to
        ``ir.primitive_ids()``: entry ``[i, j]`` is 1 iff fault ``i``
        makes primitive ``j`` unobservable (resp. unsettable).  A
        composite fault ANDs its component accessibility bits exactly
        like damage evaluation, so row ``i`` matches
        ``GraphDamageAnalysis.effect_of_fault`` name-for-name — the
        signature source of effects-based diagnosis campaigns
        (:mod:`repro.campaigns.diagnosis`)."""
        faults = list(faults)
        prim = np.asarray(self._primitive_ids, dtype=np.int64)
        unobs = np.empty((len(faults), len(prim)), dtype=np.uint8)
        unset = np.empty_like(unobs)
        capacity = self.chunk_lanes * LANE_BITS
        index = 0
        while index < len(faults):
            chunk_faults: List[Tuple[int, List[int]]] = []
            lane_of: Dict[_State, int] = {}
            states: List[_State] = []
            while index < len(faults):
                components = self._components(faults[index])
                fresh = [c for c in components if c not in lane_of]
                if states and len(states) + len(fresh) > capacity:
                    break
                for state in fresh:
                    lane_of[state] = len(states)
                    states.append(state)
                chunk_faults.append(
                    (index, [lane_of[c] for c in components])
                )
                index += 1
            _, settable, observable = self._solve(states)
            obs_bits = self._unpack(observable[prim], len(states))
            set_bits = self._unpack(settable[prim], len(states))
            for fault_index, lanes in chunk_faults:
                if len(lanes) == 1:
                    obs_col = obs_bits[:, lanes[0]]
                    set_col = set_bits[:, lanes[0]]
                else:
                    obs_col = obs_bits[:, lanes].min(axis=1)
                    set_col = set_bits[:, lanes].min(axis=1)
                unobs[fault_index] = 1 - obs_col
                unset[fault_index] = 1 - set_col
        return unobs, unset

    def canonical_state(self, broken, forced) -> _State:
        """Lane state for one simultaneous set of broken node ids plus
        mux pins (a mapping or ``(mux_id, port)`` pairs, later pairs
        overriding earlier ones); ports wrap modulo fanin like every
        scalar traversal."""
        ir = self.ir
        pins = (
            dict(forced.items())
            if isinstance(forced, Mapping)
            else dict(forced)
        )
        wrapped = {
            int(mux_id): int(port) % int(ir.fanin[mux_id])
            for mux_id, port in pins.items()
        }
        return self._state({int(node) for node in broken}, wrapped)

    def _deduped_damages(self, states: Sequence[_State]) -> np.ndarray:
        """Damage per state, solving each *unique* state on one lane and
        scattering the results back (populations repeat states often —
        duplicate genomes, converged archives)."""
        lane_of: Dict[_State, int] = {}
        unique: List[_State] = []
        scatter = np.empty(len(states), dtype=np.int64)
        for index, state in enumerate(states):
            lane = lane_of.get(state)
            if lane is None:
                lane = len(unique)
                lane_of[state] = lane
                unique.append(state)
            scatter[index] = lane
        self.counters["deduped"] += len(states) - len(unique)
        damages = np.zeros(len(unique))
        capacity = self.chunk_lanes * LANE_BITS
        for lo in range(0, len(unique), capacity):
            chunk = unique[lo : lo + capacity]
            lane_damages, _, _ = self._lane_damages(chunk)
            damages[lo : lo + len(chunk)] = lane_damages
        return damages[scatter]

    def damage_of_states(self, states) -> np.ndarray:
        """Damage of many ``(broken ids, mux pins)`` states — the
        population entry point the fault-set hardening problem drives,
        one lane per unique state."""
        return self._deduped_damages(
            [
                self.canonical_state(broken, forced)
                for broken, forced in states
            ]
        )

    def damage_of_packed(self, packed: PackedStates) -> np.ndarray:
        """Damage per lane of a :class:`PackedStates` block — the
        array-form population entry point: the masks arrive prebuilt
        (vectorized genome lowering), so no per-lane Python work remains
        between here and the sweeps.  Consumes ``packed`` (the word
        matrices are inverted in place into the sweep masks)."""
        lanes = packed.lanes
        if lanes == 0:
            return np.zeros(0)
        words = lane_words(lanes)
        if packed.dead.shape != (self._n_slots, words):
            raise ReproError(
                f"packed dead mask must be ({self._n_slots}, {words}), "
                f"got {tuple(packed.dead.shape)}"
            )
        alive = np.bitwise_not(packed.dead, out=packed.dead)
        prop = None
        if packed.broken is not None:
            if packed.broken.shape != (self._n, words):
                raise ReproError(
                    f"packed broken mask must be ({self._n}, {words}), "
                    f"got {tuple(packed.broken.shape)}"
                )
            prop = np.bitwise_not(packed.broken, out=packed.broken)
        with span(
            "batch.chunk",
            lanes=lanes,
            occupancy=round(lanes / (words * 64), 3),
            packed=True,
        ):
            _, settable, observable = self._solve_masks(prop, alive, words)
        self.counters["lanes"] += lanes
        self.counters["chunks"] += 1
        damages, _, _ = self._mask_damages(settable, observable, lanes)
        return damages

    def damage_of_fault_sets(
        self, fault_sets: Sequence[Sequence[Fault]]
    ) -> np.ndarray:
        """Damage of many *simultaneous* fault multisets, one lane each
        (the batched form of ``damage_of_faults`` — e.g. every Monte-
        Carlo sample of ``expected_damage_under_rate`` in one pass).

        An array-form :class:`~repro.analysis.faults.FaultSetBlock` is
        lowered straight to packed masks (:meth:`_damage_of_block`);
        plain fault lists take the hashed-tuple path with duplicate
        folding."""
        if isinstance(fault_sets, FaultSetBlock):
            return self._damage_of_block(fault_sets)
        return self._deduped_damages(
            [self._multiset_state(faults) for faults in fault_sets]
        )

    def _damage_of_block(self, block: FaultSetBlock) -> np.ndarray:
        """Per-lane damage of an array-form block: candidate-activity
        words straight from the ``(lane, candidate)`` pairs, lowered by
        the table's cached :class:`~repro.core.lowering.
        PopulationLowering` and solved one kernel chunk at a time.

        The lowering's override-beats-``setdefault`` pin rule is
        :meth:`_multiset_state`'s, applied in ascending candidate order —
        the order the block lists each lane's faults in — so every lane
        equals its materialized ``Fault`` list exactly (tested)."""
        damages = np.zeros(block.lanes)
        lowering = self._table_lowering(block.table)
        capacity = self.chunk_lanes * LANE_BITS
        for lo in range(0, block.lanes, capacity):
            chunk = block.lanes_slice(lo, lo + capacity)
            active = lowering.pair_activity(chunk.lane, chunk.cand, chunk.lanes)
            damages[lo : lo + chunk.lanes] = self.damage_of_packed(
                lowering.packed(active, chunk.lanes)
            )
        return damages

    def _table_lowering(self, table: CandidateTable):
        """The (cached) lowering of one candidate table: every
        candidate's :meth:`_fault_effect`, flattened into the scatter
        tables of a :class:`~repro.core.lowering.PopulationLowering`."""
        lowering = self._table_lowerings.get(table)
        if lowering is None:
            from ..core.lowering import PopulationLowering

            states = [self._fault_effect(fault) for fault in table.faults]
            lowering = PopulationLowering(self.ir, states, len(states))
            self._table_lowerings[table] = lowering
        return lowering

    def primitive_damages(self, names: Sequence[str]) -> List[float]:
        """``d_j`` for each named primitive: the policy aggregate over
        its concrete faults, all evaluated in one batch."""
        from .damage import _aggregate

        ir = self.ir
        faults: List[Fault] = []
        spans: List[Tuple[int, int]] = []
        for name in names:
            node_id = ir.id_of(name)
            kind = self._kinds[node_id]
            start = len(faults)
            if kind == IR_MUX:
                faults.extend(
                    MuxStuck(name, port)
                    for port in ir.stuck_values(node_id)
                )
            elif kind == IR_SEGMENT:
                if ir.roles[node_id] == IR_ROLE_DATA:
                    faults.append(SegmentBreak(name))
                else:
                    faults.append(ControlCellBreak(name))
            spans.append((start, len(faults)))
        damages = self.damage_vector(faults)
        results: List[float] = []
        for name, (start, stop) in zip(names, spans):
            if stop == start:
                results.append(0.0)
            elif stop - start == 1:
                results.append(float(damages[start]))
            else:
                results.append(
                    _aggregate(
                        self.policy,
                        [float(d) for d in damages[start:stop]],
                    )
                )
        return results

    def cell_stuck_ports(self, cell: str) -> Dict[str, int]:
        """Assumed stuck value per controlled mux when ``cell`` breaks:
        worst *marginal* damage on top of the break, lowest port on ties
        — the scalar rule of the other analyses.  The first call resolves
        every control cell at once (:meth:`_resolve_cell_ports`)."""
        cell_id = self.ir.id_of(cell)
        if self._cell_ports_memo is None:
            self._cell_ports_memo = self._resolve_cell_ports()
        return dict(self._cell_ports_memo.get(cell_id, {}))

    def _resolve_cell_ports(self) -> Dict[int, Dict[str, int]]:
        """Every control cell's worst-marginal ports from lane batches.

        Each cell needs its break lane plus one stuck lane per (mux,
        stuck value) it drives; a mux has one control cell, so no lane
        is shared between cells.  Cells are packed whole into chunks of
        at most ``chunk_lanes * 64`` lanes (a cell needing more gets a
        chunk of its own), each chunk is solved once, and every
        marginal — the union damage of break and stuck lane minus the
        break damage — comes from one weighted popcount over the
        AND-ed accessibility bits.  ``np.argmax`` keeps the first of
        equal marginals in ``stuck_values`` order: the lowest port."""
        ir = self.ir
        capacity = self.chunk_lanes * LANE_BITS
        memo: Dict[int, Dict[str, int]] = {}
        cells = sorted(self._cell_to_muxes)
        index = 0
        while index < len(cells):
            states: List[_State] = []
            # One (break lane, stuck lane) column pair per candidate port,
            # and the (cell, mux, ports) owning each run of pairs.
            base_lanes: List[int] = []
            stuck_lanes: List[int] = []
            owners: List[Tuple[int, int, List[int]]] = []
            while index < len(cells):
                cell_id = cells[index]
                muxes = [
                    (mux_id, list(ir.stuck_values(mux_id)))
                    for mux_id in self._cell_to_muxes[cell_id]
                ]
                need = 1 + sum(len(ports) for _, ports in muxes)
                if states and len(states) + need > capacity:
                    break
                break_lane = len(states)
                states.append(self._state((cell_id,), {}))
                for mux_id, ports in muxes:
                    owners.append((cell_id, mux_id, ports))
                    for port in ports:
                        base_lanes.append(break_lane)
                        stuck_lanes.append(len(states))
                        states.append(self._state((), {mux_id: port}))
                memo[cell_id] = {}
                index += 1
            lane_damages, obs_bits, set_bits = self._lane_damages(states)
            union_obs = obs_bits[:, base_lanes] & obs_bits[:, stuck_lanes]
            union_set = set_bits[:, base_lanes] & set_bits[:, stuck_lanes]
            marginals = (
                (self._total_do - self._weighted_lane_sums(union_obs, self._do_w))
                + (self._total_ds - self._weighted_lane_sums(union_set, self._ds_w))
                - lane_damages[base_lanes]
            )
            offset = 0
            for cell_id, mux_id, ports in owners:
                best = 0
                if ports:
                    window = marginals[offset : offset + len(ports)]
                    best = ports[int(np.argmax(window))]
                    offset += len(ports)
                memo[cell_id][ir.names[mux_id]] = best
        return memo
