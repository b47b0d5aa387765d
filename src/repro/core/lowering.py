"""Whole-population lowering of candidate sets to packed lane masks.

:meth:`FaultSetHardeningProblem._state_of` lowers ONE genome to a
``(broken ids, mux pins)`` tuple with a Python loop over its un-hardened
candidates — fine for a handful of genomes, but the profile's top entry
at population 1000 and hopeless at 100k.  This module lowers a whole
``(P, n_vars)`` genome block straight to the bitset kernel's packed word
masks (:class:`repro.analysis.batch.PackedStates`) with a fixed, small
number of vectorized operations, skipping the per-genome tuples
entirely.

Lowering is two steps.  The first turns a block into *candidate-activity
words* — bit ``f`` of row ``c`` set iff lane ``f`` holds candidate ``c``
— from a genome block (:meth:`PopulationLowering.masks`: a candidate is
active when left un-hardened) or from sparse ``(lane, candidate)`` pairs
(:meth:`PopulationLowering.pair_activity`: the Monte-Carlo fault-set
blocks of :mod:`repro.campaigns.sampler`, whose candidates are the
concrete faults of a flat candidate table).  The second, shared step
(:meth:`PopulationLowering.packed`) scatters activity words into the
kernel's broken/dead masks.

Incidence precomputation
------------------------
Candidate effects are static, so construction flattens them once into
scatter tables:

* **break incidence** — COO pairs ``(node id, candidate)`` over every
  node a candidate breaks when left un-hardened.  Lowering gathers the
  candidates' activity words into the node rows (a packed boolean
  "matmul" ``incidence @ ~genomes`` where every row has weight-1
  entries, so the gather IS the product).
* **pin entries** — one entry per ``(candidate, mux, port)`` pin, each
  carrying the CSR of predecessor slots it deadens
  (:meth:`repro.ir.CompiledNetwork.mux_dead_slots`).  Entries for the
  same mux are stored in *resolution order* (see below) so the first
  active entry per lane wins.

Pin-resolution invariant
------------------------
``_state_of`` (and, for fault sets, the kernel's ``_multiset_state``)
merges pins with override-beats-``setdefault`` semantics:
iterating candidates in ascending index order, a stuck-mux (override)
candidate assigns ``forced[mux] = port`` while a broken-cell candidate
only ``setdefault``s.  The net winner for a contested mux is therefore

* the **last** override pin (highest candidate index, then highest pin
  position within it) when any override is active, else
* the **first** non-override pin (lowest candidate index, then lowest
  pin position).

Sorting a mux's entries by ``(override DESC, candidate-order)`` — with
candidate-order *descending* inside the override layer and *ascending*
inside the non-override layer — turns that rule into "first active entry
wins", which vectorizes as a masked priority scan.  Real networks pin
each mux from exactly one candidate, so the scan collapses to a plain
gather; the contested-mux fallback is property-tested against a
reference reimplementation of the ``_state_of`` merge.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..analysis.batch import PackedStates, _pack_lanes
from ..ir import lane_words


class PopulationLowering:
    """Precomputed incidence matrices lowering genome blocks to masks.

    ``candidate_states`` is the problem's per-candidate effect list:
    ``(broken node ids, ((mux id, wrapped port), ...), override)`` tuples
    in candidate order — exactly what ``_state_of`` iterates.
    """

    def __init__(self, ir, candidate_states: Sequence[Tuple], n_vars: int):
        if len(candidate_states) != n_vars:
            raise ValueError(
                f"{n_vars} genome vars but {len(candidate_states)} "
                "candidate states"
            )
        self._n_nodes = int(ir.n_nodes)
        self._n_slots = len(ir.pred_indices)
        self.n_vars = int(n_vars)

        break_nodes: List[int] = []
        break_cands: List[int] = []
        # (mux, sort key, candidate, port) per pin entry; the key encodes
        # the resolution order documented in the module docstring.
        entries: List[Tuple[int, Tuple, int, int]] = []
        for cand, (broken, pins, override) in enumerate(candidate_states):
            for node in broken:
                break_nodes.append(int(node))
                break_cands.append(cand)
            for pos, (mux_id, port) in enumerate(pins):
                key = (0, -cand, -pos) if override else (1, cand, pos)
                entries.append((int(mux_id), key, cand, int(port)))
        entries.sort(key=lambda entry: (entry[0], entry[1]))

        self._break_nodes = np.asarray(break_nodes, dtype=np.int64)
        self._break_cands = np.asarray(break_cands, dtype=np.int64)
        # A node broken by a single candidate (the universal case: every
        # cell belongs to one control unit, every data segment is one
        # singleton candidate) lets the broken scatter be a plain
        # assignment instead of bitwise_or.at.
        self._break_unique = (
            np.unique(self._break_nodes).size == self._break_nodes.size
        )

        entry_cands: List[int] = []
        entry_slots: List[np.ndarray] = []
        slot_owner: List[np.ndarray] = []
        contested: List[Tuple[int, int]] = []
        index = 0
        while index < len(entries):
            mux = entries[index][0]
            stop = index
            while stop < len(entries) and entries[stop][0] == mux:
                stop += 1
            if stop - index > 1:
                contested.append((index, stop))
            for _, _, cand, port in entries[index:stop]:
                slots = np.asarray(
                    ir.mux_dead_slots(mux, port), dtype=np.int64
                )
                entry_slots.append(slots)
                slot_owner.append(
                    np.full(len(slots), len(entry_cands), dtype=np.int64)
                )
                entry_cands.append(cand)
            index = stop
        self._entry_cands = np.asarray(entry_cands, dtype=np.int64)
        self._entry_slots = (
            np.concatenate(entry_slots)
            if entry_slots
            else np.zeros(0, dtype=np.int64)
        )
        self._slot_owner = (
            np.concatenate(slot_owner)
            if slot_owner
            else np.zeros(0, dtype=np.int64)
        )
        self._contested_spans = contested
        # Uncontested muxes own disjoint predecessor slots, so the dead
        # scatter is also a plain assignment; contested muxes make slots
        # collide (several ports deaden overlapping slot sets) and need
        # the accumulating scatter.
        self._slots_unique = (
            np.unique(self._entry_slots).size == self._entry_slots.size
        )

    # ------------------------------------------------------------------
    def masks(self, genomes: np.ndarray) -> PackedStates:
        """Lower a ``(P, n_vars)`` boolean genome block to packed masks.

        Bit ``f`` of every output word row describes genome ``f`` of the
        block, matching the tuple path's ``_masks`` layout exactly —
        property-tested word-identical, so the kernel sweep downstream is
        the same computation either way.
        """
        genomes = np.asarray(genomes, dtype=bool)
        if genomes.ndim != 2 or genomes.shape[1] != self.n_vars:
            raise ValueError(
                f"expected (P, {self.n_vars}) genomes, got "
                f"{tuple(genomes.shape)}"
            )
        lanes = len(genomes)
        # Candidate-activity words: bit f of row c set iff genome f
        # leaves candidate c un-hardened.
        active = _pack_lanes(np.ascontiguousarray(~genomes.T), lane_words(lanes))
        return self.packed(active, lanes)

    def pair_activity(
        self, lane: np.ndarray, cand: np.ndarray, lanes: int
    ) -> np.ndarray:
        """Candidate-activity words of ``lanes`` sparse fault sets given
        as ``(lane, candidate)`` pairs: bit ``f`` of row ``c`` set iff
        lane ``f`` holds candidate ``c``.  Built in the ``_pack_lanes``
        byte layout without a dense boolean matrix."""
        words = lane_words(lanes)
        active = np.zeros((self.n_vars, words * 8), dtype=np.uint8)
        lane = np.asarray(lane, dtype=np.int64)
        bits = np.left_shift(np.uint8(1), (lane & 7).astype(np.uint8))
        np.bitwise_or.at(
            active.reshape(-1),
            np.asarray(cand, dtype=np.int64) * (words * 8) + (lane >> 3),
            bits,
        )
        return active.view(np.uint64)

    def packed(self, active: np.ndarray, lanes: int) -> PackedStates:
        """Lower ``(n_vars, words)`` candidate-activity words to packed
        masks — the step shared by genome blocks (:meth:`masks`) and
        sparse fault-set blocks (:meth:`pair_activity`)."""
        words = lane_words(lanes)
        broken = None
        if self._break_nodes.size:
            rows = active[self._break_cands]
            if rows.any():
                broken = np.zeros((self._n_nodes, words), dtype=np.uint64)
                if self._break_unique:
                    broken[self._break_nodes] = rows
                else:
                    np.bitwise_or.at(broken, self._break_nodes, rows)

        dead = np.zeros((self._n_slots, words), dtype=np.uint64)
        if self._entry_cands.size:
            win = active[self._entry_cands]
            for lo, hi in self._contested_spans:
                # Masked priority scan: an entry only wins the lanes no
                # earlier (higher-priority) entry of the same mux claimed.
                seen = win[lo].copy()
                for entry in range(lo + 1, hi):
                    claimed = win[entry]
                    win[entry] = claimed & ~seen
                    seen |= claimed
            if self._slots_unique:
                dead[self._entry_slots] = win[self._slot_owner]
            else:
                np.bitwise_or.at(
                    dead, self._entry_slots, win[self._slot_owner]
                )
        return PackedStates(broken=broken, dead=dead, lanes=lanes)
