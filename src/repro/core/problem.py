"""The selective-hardening optimization problem (Sec. V, Eq. 2 / Eq. 3).

A *candidate* is one hardening decision: by default a control unit (a mux
together with the configuration cells driving it, or a SIB's bit + mux
combination); with ``hardenable="all"`` every data segment becomes an
additional singleton candidate.

Because the analysis works under a single-permanent-fault model, hardening
candidate ``i`` avoids exactly the faults of its members and nothing else —
the interdependence between ``x_i`` and ``y_{i,j}`` the paper states in
Sec. V.  Both objectives are therefore linear in the genome:

    cost(x)   = sum_i c_i x_i                               (Eq. 3)
    damage(x) = D_max - sum_i d_i x_i                        (Eq. 2)

which the problem evaluates for a whole population with two matrix
products.  (The linear structure also admits exact baselines — see
:mod:`repro.core.baselines` — that the benchmarks use to judge the EA.)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.damage import DamageReport
from ..analysis.faults import (
    ControlCellBreak,
    Fault,
    MuxStuck,
    SegmentBreak,
)
from ..ea.problem import EvaluationMemo
from ..errors import OptimizationError
from ..ir import LANE_BITS
from ..obs.trace import span
from ..rsn.network import RsnNetwork
from ..spec.cost_model import CostModel


class HardeningProblem:
    """Bi-objective (cost, residual damage) minimization."""

    n_objectives = 2

    def __init__(
        self,
        network: RsnNetwork,
        report: DamageReport,
        cost_model: CostModel,
        hardenable: str = "all",
    ):
        if hardenable not in ("control", "all"):
            raise OptimizationError(
                f"hardenable must be 'control' or 'all', got {hardenable!r}"
            )
        self.network = network
        self.report = report
        self.cost_model = cost_model
        self.hardenable = hardenable

        names: List[str] = []
        costs: List[float] = []
        damages: List[float] = []
        for unit in network.units():
            names.append(unit.name)
            costs.append(cost_model.unit_cost(network, unit))
            damages.append(report.unit_damage[unit.name])
        if hardenable == "all":
            for segment in network.data_segments():
                names.append(segment.name)
                costs.append(cost_model.segment_cost(network, segment.name))
                damages.append(report.primitive_damage[segment.name])
        if not names:
            raise OptimizationError(
                f"network {network.name!r} has no hardening candidates"
            )

        self.candidates: Tuple[str, ...] = tuple(names)
        self.costs = np.asarray(costs, dtype=float)
        self.damages = np.asarray(damages, dtype=float)
        self.n_vars = len(names)
        self.max_cost = float(self.costs.sum())
        self.max_damage = report.total
        # Damage that no admissible selection can avoid.
        self.floor_damage = self.max_damage - float(self.damages.sum())

    # Cap the float copy made per evaluation chunk (million-variable
    # genomes would otherwise blow up a 300-row population to gigabytes).
    _CHUNK_FLOATS = 8_000_000

    # ------------------------------------------------------------------
    def evaluate(self, genomes: np.ndarray) -> np.ndarray:
        """(P, 2) objectives [cost, damage] for a boolean genome matrix."""
        genomes = np.asarray(genomes)
        if genomes.ndim != 2 or genomes.shape[1] != self.n_vars:
            raise OptimizationError(
                f"expected (P, {self.n_vars}) genomes, got "
                f"{tuple(genomes.shape)}"
            )
        rows = genomes.shape[0]
        cost = np.empty(rows)
        damage = np.empty(rows)
        chunk = max(1, self._CHUNK_FLOATS // max(1, self.n_vars))
        for start in range(0, rows, chunk):
            block = genomes[start : start + chunk].astype(float)
            cost[start : start + chunk] = block @ self.costs
            damage[start : start + chunk] = (
                self.max_damage - block @ self.damages
            )
        return np.stack([cost, damage], axis=1)

    def evaluate_one(self, genome: np.ndarray) -> Tuple[float, float]:
        """(cost, damage) of a single genome."""
        cost, damage = self.evaluate(np.asarray(genome, dtype=bool)[None, :])[0]
        return float(cost), float(damage)

    def genome_of(self, selected: Sequence[str]) -> np.ndarray:
        """Boolean genome for a list of candidate names."""
        index = {name: k for k, name in enumerate(self.candidates)}
        genome = np.zeros(self.n_vars, dtype=bool)
        for name in selected:
            try:
                genome[index[name]] = True
            except KeyError:
                raise OptimizationError(
                    f"unknown hardening candidate {name!r}"
                ) from None
        return genome

    def selected_names(self, genome: np.ndarray) -> List[str]:
        """Candidate names a genome hardens."""
        genome = np.asarray(genome, dtype=bool)
        return [
            name for name, bit in zip(self.candidates, genome) if bit
        ]


class FaultSetHardeningProblem(HardeningProblem):
    """Hardening with the *joint* damage of all residual faults.

    The linear problem scores a genome by summing per-candidate damages
    (Eq. 2) — exact under the paper's single-fault model, but blind to
    fault interaction.  This variant instead treats every un-hardened
    candidate as simultaneously faulty and scores the genome by the exact
    joint damage of that fault multiset: each genome lowers to one
    ``(broken ids, mux pins)`` state
    (:meth:`GraphDamageAnalysis.effect_of_faults` semantics), and a whole
    population is swept through
    :meth:`~repro.analysis.graph_analysis.GraphDamageAnalysis.damage_of_states`
    — one bitset kernel lane per unique genome.

    An :class:`repro.ea.EvaluationMemo` keyed by the packed genome bytes
    makes re-evaluation incremental: after crossover/mutation only the
    genomes whose bits actually changed are swept again.

    The memo misses never become Python tuples:
    :class:`repro.core.lowering.PopulationLowering` lowers whole genome
    blocks straight to the kernel's packed word masks
    (:meth:`lower_packed`), streamed in lane blocks bounded by both the
    kernel's ``chunk_lanes`` and a hard memory budget (``max_lane_mb``)
    so a population of 100k never materializes all lanes at once.
    ``lowering="scalar"`` keeps the per-genome :meth:`_state_of` path —
    the parity reference the vectorized path is property-tested
    ``==``-identical against.

    ``evaluate_states`` optionally reroutes the tuple-state sweep (e.g.
    through :meth:`CriticalityEngine.population_damages` for stats
    accounting) and ``evaluate_packed`` the array-form sweep
    (:meth:`CriticalityEngine.population_damages_packed`); both must be
    exact — results are memoized.
    """

    def __init__(
        self,
        network: RsnNetwork,
        report: DamageReport,
        cost_model: CostModel,
        analysis,
        hardenable: str = "all",
        evaluate_states: Optional[Callable] = None,
        evaluate_packed: Optional[Callable] = None,
        max_memo_entries: int = 1 << 17,
        max_lane_mb: Optional[float] = 64.0,
        lowering: str = "vectorized",
    ):
        super().__init__(network, report, cost_model, hardenable=hardenable)
        if lowering not in ("vectorized", "scalar"):
            raise OptimizationError(
                "lowering must be 'vectorized' or 'scalar', "
                f"got {lowering!r}"
            )
        self._analysis = analysis
        self._evaluate_states_fn = evaluate_states
        self._evaluate_packed_fn = evaluate_packed
        self.max_lane_mb = max_lane_mb
        self._vectorized = lowering == "vectorized"
        self._lowering = None  # built lazily on the first packed sweep
        ir = analysis.ir

        # Per-candidate residual effect: (broken node ids, (mux id, port)
        # pins, pins-override flag) applied when the candidate is NOT
        # hardened, plus the equivalent Fault objects for the scalar
        # parity path.  Candidate order mirrors ``self.candidates``.
        states: List[Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...], bool]] = []
        fault_lists: List[Tuple[Fault, ...]] = []
        for unit in network.units():
            broken: List[int] = []
            pins: List[Tuple[int, int]] = []
            faults: List[Fault] = []
            override = False
            if unit.cells:
                # A dead unit breaks its configuration cells; each break
                # pins the driven muxes at their worst marginal ports
                # (the ControlCellBreak rule).
                for cell in unit.cells:
                    faults.append(ControlCellBreak(cell))
                    broken.append(ir.id_of(cell))
                    for mux, port in analysis.cell_stuck_ports(cell).items():
                        mux_id = ir.id_of(mux)
                        pins.append(
                            (mux_id, int(port) % int(ir.fanin[mux_id]))
                        )
            else:
                # No cells to break: the muxes themselves stick (port 0).
                override = True
                for mux in unit.muxes:
                    faults.append(MuxStuck(mux, 0))
                    pins.append((ir.id_of(mux), 0))
            states.append((tuple(broken), tuple(pins), override))
            fault_lists.append(tuple(faults))
        if hardenable == "all":
            for segment in network.data_segments():
                states.append(((ir.id_of(segment.name),), (), False))
                fault_lists.append((SegmentBreak(segment.name),))
        self._candidate_states = states
        self._candidate_faults = fault_lists

        self.memo = EvaluationMemo(max_memo_entries)
        self.counters: Dict[str, int] = {
            "evaluations": 0,
            "memo_hits": 0,
            "states_swept": 0,
        }
        # Joint-damage extremes replace the linear bounds: nothing
        # hardened (every candidate faulty at once) and everything
        # hardened (no residual fault).
        zeros = np.zeros(self.n_vars, dtype=bool)
        ones = np.ones(self.n_vars, dtype=bool)
        extremes = np.asarray(
            self._evaluate_states(
                [self._state_of(zeros), self._state_of(ones)]
            ),
            dtype=float,
        )
        self.max_damage = float(extremes[0])
        self.floor_damage = float(extremes[1])
        for key, value in zip(
            EvaluationMemo.keys_of(np.stack([zeros, ones])), extremes
        ):
            self.memo.put(key, float(value))

    # ------------------------------------------------------------------
    def residual_faults(self, genome: np.ndarray) -> List[Fault]:
        """The simultaneous fault multiset of a genome's un-hardened
        candidates — the scalar-parity form of :meth:`_state_of`
        (``damage_of_faults(residual_faults(g))`` must equal the batched
        damage exactly)."""
        genome = np.asarray(genome, dtype=bool)
        faults: List[Fault] = []
        for index in np.flatnonzero(~genome):
            faults.extend(self._candidate_faults[index])
        return faults

    def _state_of(self, genome: np.ndarray):
        """Merge the un-hardened candidates' effects into one lane state,
        mirroring ``_multiset_state`` over :meth:`residual_faults`: breaks
        accumulate, stuck muxes pin (override), broken cells pin without
        overriding."""
        broken: List[int] = []
        forced: Dict[int, int] = {}
        for index in np.flatnonzero(~np.asarray(genome, dtype=bool)):
            more_broken, pins, override = self._candidate_states[index]
            broken.extend(more_broken)
            if override:
                for mux_id, port in pins:
                    forced[mux_id] = port
            else:
                for mux_id, port in pins:
                    forced.setdefault(mux_id, port)
        return (tuple(broken), tuple(forced.items()))

    def _evaluate_states(self, states) -> np.ndarray:
        if self._evaluate_states_fn is not None:
            return self._evaluate_states_fn(states)
        return self._analysis.damage_of_states(states)

    def _evaluate_packed(self, packed) -> np.ndarray:
        if self._evaluate_packed_fn is not None:
            return self._evaluate_packed_fn(packed)
        return self._analysis.damage_of_packed_states(packed)

    # ------------------------------------------------------------------
    def lower_packed(self, genomes: np.ndarray):
        """Vectorized whole-block lowering: a ``(P, n_vars)`` genome
        block straight to the kernel's packed lane masks
        (:class:`repro.analysis.batch.PackedStates`), bit-identical to
        lowering each row through :meth:`_state_of`."""
        if self._lowering is None:
            from .lowering import PopulationLowering

            self._lowering = PopulationLowering(
                self._analysis.ir, self._candidate_states, self.n_vars
            )
        return self._lowering.masks(genomes)

    def _lane_block(self) -> Optional[int]:
        """Lanes per streaming block of the packed sweep: bounded by the
        kernel's ``chunk_lanes`` chunk and by the ``max_lane_mb`` memory
        budget (``None`` disables streaming — all misses in one block)."""
        if self.max_lane_mb is None:
            return None
        ir = self._analysis.ir
        # Peak working set per lane: ~6 live (n_nodes, words) word
        # matrices across the sweeps (masks + 4 reach + accessibility)
        # plus the (n_slots, words) alive mask, plus two unpacked uint8
        # accessibility rows per node for the damage popcount.
        per_lane = (6 * ir.n_nodes + len(ir.pred_indices)) // 8 + (
            2 * ir.n_nodes
        )
        budget = int(self.max_lane_mb * (1 << 20)) // max(1, per_lane)
        lanes = max(LANE_BITS, (budget // LANE_BITS) * LANE_BITS)
        capacity = getattr(self._analysis, "lane_capacity", None)
        return min(lanes, capacity) if capacity else lanes

    def _sweep_rows(
        self, genomes: np.ndarray, miss_rows: np.ndarray
    ) -> np.ndarray:
        """Damage of the memo-miss genome rows, one kernel lane each.

        Vectorized path: lower + solve in streaming lane blocks so a
        100k-genome cold sweep stays inside the memory budget.  Scalar
        path: per-genome tuples (parity reference)."""
        count = len(miss_rows)
        if not self._vectorized:
            states = [self._state_of(genomes[row]) for row in miss_rows]
            with span(
                "ea.evaluate",
                genomes=len(genomes),
                swept=count,
                lowering="scalar",
            ):
                return np.asarray(
                    self._evaluate_states(states), dtype=float
                )
        block = self._lane_block() or count
        out = np.empty(count)
        with span(
            "ea.evaluate",
            genomes=len(genomes),
            swept=count,
            lowering="vectorized",
            blocks=-(-count // block),
        ):
            for lo in range(0, count, block):
                rows = miss_rows[lo : lo + block]
                packed = self.lower_packed(genomes[rows])
                out[lo : lo + len(rows)] = np.asarray(
                    self._evaluate_packed(packed), dtype=float
                )
        return out

    # ------------------------------------------------------------------
    def evaluate(self, genomes: np.ndarray) -> np.ndarray:
        """(P, 2) objectives [cost, joint residual damage].

        The population is bit-packed exactly once; memo keys and the
        cost matvec chunks both read that packed matrix.  Only the
        unique, never-seen genomes are swept (one lane each), in
        streaming lane blocks under the vectorized lowering.
        """
        genomes = np.asarray(genomes, dtype=bool)
        if genomes.ndim != 2 or genomes.shape[1] != self.n_vars:
            raise OptimizationError(
                f"expected (P, {self.n_vars}) genomes, got "
                f"{tuple(genomes.shape)}"
            )
        rows = genomes.shape[0]
        packed_rows = EvaluationMemo.packed_of(genomes)
        cost = np.empty(rows)
        chunk = max(1, self._CHUNK_FLOATS // max(1, self.n_vars))
        for start in range(0, rows, chunk):
            bits = np.unpackbits(
                packed_rows[start : start + chunk],
                axis=1,
                count=self.n_vars,
            )
            cost[start : start + chunk] = bits @ self.costs

        damage = np.empty(rows)
        hits_before = self.memo.hits
        pending: Dict[bytes, List[int]] = {}
        miss_rows: List[int] = []
        for row, key in enumerate(
            EvaluationMemo.keys_of_packed(packed_rows)
        ):
            cached = self.memo.get(key)
            if cached is not None:
                damage[row] = cached
                continue
            duplicates = pending.get(key)
            if duplicates is None:
                pending[key] = [row]
                miss_rows.append(row)
            else:
                duplicates.append(row)
        if miss_rows:
            swept = self._sweep_rows(
                genomes, np.asarray(miss_rows, dtype=np.int64)
            )
            for (key, dup_rows), value in zip(pending.items(), swept):
                damage[dup_rows] = value
                self.memo.put(key, float(value))
        self.counters["evaluations"] += rows
        self.counters["memo_hits"] += self.memo.hits - hits_before
        self.counters["states_swept"] += len(miss_rows)
        return np.stack([cost, damage], axis=1)
