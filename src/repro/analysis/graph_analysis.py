"""Graph-reachability damage analysis — no decomposition tree required.

Works on *arbitrary* RSN graphs, including non-series-parallel ones where
the tree-based analyses of :mod:`repro.analysis.damage` do not apply:

* an instrument is **settable** under a fault when a scan-in-to-segment
  path exists that crosses no broken segment and enters every multiplexer
  on a selectable port (stuck ports are fixed);
* it is **observable** when such a path exists from the segment to the
  scan-out.

On series-parallel networks this agrees exactly with the
decomposition-tree analyses (property-tested); like them — and like the
configuration-enumeration oracle — it treats multiplexer selects as
independent, i.e. shared-select-cell coupling between muxes on one path is
resolved optimistically.

A broken control cell uses the same rule as the tree analyses: the cell
breaks like a segment, and every mux it drives is pinned to the stuck
value with the worst marginal damage (union of the single-fault effects).

Every query runs on the lane-packed batch kernel
(:class:`repro.analysis.batch.BatchFaultAnalysis`): 64 fault instances
per ``uint64`` word, all reachability solved in a few vectorized sweeps,
so the cost is sublinear in the fault count.  This is the ``bitset``
route of :func:`repro.analysis.route_analysis` — every non-SP network and
every fault-set query.  The per-fault breadth-first searches it replaced
(name-keyed and compiled-IR) live on as test-only oracles in
``tests/analysis/_reference_reach.py``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ReproError
from ..ir import LANE_BITS as IR_LANE_BITS
from ..rsn.network import RsnNetwork
from .batch import BatchFaultAnalysis
from .damage import _AnalysisBase
from .effects import FaultEffect
from .faults import ControlCellBreak, Fault, MuxStuck, SegmentBreak


class GraphDamageAnalysis(_AnalysisBase):
    """Tree-free analysis for arbitrary RSN graphs (the ``bitset``
    route)."""

    route = "bitset"

    def __init__(
        self,
        network: RsnNetwork,
        spec,
        policy: str = "max",
        backend: str = "bitset",
        chunk_lanes: int = 64,
    ):
        # ``backend`` selects nothing: it is kept, with its one value,
        # because the frozen perfbench harness (perfbench/child.py,
        # perfbench/make_refs.py) constructs GraphDamageAnalysis(...,
        # backend="bitset").
        if backend != "bitset":
            raise ReproError(
                "the only graph analysis backend is 'bitset', "
                f"got {backend!r}"
            )
        super().__init__(
            network, spec, tree=False, policy=policy
        )
        self._batch = BatchFaultAnalysis(
            network, spec, policy=policy, chunk_lanes=chunk_lanes
        )

    def _single_sets(
        self, broken: Set[int], forced: Mapping[int, int]
    ) -> Tuple[Set[int], Set[int]]:
        """(unobservable ids, unsettable ids) of one pinned/broken state.

        A primitive is *settable* when a break-clean, stuck-respecting
        path arrives from the scan-in AND some stuck-respecting path (data
        may be corrupted beyond the primitive — irrelevant for setting)
        continues to the scan-out, i.e. the primitive lies on an active
        path with a clean prefix.  *Observable* is the mirror image."""
        return self._batch.state_sets(broken, forced)

    # -- fault lowering and damage ----------------------------------------
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
        return float(self._batch.damage_vector([fault])[0])

    def damage_vector(self, faults: Sequence[Fault]) -> np.ndarray:
        """Eq. 1 damage of every fault, each evaluated independently —
        one lane per fault, all solved together."""
        return self._batch.damage_vector(faults)

    def primitive_damages(self, names: Sequence[str]) -> List[float]:
        """``d_j`` for each named primitive (the engine's chunk query) in
        one lane-packed pass."""
        return self._batch.primitive_damages(names)

    @property
    def batch_counters(self) -> Dict[str, int]:
        """Lane/chunk/sweep counters of the bitset kernel; surfaced
        through ``EngineStats``."""
        return dict(self._batch.counters)

    def cell_stuck_ports(self, cell: str) -> Dict[str, int]:
        return self._batch.cell_stuck_ports(cell)

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
        return float(self._batch.damage_of_fault_sets([faults])[0])

    def damage_of_fault_sets(
        self, fault_sets: Sequence[Sequence[Fault]]
    ) -> List[float]:
        """Damage of many simultaneous fault multisets, one lane each
        (e.g. all Monte-Carlo defect samples in one pass).  Array-form
        :class:`~repro.analysis.faults.FaultSetBlock` s are lowered
        straight to packed masks."""
        return [
            float(value)
            for value in self._batch.damage_of_fault_sets(fault_sets)
        ]

    def damage_of_states(self, states) -> np.ndarray:
        """Damage of many pre-lowered ``(broken ids, mux pins)`` states —
        the population entry point of the EA's fault-set objective, one
        lane per unique state."""
        return self._batch.damage_of_states(states)

    def damage_of_packed_states(self, packed) -> np.ndarray:
        """Array-form population query: damage per lane of a
        :class:`repro.analysis.batch.PackedStates` block (vectorized
        genome lowering)."""
        return self._batch.damage_of_packed(packed)

    @property
    def lane_capacity(self) -> Optional[int]:
        """Lanes one bitset kernel chunk solves (``chunk_lanes`` words)."""
        return self._batch.chunk_lanes * IR_LANE_BITS


def expected_damage_under_rate(
    network: RsnNetwork,
    spec,
    defect_rate: float,
    samples: int = 200,
    seed: int = 0,
    hardened_units=(),
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
    identical to the pre-campaign implementation; ``sampler="vectorized"``
    switches to the campaign's per-block numpy substreams — the
    resumable, O(block) path rate sweeps use.
    """
    from ..campaigns import MonteCarloPlan, run_monte_carlo

    analysis = GraphDamageAnalysis(network, spec)
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
