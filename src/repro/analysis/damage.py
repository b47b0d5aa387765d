"""Criticality analysis: per-primitive damage ``d_j`` (Eq. 1, Sec. IV).

Two implementations over the decomposition tree are provided:

* :class:`FastDamageAnalysis` — one O(N) pass using serial prefix sums over
  the decomposition tree (the hierarchical computation of Sec. IV-C that
  makes the approach scale to million-bit MBIST networks); the ``dp``
  route of :func:`repro.analysis.route_analysis`.
* :class:`ExplicitDamageAnalysis` — evaluates every concrete fault with the
  per-fault effect sets of :mod:`repro.analysis.effects`; O(N) per fault,
  O(N^2) per network.  The readable, independent reference the tests
  compare the routes against; no entry point selects it.

Both assign each primitive ``j`` a damage value

    d_j = sum_i do_i * y_ij + sum_i ds_i * z_ij            (Eq. 1)

where the fault of ``j`` is: the single break fault for a data segment, the
break-plus-uncontrolled-muxes fault for a configuration cell, and the
``policy`` aggregate (worst case by default) over the stuck-at-id faults of
a multiplexer.  For a broken control cell, each uncontrolled mux is taken
at the stuck value with the worst *marginal* damage on top of the cell's
own break effect (the break already costs the settability of everything
serially after the cell, so a branch whose weight is mostly settability
may not be the worst choice even if its standalone stuck damage is) —
deterministic tie-break on the lowest port; both implementations use the
same rule and are tested to agree exactly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ReproError
from ..ir import MUX as IR_MUX
from ..ir import ROLE_DATA as IR_ROLE_DATA
from ..ir import SEGMENT as IR_SEGMENT
from ..ir import intern
from ..rsn.network import RsnNetwork
from ..sp.reduce import decompose
from ..sp.tree import SPTree
from .effects import (
    control_cell_break_effect,
    mux_stuck_effect,
    segment_break_effect,
)
from .faults import ControlCellBreak, Fault, MuxStuck, SegmentBreak

_POLICIES = ("max", "sum", "mean")


def _aggregate(policy: str, values: Sequence[float]) -> float:
    if not values:
        return 0.0
    if policy == "max":
        return max(values)
    if policy == "sum":
        return float(sum(values))
    if policy == "mean":
        return float(sum(values)) / len(values)
    raise ReproError(f"unknown damage policy {policy!r}")


class DamageReport:
    """The outcome of a criticality analysis.

    * ``primitive_damage`` — ``d_j`` for every scan primitive (segments,
      control cells and multiplexers);
    * ``unit_damage`` — per hardening unit: the sum of its members' ``d_j``
      (Eq. 2 sums over primitives, and hardening a unit avoids the faults
      of all its members);
    * ``total`` — Eq. 2 with nothing hardened (Table I, "Max. Damage");
    * ``residual(hardened)`` — Eq. 2 for a concrete selection.
    """

    def __init__(
        self,
        network: RsnNetwork,
        policy: str,
        primitive_damage: Dict[str, float],
        unit_damage: Dict[str, float],
    ):
        self.network = network
        self.policy = policy
        self.primitive_damage = primitive_damage
        self.unit_damage = unit_damage
        self.total = float(sum(primitive_damage.values()))
        self.hardenable = float(sum(unit_damage.values()))
        # Damage of faults no hardening decision can avoid (data segments).
        self.unavoidable = self.total - self.hardenable

    def residual(self, hardened_units: Iterable[str]) -> float:
        """Eq. 2 when the given units are hardened."""
        avoided = 0.0
        for name in hardened_units:
            try:
                avoided += self.unit_damage[name]
            except KeyError:
                raise ReproError(f"unknown hardening unit {name!r}") from None
        return self.total - avoided

    def unit_damage_vector(
        self, unit_names: Sequence[str]
    ) -> np.ndarray:
        """Damage coefficients aligned with ``unit_names``."""
        return np.array(
            [self.unit_damage[name] for name in unit_names], dtype=float
        )

    def most_critical_units(self, count: int = 10) -> List[Tuple[str, float]]:
        """The hardening units with the highest damage, descending."""
        ranked = sorted(
            self.unit_damage.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:count]

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"<DamageReport {self.network.name}: total={self.total:.0f}, "
            f"hardenable={self.hardenable:.0f}, policy={self.policy}>"
        )


def partition_primitives(ir, sites: str) -> Tuple[List[str], Set[str]]:
    """Split the primitives into (evaluated, zero-filled) under a damage
    site filter (see :meth:`_AnalysisBase.report`)."""
    if sites not in ("all", "control", "mux"):
        raise ReproError(f"unknown damage-site filter {sites!r}")
    evaluated: List[str] = []
    skipped: Set[str] = set()
    for node_id, name in enumerate(ir.names):
        kind = ir.kinds[node_id]
        if kind == IR_MUX:
            evaluated.append(name)
        elif kind == IR_SEGMENT:
            skip = sites == "mux" or (
                sites == "control" and ir.roles[node_id] == IR_ROLE_DATA
            )
            if skip:
                skipped.add(name)
            else:
                evaluated.append(name)
    return evaluated, skipped


def assemble_report(
    network: RsnNetwork,
    policy: str,
    evaluated: Sequence[str],
    damages: Sequence[float],
    skipped: Set[str],
) -> DamageReport:
    """The report of ``damages`` (aligned with ``evaluated``), with the
    ``skipped`` primitives at zero."""
    by_name = dict(zip(evaluated, damages))
    primitive_damage: Dict[str, float] = {}
    for name in intern(network).names:
        if name in by_name:
            primitive_damage[name] = by_name[name]
        elif name in skipped:
            primitive_damage[name] = 0.0
    unit_damage = {
        unit.name: sum(primitive_damage[member] for member in unit.members)
        for unit in network.units()
    }
    return DamageReport(network, policy, primitive_damage, unit_damage)


class _AnalysisBase:
    """Shared scaffolding of the two implementations."""

    def __init__(
        self,
        network: RsnNetwork,
        spec,
        tree: Optional[SPTree] = None,
        policy: str = "max",
    ):
        if policy not in _POLICIES:
            raise ReproError(
                f"policy must be one of {_POLICIES}, got {policy!r}"
            )
        self.network = network
        #: The compiled execution substrate; shared by every analysis of
        #: the same network object (see :func:`repro.ir.intern`).
        self.ir = intern(network)
        self.spec = spec
        if tree is False:  # tree-free analysis (graph reachability)
            self.tree = None
        else:
            self.tree = tree if tree is not None else decompose(network)
        self.policy = policy
        #: Values callers derive from this analysis and reuse across
        #: calls (campaign candidate tables, the spec token), keyed by
        #: the caller.
        self.derived: Dict = {}
        self._cell_to_muxes: Dict[str, List[str]] = {}
        ir = self.ir
        for mux_id in range(ir.n_nodes):
            if ir.kinds[mux_id] == IR_MUX and ir.control_cell[mux_id] >= 0:
                self._cell_to_muxes.setdefault(
                    ir.names[ir.control_cell[mux_id]], []
                ).append(ir.names[mux_id])

    def muxes_of_cell(self, cell: str) -> List[str]:
        """Muxes whose address port ``cell`` drives (precomputed)."""
        return self._cell_to_muxes.get(cell, [])

    # -- per-primitive damage -------------------------------------------
    def primitive_damage(self, name: str) -> float:
        ir = self.ir
        node_id = ir.id_of(name)
        kind = ir.kinds[node_id]
        if kind == IR_SEGMENT:
            if ir.roles[node_id] == IR_ROLE_DATA:
                return self.damage_of_fault(SegmentBreak(name))
            return self.damage_of_fault(ControlCellBreak(name))
        if kind == IR_MUX:
            values = [
                self.damage_of_fault(MuxStuck(name, port))
                for port in ir.stuck_values(node_id)
            ]
            return _aggregate(self.policy, values)
        return 0.0

    def primitive_damages(self, names: Sequence[str]) -> List[float]:
        """``d_j`` for each named primitive (the engine's chunk query)."""
        return [self.primitive_damage(name) for name in names]

    def report(self, sites: str = "all") -> DamageReport:
        """Per-primitive damage report.

        ``sites="all"`` (default) sums Eq. 2 over every scan primitive;
        ``sites="control"`` restricts the sum to the control primitives
        (muxes and configuration cells) — the accounting under which only
        defects in the access mechanism itself count, with data-register
        defects considered the instruments' own concern; ``sites="mux"``
        counts only the multiplexers' stuck-at-id faults — the narrowest
        reading of Sec. IV-B.2, and the only accounting under which the
        paper's published Max. Damage magnitudes are arithmetically
        consistent (see EXPERIMENTS.md).
        """
        evaluated, skipped = partition_primitives(self.ir, sites)
        return assemble_report(
            self.network,
            self.policy,
            evaluated,
            self.primitive_damages(evaluated),
            skipped,
        )

    def damage_of_fault(self, fault: Fault) -> float:
        raise NotImplementedError

    def cell_stuck_ports(self, cell: str) -> Dict[str, int]:
        """Assumed stuck value per mux when ``cell`` is broken.

        Each controlled mux is pinned to the port whose *marginal* damage
        on top of the cell's break effect is highest (worst case over the
        unknown state the defect leaves the address port in); ties resolve
        to the lowest port.
        """
        raise NotImplementedError

    def worst_stuck_port(self, mux: str) -> int:
        """The stuck value of ``mux`` with the highest standalone damage
        (lowest port wins ties)."""
        best_port = 0
        best_damage = -1.0
        for port in self.ir.stuck_values(self.ir.id_of(mux)):
            damage = self.damage_of_fault(MuxStuck(mux, port))
            if damage > best_damage:
                best_damage = damage
                best_port = port
        return best_port


class ExplicitDamageAnalysis(_AnalysisBase):
    """Reference implementation via per-fault effect sets."""

    def __init__(self, network, spec, tree=None, policy="max"):
        super().__init__(network, spec, tree=tree, policy=policy)
        self._do_of: Dict[str, float] = {}
        self._ds_of: Dict[str, float] = {}
        for segment in network.segments():
            if segment.instrument is not None:
                do_w, ds_w = spec.weight(segment.instrument)
                self._do_of[segment.name] = do_w
                self._ds_of[segment.name] = ds_w

    def damage_of_fault(self, fault: Fault) -> float:
        if isinstance(fault, SegmentBreak):
            effect = segment_break_effect(self.tree, fault.segment)
        elif isinstance(fault, MuxStuck):
            effect = mux_stuck_effect(self.tree, fault.mux, fault.port)
        elif isinstance(fault, ControlCellBreak):
            effect = control_cell_break_effect(
                self.tree, fault.cell, self.cell_stuck_ports(fault.cell)
            )
        else:
            raise ReproError(f"unknown fault {fault!r}")
        return effect.damage(self._do_of, self._ds_of)

    def cell_stuck_ports(self, cell: str) -> Dict[str, int]:
        break_effect = segment_break_effect(self.tree, cell)
        base = break_effect.damage(self._do_of, self._ds_of)
        ports: Dict[str, int] = {}
        for mux in self.muxes_of_cell(cell):
            best_port = 0
            best_marginal = -1.0
            for port in self.ir.stuck_values(self.ir.id_of(mux)):
                stuck = mux_stuck_effect(self.tree, mux, port)
                marginal = (
                    break_effect.union(stuck).damage(self._do_of, self._ds_of)
                    - base
                )
                if marginal > best_marginal:
                    best_marginal = marginal
                    best_port = port
            ports[mux] = best_port
        return ports


class FastDamageAnalysis(_AnalysisBase):
    """Scalable implementation via serial prefix sums (Sec. IV-C).

    All per-leaf quantities reduce to range sums over the serial leaf
    order: a subtree covers a contiguous index range, the innermost
    parallel branch around a leaf is such a range, and the "serially
    before / after within the branch" partition of a break fault is a pair
    of sub-ranges.  Preprocessing is O(N) numpy over the tree's arrays —
    weight gather, prefix sums, every leaf's break damage and every mux
    branch's weight — after which a break is a lookup and a stuck or
    cell-break fault reads its muxes' branch tables.
    """

    route = "dp"

    def __init__(self, network, spec, tree=None, policy="max"):
        super().__init__(network, spec, tree=tree, policy=policy)
        tree = self.tree
        if tree.is_virtualized:
            raise ReproError(
                "the aggregate analysis cannot run on a virtualized "
                "(duplicated-leaf) tree — use "
                "repro.analysis.GraphDamageAnalysis for non-SP networks"
            )
        do_id, ds_id = self.ir.weight_vectors(spec)
        # a wire leaf (node -1) gathers the zero appended at the end
        do_w = np.append(do_id, 0.0)[tree.leaf_node]
        ds_w = np.append(ds_id, 0.0)[tree.leaf_node]
        prefix_do = np.concatenate(([0.0], np.cumsum(do_w)))
        prefix_ds = np.concatenate(([0.0], np.cumsum(ds_w)))
        branch_lo, branch_hi = tree.leaf_branch_ranges()
        index = np.arange(len(do_w))
        # Break damage of every leaf: its own weight, the observability
        # serially before it and the settability after it in its branch.
        self._break_vector = (
            (do_w + ds_w)
            + (prefix_do[index] - prefix_do[branch_lo])
            + (prefix_ds[branch_hi + 1] - prefix_ds[index + 1])
        )
        self._break = self._break_vector.tolist()
        entry_lo, entry_hi = tree.branch_lo, tree.branch_hi
        self._entry_weight = (
            (prefix_do[entry_hi + 1] - prefix_do[entry_lo])
            + (prefix_ds[entry_hi + 1] - prefix_ds[entry_lo])
        ).tolist()
        self._own = (do_w + ds_w).tolist()
        self._prefix_do = prefix_do.tolist()
        self._prefix_ds = prefix_ds.tolist()
        self._branch_lo = branch_lo.tolist()
        self._branch_hi = branch_hi.tolist()
        self._serial = tree.serial_index
        self._stuck_cache: Dict[int, Dict[int, float]] = {}
        # Memoization shared across faults: the same dead intervals and
        # per-cell stuck assignments recur for every fault of a mux (and
        # for every mux under a cell), so each is computed once.  Keys are
        # compiled-IR node ids; ``memo_counters`` feeds the engine's
        # --stats output.
        self._dead_memo: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        self._cell_ports_memo: Dict[int, Dict[str, int]] = {}
        self.memo_counters: Dict[str, int] = {
            "stuck_hits": 0,
            "stuck_misses": 0,
            "dead_hits": 0,
            "dead_misses": 0,
            "cell_ports_hits": 0,
            "cell_ports_misses": 0,
        }

    def _leaf(self, name: str) -> int:
        """Serial index of a primitive's leaf."""
        index = int(self._serial[self.ir.id_of(name)])
        if index < 0:
            raise ReproError(
                f"primitive {name!r} has no decomposition-tree leaf"
            )
        return index

    def _entries(self, mux: str) -> range:
        """Branch-table entries of a mux leaf."""
        indptr = self.tree.branch_indptr
        index = self._leaf(mux)
        entries = range(indptr[index], indptr[index + 1])
        if not entries:
            raise ReproError(f"{mux!r} is not a mux leaf in the tree")
        return entries

    def _entry_ports(self, entry: int) -> List[int]:
        tree = self.tree
        return tree.ports[
            tree.port_indptr[entry] : tree.port_indptr[entry + 1]
        ].tolist()

    # -- range helpers ----------------------------------------------------
    def _range_do(self, lo: int, hi: int) -> float:
        if lo > hi:
            return 0.0
        return self._prefix_do[hi + 1] - self._prefix_do[lo]

    def _range_ds(self, lo: int, hi: int) -> float:
        if lo > hi:
            return 0.0
        return self._prefix_ds[hi + 1] - self._prefix_ds[lo]

    # -- fault damages ------------------------------------------------------
    def _stuck_damages(self, mux: str) -> Dict[int, float]:
        mux_id = self.ir.id_of(mux)
        cached = self._stuck_cache.get(mux_id)
        if cached is not None:
            self.memo_counters["stuck_hits"] += 1
            return cached
        self.memo_counters["stuck_misses"] += 1
        entries = self._entries(mux)
        weights = [self._entry_weight[entry] for entry in entries]
        total = float(sum(weights))
        damages = {
            port: total - weight
            for entry, weight in zip(entries, weights)
            for port in self._entry_ports(entry)
        }
        self._stuck_cache[mux_id] = damages
        return damages

    def _marginal_extra(
        self, dead_lo: int, dead_hi: int, index: int, lo: int, hi: int
    ) -> float:
        """Extra damage of a dead interval on top of a break at ``index``
        whose branch is ``[lo, hi]``: the interval's full weight minus what
        the break already charged — settability inside the after-part,
        observability inside the before-part, both for the cell itself."""
        extra = self._range_do(dead_lo, dead_hi) + self._range_ds(
            dead_lo, dead_hi
        )
        extra -= self._range_ds(max(dead_lo, index + 1), min(dead_hi, hi))
        extra -= self._range_do(max(dead_lo, lo), min(dead_hi, index - 1))
        if dead_lo <= index <= dead_hi:
            extra -= self._own[index]
        return extra

    def _dead_intervals(self, mux: str, port: int) -> List[Tuple[int, int]]:
        key = (self.ir.id_of(mux), port)
        cached = self._dead_memo.get(key)
        if cached is not None:
            self.memo_counters["dead_hits"] += 1
            return cached
        self.memo_counters["dead_misses"] += 1
        tree = self.tree
        intervals = [
            (int(tree.branch_lo[entry]), int(tree.branch_hi[entry]))
            for entry in self._entries(mux)
            if port not in self._entry_ports(entry)
            and tree.branch_lo[entry] <= tree.branch_hi[entry]
        ]
        self._dead_memo[key] = intervals
        return intervals

    def cell_stuck_ports(self, cell: str) -> Dict[str, int]:
        cell_id = self.ir.id_of(cell)
        cached = self._cell_ports_memo.get(cell_id)
        if cached is not None:
            self.memo_counters["cell_ports_hits"] += 1
            return cached
        self.memo_counters["cell_ports_misses"] += 1
        index = self._leaf(cell)
        lo = self._branch_lo[index]
        hi = self._branch_hi[index]
        ports: Dict[str, int] = {}
        for mux in self.muxes_of_cell(cell):
            best_port = 0
            best_marginal = -1.0
            for port in self.ir.stuck_values(self.ir.id_of(mux)):
                marginal = sum(
                    self._marginal_extra(dead_lo, dead_hi, index, lo, hi)
                    for dead_lo, dead_hi in self._dead_intervals(mux, port)
                )
                if marginal > best_marginal:
                    best_marginal = marginal
                    best_port = port
            ports[mux] = best_port
        self._cell_ports_memo[cell_id] = ports
        return ports

    def _cell_break_damage(self, cell: str) -> float:
        index = self._leaf(cell)
        damage = self._break[index]
        lo = self._branch_lo[index]
        hi = self._branch_hi[index]

        # Dead-branch intervals of every controlled mux at its worst
        # marginal stuck value, deduplicated to maximal intervals (subtree
        # ranges nest or are disjoint, never partially overlap).
        intervals: List[Tuple[int, int]] = []
        for mux, port in self.cell_stuck_ports(cell).items():
            intervals.extend(self._dead_intervals(mux, port))
        for dead_lo, dead_hi in _maximal_intervals(intervals):
            damage += self._marginal_extra(dead_lo, dead_hi, index, lo, hi)
        return damage

    def damage_of_fault(self, fault: Fault) -> float:
        if isinstance(fault, SegmentBreak):
            return self._break[self._leaf(fault.segment)]
        if isinstance(fault, MuxStuck):
            damages = self._stuck_damages(fault.mux)
            try:
                return damages[fault.port]
            except KeyError:
                raise ReproError(
                    f"mux {fault.mux!r} has no port {fault.port}"
                ) from None
        if isinstance(fault, ControlCellBreak):
            return self._cell_break_damage(fault.cell)
        raise ReproError(f"unknown fault {fault!r}")

    def primitive_damages(self, names: Sequence[str]) -> List[float]:
        """``d_j`` of each named primitive: data segments straight from
        the break vector, cells and muxes through their branch tables."""
        ir = self.ir
        ids = np.array([ir.id_of(name) for name in names], dtype=np.int64)
        if not len(ids):
            return []
        kinds = np.frombuffer(ir.kinds, dtype=np.uint8)[ids]
        data = (kinds == IR_SEGMENT) & (
            np.frombuffer(ir.roles, dtype=np.int8)[ids] == IR_ROLE_DATA
        )
        slots = self._serial[ids[data]]
        for position in np.flatnonzero(data)[slots < 0].tolist():
            self._leaf(names[position])  # raises: no leaf
        damages = np.zeros(len(ids))
        damages[data] = self._break_vector[slots]
        result = damages.tolist()
        for position in np.flatnonzero(~data).tolist():
            result[position] = self.primitive_damage(names[position])
        return result

    def damage_vector(self, faults: Sequence[Fault]) -> np.ndarray:
        """Eq. 1 damage of every fault in ``faults``, evaluated
        independently — the call shape of
        :meth:`repro.analysis.BatchFaultAnalysis.damage_vector`."""
        return np.array(
            [self.damage_of_fault(fault) for fault in faults], dtype=float
        )

    def worst_stuck_port(self, mux: str) -> int:
        damages = self._stuck_damages(mux)
        best_port = min(damages)
        for port in sorted(damages):
            if damages[port] > damages[best_port]:
                best_port = port
        return best_port


def _maximal_intervals(
    intervals: List[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Drop intervals nested inside another (subtree ranges never partially
    overlap, so this yields a disjoint cover of the union)."""
    result: List[Tuple[int, int]] = []
    for lo, hi in sorted(intervals, key=lambda pair: (pair[0], -pair[1])):
        if result and result[-1][0] <= lo and hi <= result[-1][1]:
            continue
        result.append((lo, hi))
    return result


def analyze_damage(
    network: RsnNetwork,
    spec,
    tree: Optional[SPTree] = None,
    policy: str = "max",
    sites: str = "all",
) -> DamageReport:
    """Run the criticality analysis and return its :class:`DamageReport`.

    The analysis is the one :func:`repro.analysis.route_analysis` picks:
    the O(N) DP on a series-parallel network (or when ``tree`` is
    given), the bitset reachability kernel otherwise.
    """
    from .route import route_analysis

    return route_analysis(network, spec, tree=tree, policy=policy).report(
        sites=sites
    )
