"""The Table-I harness: regenerate every row of the paper's evaluation.

For one design the pipeline is the paper's Sec. VI procedure:

1. build the (count-exact) benchmark network;
2. draw the randomized explicit specification — 70 % weighted for
   observation, 70 % for control, 10 % observation-critical, 10 %
   control-critical;
3. initial assessment: Max. Cost (all candidates hardened, column 4) and
   Max. Damage (nothing hardened, column 5);
4. run SPEA-2 with the paper's operator parameters for the design's
   generation budget (column 6);
5. extract the two solutions: minimize cost at damage <= 10 % of Max.
   Damage (columns 7–8) and minimize damage at cost <= 10 % of Max. Cost
   (columns 9–10); record the wall-clock runtime (column 11).

``scale_generations`` < 1 shrinks the generation budget proportionally for
time-boxed runs (the EA problem is linear, so fronts converge far earlier
than the paper's budgets); the scaling used is recorded in the row.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Iterable, List, Optional

from ..core.hardening import SelectiveHardening, default_population_size
from ..spec.cost_model import CostModel
from ..spec.criticality import spec_for_network
from .designs import DESIGNS, DesignInfo, get_design


class Table1Row:
    """One measured row plus the paper's reference values."""

    def __init__(self, design: DesignInfo):
        self.design = design
        self.n_segments = design.n_segments
        self.n_muxes = design.n_muxes
        self.max_cost = 0.0
        self.max_damage = 0.0
        self.generations = 0
        self.min_cost_cost: Optional[float] = None
        self.min_cost_damage: Optional[float] = None
        self.min_damage_cost: Optional[float] = None
        self.min_damage_damage: Optional[float] = None
        self.greedy_min_cost_cost: Optional[float] = None
        self.greedy_min_damage_damage: Optional[float] = None
        self.runtime_seconds = 0.0
        self.front_size = 0
        self.analysis_stats: Optional[Dict] = None
        #: EA run-cache outcome ("disabled" | "hit" | "miss").
        self.ea_cache: Optional[str] = None
        self.objective: str = "linear"
        #: Fault-set objective memo efficiency (None under "linear"):
        #: genome evaluations requested, memo hits among them, unique
        #: states actually swept through the kernel.
        self.ea_evaluations: Optional[int] = None
        self.ea_memo_hits: Optional[int] = None
        self.ea_states_swept: Optional[int] = None

    @property
    def name(self) -> str:
        return self.design.name

    def as_dict(self) -> Dict:
        return {
            "design": self.name,
            "n_segments": self.n_segments,
            "n_muxes": self.n_muxes,
            "max_cost": self.max_cost,
            "max_damage": self.max_damage,
            "generations": self.generations,
            "min_cost": [self.min_cost_cost, self.min_cost_damage],
            "min_damage": [self.min_damage_cost, self.min_damage_damage],
            "greedy": [
                self.greedy_min_cost_cost,
                self.greedy_min_damage_damage,
            ],
            "runtime_seconds": self.runtime_seconds,
            "front_size": self.front_size,
            "analysis_stats": self.analysis_stats,
            "ea_cache": self.ea_cache,
            "objective": self.objective,
            "ea_evaluations": self.ea_evaluations,
            "ea_memo_hits": self.ea_memo_hits,
            "ea_states_swept": self.ea_states_swept,
            "paper": {
                "max_cost": self.design.paper.max_cost,
                "max_damage": self.design.paper.max_damage,
                "generations": self.design.paper.generations,
                "min_cost": [
                    self.design.paper.min_cost_cost,
                    self.design.paper.min_cost_damage,
                ],
                "min_damage": [
                    self.design.paper.min_damage_cost,
                    self.design.paper.min_damage_damage,
                ],
                "runtime": self.design.paper.runtime,
            },
        }


def run_design(
    name: str,
    scale_generations: float = 1.0,
    generations: Optional[int] = None,
    population_size: Optional[int] = None,
    algorithm: str = "spea2",
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    damage_fraction: float = 0.10,
    cost_fraction: float = 0.10,
    with_greedy: bool = True,
    hardenable: str = "all",
    damage_sites: str = "all",
    cache_dir: Optional[str] = None,
    chunk_lanes: int = 64,
    max_cache_mb: Optional[float] = None,
    objective: str = "linear",
    max_lane_mb: Optional[float] = 64.0,
) -> Table1Row:
    """Run the full Table-I pipeline for one design."""
    design = get_design(name)
    row = Table1Row(design)
    row.objective = objective

    started = time.perf_counter()
    network = design.build()
    spec = spec_for_network(network, seed=seed)
    synthesis = SelectiveHardening(
        network,
        spec=spec,
        cost_model=cost_model,
        seed=seed,
        hardenable=hardenable,
        damage_sites=damage_sites,
        cache_dir=cache_dir,
        chunk_lanes=chunk_lanes,
        max_cache_mb=max_cache_mb,
        objective=objective,
        max_lane_mb=max_lane_mb,
    )
    row.max_cost = synthesis.max_cost
    row.max_damage = synthesis.max_damage

    if generations is None:
        generations = max(
            1, int(math.ceil(design.paper.generations * scale_generations))
        )
    row.generations = generations
    if population_size is None:
        population_size = default_population_size(network)

    result = synthesis.optimize(
        generations=generations,
        population_size=population_size,
        algorithm=algorithm,
        seed=seed,
    )
    row.ea_cache = synthesis.last_ea_cache
    min_cost = result.min_cost_solution(damage_fraction)
    if min_cost is not None:
        row.min_cost_cost = min_cost.cost
        row.min_cost_damage = min_cost.damage
    min_damage = result.min_damage_solution(cost_fraction)
    if min_damage is not None:
        row.min_damage_cost = min_damage.cost
        row.min_damage_damage = min_damage.damage
    row.front_size = len(result.objectives)

    if with_greedy:
        greedy = synthesis.greedy_result(
            damage_fraction=damage_fraction, cost_fraction=cost_fraction
        )
        greedy_min_cost = greedy.min_cost_solution(damage_fraction)
        if greedy_min_cost is not None:
            row.greedy_min_cost_cost = greedy_min_cost.cost
        greedy_min_damage = greedy.min_damage_solution(cost_fraction)
        if greedy_min_damage is not None:
            row.greedy_min_damage_damage = greedy_min_damage.damage

    row.runtime_seconds = time.perf_counter() - started
    if synthesis.analysis_stats is not None:
        row.analysis_stats = synthesis.analysis_stats.as_dict()
    counters = getattr(synthesis.problem, "counters", None)
    if counters is not None:
        row.ea_evaluations = int(counters["evaluations"])
        row.ea_memo_hits = int(counters["memo_hits"])
        row.ea_states_swept = int(counters["states_swept"])
    return row


def run_table(
    names: Optional[Iterable[str]] = None,
    scale_generations: float = 1.0,
    seed: int = 0,
    algorithm: str = "spea2",
    verbose: bool = False,
    **kwargs,
) -> List[Table1Row]:
    """Run the pipeline for a list of designs (default: all 24)."""
    rows = []
    for name in names if names is not None else DESIGNS:
        row = run_design(
            name,
            scale_generations=scale_generations,
            seed=seed,
            algorithm=algorithm,
            **kwargs,
        )
        rows.append(row)
        if verbose:
            from .report import format_row

            print(format_row(row), flush=True)
    return rows
