"""SPEA2 — the Strength Pareto Evolutionary Algorithm 2 (Zitzler et al.).

The paper selects hardening candidates with SPEA-2 as implemented in the
Opt4J framework; this is a from-scratch NumPy implementation of the
published algorithm:

1. *strength* ``S(i)``: how many individuals of population ∪ archive the
   individual dominates;
2. *raw fitness* ``R(j)``: the summed strengths of everybody dominating
   ``j`` (0 for non-dominated individuals);
3. *density* ``D(j) = 1 / (σ_k + 2)`` with ``σ_k`` the distance to the
   k-th nearest neighbour in (normalized) objective space,
   ``k = sqrt(|P| + |A|)``;
4. fitness ``F = R + D``; environmental selection keeps all non-dominated
   individuals, truncating with the iterative nearest-neighbour rule when
   too many and filling with the best dominated ones when too few;
5. binary-tournament mating on the archive, one-point crossover and
   independent bit mutation (Sec. V / Sec. VI parameters).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

import numpy as np

from ..errors import OptimizationError
from ..obs.trace import span
from .operators import (
    binary_tournament,
    bit_mutation,
    init_population,
    one_point_crossover,
)
from .pareto import (
    _BLOCK_CELLS,
    _distances,
    _domination_rows,
    hypervolume_2d,
    normalize,
)
from .problem import Problem, check_problem
from .result import EAResult


class SPEA2:
    """The paper's optimizer (Sec. V)."""

    def __init__(
        self,
        problem: Problem,
        population_size: int = 100,
        archive_size: Optional[int] = None,
        p_crossover: float = 0.95,
        p_mutation: float = 0.01,
        init: str = "diverse",
        seed: int = 0,
    ):
        check_problem(problem)
        if population_size < 2:
            raise OptimizationError("population_size must be >= 2")
        self.problem = problem
        self.population_size = int(population_size)
        self.archive_size = int(archive_size or population_size)
        self.p_crossover = float(p_crossover)
        self.p_mutation = float(p_mutation)
        self.init = init
        self.seed = int(seed)

    # ------------------------------------------------------------------
    def run(
        self,
        generations: int,
        early_stop: Optional[Callable[[List[Dict[str, float]]], bool]] = None,
    ) -> EAResult:
        """Evolve for ``generations`` and return the final archive.

        ``early_stop`` receives the history after each generation and may
        return True to terminate early (e.g. on hypervolume stagnation).
        """
        rng = np.random.default_rng(self.seed)
        population = init_population(
            rng, self.population_size, self.problem.n_vars, style=self.init
        )
        pop_objs = self.problem.evaluate(population)
        n_evaluations = len(population)

        archive = np.empty((0, self.problem.n_vars), dtype=bool)
        archive_objs = np.empty((0, pop_objs.shape[1]), dtype=float)
        reference = tuple(pop_objs.max(axis=0) * 1.05 + 1e-9)

        history: List[Dict[str, float]] = []
        generation = 0
        for generation in range(1, generations + 1):
            with span(
                "ea.generation", generation=generation
            ) as gen_span:
                union = np.vstack([population, archive])
                union_objs = np.vstack([pop_objs, archive_objs])
                fitness, norm = _fitness(union_objs)

                keep = _environmental_selection(
                    fitness, norm, self.archive_size
                )
                archive = union[keep]
                archive_objs = union_objs[keep]
                archive_fitness = fitness[keep]

                history.append(
                    {
                        "generation": generation,
                        "archive_size": len(keep),
                        "hypervolume": hypervolume_2d(
                            archive_objs, reference
                        )
                        if archive_objs.shape[1] == 2
                        else 0.0,
                        "best_obj0": float(archive_objs[:, 0].min()),
                        "best_obj1": float(archive_objs[:, 1].min())
                        if archive_objs.shape[1] > 1
                        else 0.0,
                    }
                )
                gen_span.set_attribute("archive_size", len(keep))
                if early_stop is not None and early_stop(history):
                    break
                if generation == generations:
                    break

                parents = archive[
                    binary_tournament(
                        rng,
                        archive_fitness,
                        self._even(self.population_size),
                    )
                ]
                offspring = one_point_crossover(
                    rng, parents, self.p_crossover
                )
                population = bit_mutation(
                    rng, offspring, self.p_mutation
                )[: self.population_size]
                pop_objs = self.problem.evaluate(population)
                n_evaluations += len(population)

        return EAResult(
            algorithm="spea2",
            genomes=archive,
            objectives=archive_objs,
            history=history,
            generations=generation,
            n_evaluations=n_evaluations,
            seed=self.seed,
            reference=reference,
        )

    @staticmethod
    def _even(count: int) -> int:
        return count + (count % 2)


# ----------------------------------------------------------------------
# fitness assignment and environmental selection
# ----------------------------------------------------------------------
def _fitness(objectives: np.ndarray):
    """(fitness, normalized objectives) for population ∪ archive.

    Both the domination structure and the k-nearest-neighbour density are
    computed in row blocks so nothing larger than ``block * count`` is ever
    materialized; strengths are integer counts, so the blocked raw-fitness
    sums are exact (bit-identical to the full-matrix formulation).
    """
    objs = np.asarray(objectives, dtype=float)
    count = len(objs)
    norm = normalize(objs)
    block = max(1, _BLOCK_CELLS // max(1, count))
    k = min(count - 1, max(1, int(math.sqrt(count))))
    raw = np.zeros(count)
    sigma_k = np.empty(count)
    for lo in range(0, count, block):
        hi = min(count, lo + block)
        # a block's strengths are its own row sums: one build per row
        rows = _domination_rows(objs, lo, hi)
        raw += rows.sum(axis=1).astype(float) @ rows
        distances = _distances(norm[lo:hi], norm)
        # partition places the exact k-th order statistic at column k,
        # identical to the former full sort.
        sigma_k[lo:hi] = np.partition(distances, k, axis=1)[:, k]

    density = 1.0 / (sigma_k + 2.0)
    return raw + density, norm


def _environmental_selection(
    fitness: np.ndarray, norm: np.ndarray, size: int
) -> np.ndarray:
    """Indices of the next archive (SPEA2 rules).

    The pairwise distance matrix is only built over the non-dominated
    subset, and only when truncation is actually needed — the common
    no-truncation generations never pay the O(n²) memory.
    """
    non_dominated = np.flatnonzero(fitness < 1.0)
    if len(non_dominated) > size:
        sub = norm[non_dominated]
        distances = _distances(sub, sub)
        keep = _truncate(np.arange(len(non_dominated)), distances, size)
        return non_dominated[keep]
    if len(non_dominated) < size:
        dominated = np.flatnonzero(fitness >= 1.0)
        fill = dominated[np.argsort(fitness[dominated], kind="stable")]
        extra = fill[: size - len(non_dominated)]
        return np.concatenate([non_dominated, extra])
    return non_dominated


def _truncate(
    candidates: np.ndarray, distances: np.ndarray, size: int
) -> np.ndarray:
    """Iteratively drop the individual with the lexicographically smallest
    sorted-distance vector to the remaining set (the SPEA2 truncation that
    preserves boundary points)."""
    alive = list(candidates)
    while len(alive) > size:
        sub = distances[np.ix_(alive, alive)]
        ordered = np.sort(sub, axis=1)[:, 1:]  # drop the self-distance
        # np.lexsort sorts by the *last* key first; reverse the columns so
        # the nearest-neighbour distance is the primary key.
        victim = int(np.lexsort(ordered[:, ::-1].T)[0])
        alive.pop(victim)
    return np.asarray(alive, dtype=int)
