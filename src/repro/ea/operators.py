"""Variation and selection operators (Sec. V, step 6).

The paper's mating step uses exactly two operators:

* *individual bit mutation* — every bit flips independently with a small
  probability (0.01 in the experiments);
* *standard one-point crossover* — with probability 0.95 a cut point is
  drawn, the first offspring takes ``n`` bits from the first parent and the
  remaining ``r - n`` from the second, the second offspring vice versa.

All operators work on ``(P, r)`` boolean population matrices.
"""

from __future__ import annotations

import numpy as np

from ..errors import OptimizationError


# Above this many cells, random draws are generated row-block-wise (and
# mutation switches to index sampling) to avoid gigabyte-sized transient
# float arrays on million-variable genomes.
_BLOCK_CELLS = 8_000_000


def init_population(
    rng: np.random.Generator,
    population_size: int,
    n_vars: int,
    style: str = "diverse",
) -> np.ndarray:
    """Generate the initial population (Sec. V, step 2).

    ``diverse`` draws a hardening density per individual first, spreading
    the initial genes over the whole cost range; ``uniform`` uses an
    unbiased coin per bit.
    """
    if population_size < 2:
        raise OptimizationError("population size must be >= 2")
    if style == "uniform":
        density = np.full((population_size, 1), 0.5)
    elif style == "diverse":
        density = rng.random((population_size, 1))
    else:
        raise OptimizationError(f"unknown init style {style!r}")
    population = np.empty((population_size, n_vars), dtype=bool)
    rows_per_block = max(1, _BLOCK_CELLS // max(1, n_vars))
    for start in range(0, population_size, rows_per_block):
        stop = min(population_size, start + rows_per_block)
        population[start:stop] = (
            rng.random((stop - start, n_vars)) < density[start:stop]
        )
    return population


def one_point_crossover(
    rng: np.random.Generator,
    parents: np.ndarray,
    p_crossover: float,
) -> np.ndarray:
    """Pair up consecutive parents and recombine with one cut point each.

    ``parents`` has an even number of rows; returns the offspring matrix of
    the same shape.
    """
    parents = np.asarray(parents, dtype=bool)
    count, n_vars = parents.shape
    if count % 2:
        raise OptimizationError("crossover needs an even number of parents")
    offspring = parents.copy()
    pairs = count // 2
    if n_vars < 2 or pairs == 0:
        return offspring
    crossed = rng.random(pairs) < p_crossover
    points = rng.integers(1, n_vars, size=pairs)
    for pair, point in zip(
        np.flatnonzero(crossed).tolist(), points[crossed].tolist()
    ):
        tails = offspring[2 * pair : 2 * pair + 2, point:]
        tails[...] = tails[::-1].copy()
    return offspring


def bit_mutation(
    rng: np.random.Generator,
    genomes: np.ndarray,
    p_mutation: float,
) -> np.ndarray:
    """Independent per-bit flips with probability ``p_mutation``.

    For huge genome matrices the flip mask is realized by sampling the
    binomially-distributed *number* of flips and drawing their positions
    (with replacement — coinciding draws cancel, lowering the effective
    rate by ~p/2, which is negligible at the paper's 0.01).
    """
    genomes = np.asarray(genomes, dtype=bool)
    if genomes.size <= _BLOCK_CELLS or p_mutation > 0.25:
        flips = rng.random(genomes.shape) < p_mutation
        return genomes ^ flips
    mutated = genomes.copy()
    count = rng.binomial(genomes.size, p_mutation)
    if count:
        positions = rng.integers(0, genomes.size, size=count)
        # positions may repeat: an even number of hits cancels out
        unique, multiplicity = np.unique(positions, return_counts=True)
        odd = unique[multiplicity % 2 == 1]
        flat = mutated.reshape(-1)
        flat[odd] = ~flat[odd]
    return mutated


def binary_tournament(
    rng: np.random.Generator,
    fitness: np.ndarray,
    count: int,
) -> np.ndarray:
    """Indices of ``count`` winners of binary tournaments (lower fitness
    wins, ties decided by the draw order)."""
    n = len(fitness)
    first = rng.integers(0, n, size=count)
    second = rng.integers(0, n, size=count)
    return np.where(fitness[first] <= fitness[second], first, second)
