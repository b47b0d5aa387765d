"""Column-wise selection kernels against the broadcast forms they replace.

``_domination_rows``, ``domination_matrix`` and ``_distances`` loop over
the objective columns instead of building ``(k, n, m)`` temporaries.  The
original broadcast formulations live here only, as references, and every
result must be ``==``-identical to them (ties, duplicate points and
``m`` in {1, 2, 3} included).  One-point crossover swaps tails instead of
building a full-width mask; its reference keeps the old ``np.where`` form
and both must consume the generator identically.
"""

import math

import numpy as np
import pytest

import repro.ea.operators as ops
import repro.ea.pareto as pareto
import repro.ea.spea2 as spea2
from repro.ea.operators import one_point_crossover
from repro.ea.pareto import (
    _distances,
    _domination_rows,
    domination_matrix,
    fast_non_dominated_sort,
    normalize,
)
from repro.ea.spea2 import _environmental_selection, _fitness, _truncate

SEEDS = range(6)
N_OBJECTIVES = [1, 2, 3]


def broadcast_domination_rows(objs, lo, hi):
    less_equal = np.all(objs[lo:hi, None, :] <= objs[None, :, :], axis=2)
    strictly_less = np.any(objs[lo:hi, None, :] < objs[None, :, :], axis=2)
    return less_equal & strictly_less


def broadcast_distances(a, b):
    deltas = a[:, None, :] - b[None, :, :]
    return np.sqrt((deltas * deltas).sum(axis=2))


def sample_objectives(seed, m, count=41):
    """Objectives with many ties (small integer grid), exact duplicate
    rows, and a continuous part."""
    rng = np.random.default_rng(seed)
    objs = np.concatenate(
        [
            rng.integers(0, 4, size=(count // 2, m)).astype(float),
            rng.random((count - count // 2, m)) * 10.0,
        ]
    )
    objs[-3:] = objs[:3]  # duplicated points
    return objs[rng.permutation(count)]


@pytest.mark.parametrize("m", N_OBJECTIVES)
@pytest.mark.parametrize("seed", SEEDS)
class TestAgainstBroadcast:
    def test_domination_matrix(self, seed, m):
        objs = sample_objectives(seed, m)
        expected = broadcast_domination_rows(objs, 0, len(objs))
        assert np.array_equal(domination_matrix(objs), expected)

    def test_domination_rows_blocks(self, seed, m):
        objs = sample_objectives(seed, m)
        for lo, hi in [(0, 1), (3, 17), (17, 41), (40, 41), (0, 41)]:
            rows = _domination_rows(objs, lo, hi)
            assert rows.dtype == bool
            assert np.array_equal(
                rows, broadcast_domination_rows(objs, lo, hi)
            )

    def test_distances(self, seed, m):
        objs = normalize(sample_objectives(seed, m))
        other = normalize(sample_objectives(seed + 100, m, count=13))
        assert np.array_equal(
            _distances(objs, other), broadcast_distances(objs, other)
        )
        square = _distances(objs, objs)
        assert np.array_equal(square, broadcast_distances(objs, objs))
        assert (np.diag(square) == 0.0).all()


def naive_fitness(objs):
    """SPEA-2 fitness from the full broadcast matrices."""
    matrix = broadcast_domination_rows(objs, 0, len(objs))
    strength = matrix.sum(axis=1).astype(float)
    raw = (strength[:, None] * matrix).sum(axis=0)
    distances = broadcast_distances(normalize(objs), normalize(objs))
    k = min(len(objs) - 1, max(1, int(math.sqrt(len(objs)))))
    sigma_k = np.sort(distances, axis=1)[:, k]
    return raw + 1.0 / (sigma_k + 2.0)


@pytest.mark.parametrize("block_rows", [1, 5, None])
@pytest.mark.parametrize("m", N_OBJECTIVES)
def test_fitness_matches_broadcast(m, block_rows, monkeypatch):
    objs = sample_objectives(m, m)
    if block_rows is not None:
        monkeypatch.setattr(spea2, "_BLOCK_CELLS", block_rows * len(objs))
    fitness, _ = _fitness(objs)
    assert np.array_equal(fitness, naive_fitness(objs))


def test_non_dominated_sort_multi_block(monkeypatch):
    objs = sample_objectives(0, 2, count=60)
    whole = fast_non_dominated_sort(objs)
    monkeypatch.setattr(pareto, "_BLOCK_CELLS", 4 * len(objs))
    blocked = fast_non_dominated_sort(objs)
    assert [f.tolist() for f in whole] == [f.tolist() for f in blocked]
    # every front is mutually non-dominated and covers all points
    assert sorted(np.concatenate(blocked).tolist()) == list(range(60))
    for front in blocked:
        assert not broadcast_domination_rows(
            objs[front], 0, len(front)
        ).any()


def test_truncation_distances_match_broadcast():
    """Environmental selection truncates with the column-wise distances;
    the kept archive equals the one chosen from broadcast distances."""
    rng = np.random.default_rng(3)
    angles = np.sort(rng.random(40)) * (np.pi / 2)
    objs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    objs[5] = objs[6]  # a duplicate on the front
    fitness, norm = _fitness(objs)
    keep = _environmental_selection(fitness, norm, 15)
    non_dominated = np.flatnonzero(fitness < 1.0)
    sub = norm[non_dominated]
    expected = non_dominated[
        _truncate(
            np.arange(len(non_dominated)), broadcast_distances(sub, sub), 15
        )
    ]
    assert np.array_equal(keep, expected)


# ----------------------------------------------------------------------
# one-point crossover
# ----------------------------------------------------------------------
def mask_crossover(rng, parents, p_crossover):
    """The former full-width ``np.where`` formulation, row-blocked by the
    operators' ``_BLOCK_CELLS``."""
    parents = np.asarray(parents, dtype=bool)
    count, n_vars = parents.shape
    offspring = parents.copy()
    pairs = count // 2
    if n_vars < 2 or pairs == 0:
        return offspring
    crossed = rng.random(pairs) < p_crossover
    points = rng.integers(1, n_vars, size=pairs)
    columns = np.arange(n_vars)
    pairs_per_block = max(1, ops._BLOCK_CELLS // n_vars)
    for start in range(0, pairs, pairs_per_block):
        stop = min(pairs, start + pairs_per_block)
        first = offspring[2 * start : 2 * stop : 2]
        second = offspring[2 * start + 1 : 2 * stop : 2]
        swap = crossed[start:stop, None] & (
            columns >= points[start:stop, None]
        )
        swapped_first = np.where(swap, second, first)
        swapped_second = np.where(swap, first, second)
        first[...] = swapped_first
        second[...] = swapped_second
    return offspring


def assert_crossover_parity(parents, p_crossover, seed):
    fast_rng = np.random.default_rng(seed)
    mask_rng = np.random.default_rng(seed)
    fast = one_point_crossover(fast_rng, parents, p_crossover)
    expected = mask_crossover(mask_rng, parents, p_crossover)
    assert fast.dtype == bool and fast.shape == parents.shape
    assert np.array_equal(fast, expected)
    assert fast_rng.bit_generator.state == mask_rng.bit_generator.state


@pytest.mark.parametrize("n_vars", [1, 2, 17])
@pytest.mark.parametrize("p_crossover", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("count", [0, 2, 10])
def test_crossover_matches_mask_form(count, n_vars, p_crossover):
    parents = np.random.default_rng(count + n_vars).random((count, n_vars))
    for seed in range(4):
        assert_crossover_parity(parents < 0.5, p_crossover, seed)


@pytest.mark.parametrize("p_crossover", [0.0, 0.5, 1.0])
def test_crossover_genome_above_block_cells(p_crossover, monkeypatch):
    # a 100-gene genome against a 64-cell block: the mask form handles
    # one pair per block
    monkeypatch.setattr(ops, "_BLOCK_CELLS", 64)
    parents = np.random.default_rng(9).random((12, 100)) < 0.5
    for seed in range(4):
        assert_crossover_parity(parents, p_crossover, seed)


def test_crossover_leaves_parents_untouched():
    parents = np.random.default_rng(1).random((8, 30)) < 0.5
    before = parents.copy()
    one_point_crossover(np.random.default_rng(0), parents, 1.0)
    assert np.array_equal(parents, before)
