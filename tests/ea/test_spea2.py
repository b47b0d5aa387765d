"""Unit tests for the SPEA-2 implementation."""

import numpy as np
import pytest

from repro.ea import FunctionProblem, SPEA2
from repro.ea.spea2 import _environmental_selection, _fitness, _truncate
from repro.errors import OptimizationError


def linear_problem(n_vars=30, seed=0):
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 10, n_vars).astype(float)
    values = rng.integers(1, 10, n_vars).astype(float)

    class Linear:
        def __init__(self):
            self.n_vars = n_vars
            self.n_objectives = 2

        def evaluate(self, genomes):
            g = np.asarray(genomes, dtype=float)
            return np.stack([g @ weights, (1 - g) @ values], axis=1)

    return Linear()


class TestFitnessAssignment:
    def test_nondominated_have_fitness_below_one(self):
        objs = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])
        fitness, _ = _fitness(objs)
        assert (fitness[:3] < 1.0).all()
        assert fitness[3] >= 1.0

    def test_more_dominated_is_worse(self):
        objs = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        fitness, _ = _fitness(objs)
        assert fitness[0] < fitness[1] < fitness[2]

    def test_normalized_objectives_returned(self):
        objs = np.random.default_rng(0).random((10, 2))
        _, norm = _fitness(objs)
        assert norm.shape == objs.shape
        assert np.allclose(norm.min(axis=0), 0.0)
        assert np.allclose(norm.max(axis=0), 1.0)

    def test_blocked_fitness_matches_naive(self):
        """The blocked computation must be bit-identical to the direct
        full-matrix formulation it replaced."""
        import math

        from repro.ea.pareto import normalize

        objs = np.random.default_rng(7).random((37, 2))
        fitness, _ = _fitness(objs)

        # the (n, n, m) broadcast form, independent of the kernels under test
        matrix = np.all(objs[:, None, :] <= objs[None, :, :], axis=2) & np.any(
            objs[:, None, :] < objs[None, :, :], axis=2
        )
        strength = matrix.sum(axis=1).astype(float)
        raw = (strength[:, None] * matrix).sum(axis=0)
        norm = normalize(objs)
        deltas = norm[:, None, :] - norm[None, :, :]
        distances = np.sqrt((deltas * deltas).sum(axis=2))
        k = min(len(objs) - 1, max(1, int(math.sqrt(len(objs)))))
        sigma_k = np.sort(distances, axis=1)[:, k]
        expected = raw + 1.0 / (sigma_k + 2.0)
        assert np.array_equal(fitness, expected)


class TestEnvironmentalSelection:
    def test_exact_fit(self):
        objs = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0], [5.0, 5.0]])
        fitness, norm = _fitness(objs)
        keep = _environmental_selection(fitness, norm, 3)
        assert sorted(keep) == [0, 1, 2]

    def test_fill_with_best_dominated(self):
        objs = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        fitness, norm = _fitness(objs)
        keep = _environmental_selection(fitness, norm, 2)
        assert 0 in keep and 1 in keep

    def test_truncation_keeps_extremes(self):
        # five points on a line; truncation should drop the crowded middle
        objs = np.array(
            [[0.0, 4.0], [1.0, 3.0], [1.1, 2.9], [2.0, 2.0], [4.0, 0.0]]
        )
        fitness, norm = _fitness(objs)
        keep = _environmental_selection(fitness, norm, 3)
        assert 0 in keep and 4 in keep

    def test_truncate_size(self):
        rng = np.random.default_rng(1)
        objs = rng.random((20, 2))
        _, norm = _fitness(objs)
        deltas = norm[:, None, :] - norm[None, :, :]
        distances = np.sqrt((deltas * deltas).sum(axis=2))
        result = _truncate(np.arange(20), distances, 7)
        assert len(result) == 7


class TestSPEA2Runs:
    def test_deterministic_under_seed(self):
        problem = linear_problem()
        first = SPEA2(problem, population_size=20, seed=5).run(15)
        second = SPEA2(problem, population_size=20, seed=5).run(15)
        assert np.array_equal(first.objectives, second.objectives)

    def test_seeds_differ(self):
        problem = linear_problem()
        first = SPEA2(problem, population_size=20, seed=5).run(15)
        second = SPEA2(problem, population_size=20, seed=6).run(15)
        assert not np.array_equal(first.objectives, second.objectives)

    def test_archive_mutually_nondominated(self):
        from repro.ea import domination_matrix

        result = SPEA2(linear_problem(), population_size=24, seed=1).run(25)
        front_idx = np.arange(len(result.objectives))
        matrix = domination_matrix(result.objectives)
        # archive may contain filled-in dominated points only when the
        # front is smaller than the archive; the dedicated front() must be
        # clean
        _, front_objs = result.front()
        assert not domination_matrix(front_objs).any()

    def test_hypervolume_generally_improves(self):
        result = SPEA2(linear_problem(), population_size=30, seed=2).run(60)
        hv = [entry["hypervolume"] for entry in result.history]
        assert hv[-1] >= hv[0]

    def test_front_sorted_tradeoff(self):
        result = SPEA2(linear_problem(), population_size=30, seed=3).run(50)
        _, objs = result.front()
        assert all(
            objs[k + 1][0] > objs[k][0] and objs[k + 1][1] < objs[k][1]
            for k in range(len(objs) - 1)
        )

    def test_evaluation_count(self):
        result = SPEA2(linear_problem(), population_size=20, seed=0).run(10)
        assert result.n_evaluations == 20 * 10

    def test_history_length(self):
        result = SPEA2(linear_problem(), population_size=20, seed=0).run(12)
        assert len(result.history) == 12
        assert result.generations == 12

    def test_early_stop(self):
        stopper = lambda history: len(history) >= 4
        result = SPEA2(linear_problem(), population_size=20, seed=0).run(
            100, early_stop=stopper
        )
        assert result.generations == 4

    def test_bad_population_size_rejected(self):
        with pytest.raises(OptimizationError):
            SPEA2(linear_problem(), population_size=1)

    def test_bad_problem_rejected(self):
        class Bad:
            n_vars = 0
            n_objectives = 2

        with pytest.raises(OptimizationError):
            SPEA2(Bad())

    def test_function_problem_adapter(self):
        problem = FunctionProblem(
            4, 2, lambda g: (float(g.sum()), float(4 - g.sum()))
        )
        result = SPEA2(problem, population_size=8, seed=0).run(10)
        assert result.objectives.shape[1] == 2

    def test_archive_size_parameter(self):
        result = SPEA2(
            linear_problem(), population_size=20, archive_size=5, seed=0
        ).run(20)
        assert len(result.objectives) <= 5
