"""Pareto dominance utilities for minimization problems.

All objective arrays are ``(n, m)`` with every objective minimized.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import OptimizationError

#: Pairwise cells per domination block: bounds the boolean temporaries of
#: the blocked sort to a few megabytes regardless of population size.
_BLOCK_CELLS = 4_000_000


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """True when ``a`` Pareto-dominates ``b`` (<= everywhere, < somewhere)."""
    return bool(np.all(a <= b) and np.any(a < b))


def domination_matrix(objectives: np.ndarray) -> np.ndarray:
    """Boolean matrix ``M[i, j]`` = individual ``i`` dominates ``j``."""
    objs = np.asarray(objectives, dtype=float)
    return _domination_rows(objs, 0, len(objs))


def non_dominated_mask(objectives: np.ndarray) -> np.ndarray:
    """Mask of points no other point dominates."""
    matrix = domination_matrix(objectives)
    return ~matrix.any(axis=0)


def pareto_front(
    objectives: np.ndarray,
) -> np.ndarray:
    """Indices of the non-dominated points, sorted by the first objective."""
    mask = non_dominated_mask(objectives)
    indices = np.flatnonzero(mask)
    order = np.lexsort(
        (objectives[indices, 1], objectives[indices, 0])
    )
    return indices[order]


def dedupe_front(objectives: np.ndarray) -> np.ndarray:
    """Indices of a duplicate-free non-dominated front."""
    indices = pareto_front(objectives)
    seen = set()
    unique = []
    for index in indices:
        key = tuple(objectives[index])
        if key not in seen:
            seen.add(key)
            unique.append(index)
    return np.asarray(unique, dtype=int)


def _domination_rows(objs: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows ``[lo, hi)`` of :func:`domination_matrix`, one objective
    column at a time (DESIGN.md, "Vectorized selection")."""
    head = objs[lo:hi]
    less_equal = np.ones((len(head), len(objs)), dtype=bool)
    strictly_less = np.zeros_like(less_equal)
    for column in range(objs.shape[1]):
        less_equal &= head[:, column, None] <= objs[None, :, column]
        strictly_less |= head[:, column, None] < objs[None, :, column]
    return less_equal & strictly_less


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``a`` and ``b``, squared
    deltas summed column by column: for fewer than eight columns the same
    left-to-right float sum as ``sum(axis=2)`` over the broadcast."""
    squared = np.zeros((len(a), len(b)))
    for column in range(a.shape[1]):
        delta = a[:, column, None] - b[None, :, column]
        delta *= delta
        squared += delta
    return np.sqrt(squared, out=squared)


def fast_non_dominated_sort(objectives: np.ndarray) -> List[np.ndarray]:
    """Deb's fast non-dominated sorting: list of fronts (index arrays).

    The domination matrix is built in row blocks and kept bit-packed
    (``n * n/8`` bytes), so the merged NSGA-II populations of a
    10,000-genome run fit comfortably; front peeling subtracts whole
    blocks of unpacked rows at once instead of looping per individual.
    """
    objs = np.asarray(objectives, dtype=float)
    count = len(objs)
    if count == 0:
        return []
    packed = np.empty((count, (count + 7) // 8), dtype=np.uint8)
    dominated_count = np.zeros(count, dtype=np.int64)
    block = max(1, _BLOCK_CELLS // count)
    for lo in range(0, count, block):
        hi = min(count, lo + block)
        rows = _domination_rows(objs, lo, hi)
        packed[lo:hi] = np.packbits(rows, axis=1)
        dominated_count += rows.sum(axis=0, dtype=np.int64)
    fronts: List[np.ndarray] = []
    assigned = np.zeros(count, dtype=bool)
    current = np.flatnonzero(dominated_count == 0)
    while len(current):
        fronts.append(current)
        assigned[current] = True
        for lo in range(0, len(current), block):
            rows = np.unpackbits(
                packed[current[lo : lo + block]], axis=1, count=count
            )
            dominated_count -= rows.sum(axis=0, dtype=np.int64)
        current = np.flatnonzero((dominated_count == 0) & ~assigned)
    return fronts


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance within one front."""
    objs = np.asarray(objectives, dtype=float)
    count, n_obj = objs.shape
    if count <= 2:
        return np.full(count, np.inf)
    distance = np.zeros(count)
    for objective in range(n_obj):
        order = np.argsort(objs[:, objective], kind="stable")
        spread = objs[order[-1], objective] - objs[order[0], objective]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if spread <= 0:
            continue
        gaps = (
            objs[order[2:], objective] - objs[order[:-2], objective]
        ) / spread
        distance[order[1:-1]] += gaps
    return distance


def hypervolume_2d(
    objectives: np.ndarray, reference: Sequence[float]
) -> float:
    """Hypervolume (area) dominated by a 2-objective minimization front.

    Points beyond the reference point contribute nothing.
    """
    objs = np.asarray(objectives, dtype=float)
    if objs.ndim != 2 or objs.shape[1] != 2:
        raise OptimizationError("hypervolume_2d needs (n, 2) objectives")
    ref_x, ref_y = float(reference[0]), float(reference[1])
    front = objs[pareto_front(objs)]
    area = 0.0
    previous_y = ref_y
    for x, y in front:
        if x >= ref_x or y >= previous_y:
            continue
        area += (ref_x - x) * (previous_y - y)
        previous_y = y
    return area


def normalize(objectives: np.ndarray) -> np.ndarray:
    """Min-max normalize each objective to [0, 1] (degenerate spans -> 0)."""
    objs = np.asarray(objectives, dtype=float)
    lo = objs.min(axis=0)
    span = objs.max(axis=0) - lo
    span[span == 0] = 1.0
    return (objs - lo) / span
