"""The ``/damage`` solver: one routing rule for both service modes.

``/damage`` only takes single faults.  On a series-parallel network a
single fault is exactly what the paper's Sec. IV-C DP answers in O(1) /
O(branches) after one O(N) pass of prefix sums, so that is the route
there; every other network keeps the lane-packed bitset kernel.  The
in-process registry (``--workers 0``) and the shard worker both build
their solver here, so the two modes cannot route differently.
"""

from __future__ import annotations

from typing import List

from ..analysis.batch import BatchFaultAnalysis
from ..analysis.damage import FastDamageAnalysis
from ..errors import NotSeriesParallelError
from ..obs.trace import span
from ..rsn.network import RsnNetwork
from ..sp.reduce import decompose

__all__ = ["SingleFaultSolver", "single_fault_solver"]


class SingleFaultSolver:
    """A network's ``/damage`` solver and the route that chose it."""

    __slots__ = ("route", "analysis")

    def __init__(self, route: str, analysis):
        self.route = route  # "dp" | "bitset"
        self.analysis = analysis

    def damage_vector(self, faults, **attrs) -> List[float]:
        """Damage of each fault, under a ``worker.damage`` span that
        names the route; ``attrs`` are extra span attributes."""
        with span(
            "worker.damage", solver=self.route, lanes=len(faults), **attrs
        ):
            return [float(d) for d in self.analysis.damage_vector(faults)]


def single_fault_solver(
    network: RsnNetwork, spec, policy: str = "max", chunk_lanes: int = 64
) -> SingleFaultSolver:
    """The solver for ``network``: the DP (route ``dp``, a
    :class:`repro.analysis.FastDamageAnalysis`) when ``network``
    decomposes without virtual duplication, the bitset kernel (route
    ``bitset``) otherwise.  Both answer ``==`` on every single fault and
    run on ``network``'s interned IR — in a worker, the shared-memory IR
    the network was rebuilt from."""
    try:
        tree = decompose(network)
    except NotSeriesParallelError:
        return SingleFaultSolver(
            "bitset",
            BatchFaultAnalysis(
                network, spec, policy=policy, chunk_lanes=chunk_lanes
            ),
        )
    return SingleFaultSolver(
        "dp", FastDamageAnalysis(network, spec, tree=tree, policy=policy)
    )
