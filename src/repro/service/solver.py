"""The ``/damage`` solver: the analysis route, under a traced span.

``/damage`` only takes single faults, so it routes by
:func:`repro.analysis.route_analysis` like every other entry point: the
paper's Sec. IV-C DP on a series-parallel network, the lane-packed
bitset kernel otherwise.  The in-process registry (``--workers 0``) and
the shard worker both build their solver here, so the two modes cannot
route differently.
"""

from __future__ import annotations

from typing import List

from ..analysis.route import route_analysis
from ..obs.trace import span
from ..rsn.network import RsnNetwork

__all__ = ["SingleFaultSolver", "single_fault_solver"]


class SingleFaultSolver:
    """A network's ``/damage`` solver; ``route`` names its route."""

    __slots__ = ("route", "analysis")

    def __init__(self, analysis):
        self.route = analysis.route  # "dp" | "bitset"
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
    """The routed solver for ``network`` — in a worker, the network
    rebuilt from the shared-memory IR."""
    return SingleFaultSolver(
        route_analysis(
            network, spec, policy=policy, chunk_lanes=chunk_lanes
        )
    )
