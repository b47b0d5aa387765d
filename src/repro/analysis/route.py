"""One analysis route per regime.

The paper has two regimes.  A single fault on a series-parallel network
is what the Sec. IV-C DP answers: one O(N) pass of prefix sums, then
O(1) / O(branches) per fault (route ``dp``,
:class:`~repro.analysis.damage.FastDamageAnalysis`).  Anything else — a
non-SP network, or a set of simultaneous faults — needs plain
reachability, which the lane-packed bitset kernel answers (route
``bitset``, :class:`~repro.analysis.graph_analysis.GraphDamageAnalysis`).
Both give ``==`` damages on every single fault of an SP network.

:func:`route_analysis` is the rule for single-fault queries; the engine,
``analyze_damage``, hardening, Table I and the service all build their
analysis through it, so no two entry points can route differently.
Fault-set queries construct :class:`GraphDamageAnalysis` directly.
"""

from __future__ import annotations

from typing import Optional, Union

from ..errors import NotSeriesParallelError
from ..rsn.network import RsnNetwork
from ..sp.reduce import decompose
from ..sp.tree import SPTree
from .damage import FastDamageAnalysis
from .graph_analysis import GraphDamageAnalysis

__all__ = ["route_analysis"]


def route_analysis(
    network: RsnNetwork,
    spec,
    tree: Optional[SPTree] = None,
    policy: str = "max",
    chunk_lanes: int = 64,
) -> Union[FastDamageAnalysis, GraphDamageAnalysis]:
    """The single-fault analysis of ``network``; its ``route`` attribute
    (``"dp"`` or ``"bitset"``) names the route, as recorded in
    ``EngineStats.route`` and the ``engine.analyze`` / ``worker.damage``
    spans.

    The DP serves a network whose ``tree`` the caller passes or that
    decomposes without virtual duplication; the bitset kernel (with
    ``chunk_lanes`` words of lanes per chunk) serves every other
    network."""
    if tree is None:
        try:
            tree = decompose(network)
        except NotSeriesParallelError:
            return GraphDamageAnalysis(
                network, spec, policy=policy, chunk_lanes=chunk_lanes
            )
    return FastDamageAnalysis(network, spec, tree=tree, policy=policy)
