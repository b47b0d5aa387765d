"""Virtual duplication: SP representations of non-SP RSNs.

Most RSNs are directly series-parallel, but crossing branch structures
(e.g. a bypass wire shared by several multiplexers, or a branch entering
another branch mid-way — Wheatstone-bridge shapes) block the reduction.
Following the idea of hierarchical re-representation in [19], the reducer
can then *virtually duplicate* the offending stem structure: the reduced
subtree feeding a blocked fan-out vertex is copied into each outgoing
branch, with copied leaves renamed and recorded in an alias map (see
``_Reducer._duplicate`` in :mod:`repro.sp.reduce`).  Only the analysis
sees the copies; the physical network never changes.

Fault semantics over copies: a defect in a physical primitive manifests in
*all* of its virtual copies at once, so a fault's effect set is the union
of the per-copy effects.  The O(N) aggregate analysis would over-count
weights shared between copies, so virtualized trees are structural only:
damage on non-SP networks comes from graph reachability
(:class:`repro.analysis.GraphDamageAnalysis`).
"""

from __future__ import annotations

VIRTUAL_SEPARATOR = "~v"


def virtual_name(primitive: str, counter: int) -> str:
    return f"{primitive}{VIRTUAL_SEPARATOR}{counter}"
