"""Monte-Carlo defect-sample generation for rate-sweep campaigns.

Two interchangeable samplers produce the fault multisets a rate block
evaluates:

* ``scalar`` — the original per-site ``random.Random`` loop of
  ``expected_damage_under_rate``, preserved as the parity reference:
  for a given ``(seed, rate)`` it reproduces the exact pre-campaign RNG
  stream, so routing the function through the campaign executor is
  seed-for-seed equivalent (tested).  It draws ``rng.choice(range(n))``
  where the original drew ``rng.choice(candidates)``; both consume the
  same stream, since ``Random.choice`` is
  ``seq[self._randbelow(len(seq))]``.  Its stream is sequential —
  sample ``i`` depends on every draw before it — so the whole rate is
  materialized up front and blocks slice into it.
* ``vectorized`` — numpy ``default_rng`` streams keyed per
  ``(seed, rate index, block index)``: each lane block draws an
  independent substream, which is what makes checkpoint/resume
  bit-identical (a resumed block re-derives exactly the draws it would
  have made) and keeps sampling O(block) regardless of where in the
  campaign it runs.  Backend-independent by construction: the stream
  never touches kernel state.

Both samplers share the site model: every un-hardened SEGMENT/MUX
primitive fails independently with probability ``rate``; a failing site
draws uniformly among its concrete faults
(:func:`repro.analysis.faults.faults_of_primitive`).  Both emit
array-form blocks (:class:`repro.analysis.faults.FaultSetBlock`):
``(lane, candidate index)`` pairs into the campaign's flat
:class:`~repro.analysis.faults.CandidateTable`, which the bitset kernel
lowers straight to packed lane masks and any other analysis reads as
plain ``Fault`` lists.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

import numpy as np

from ..analysis.faults import (
    CandidateTable,
    Fault,
    FaultSetBlock,
    faults_of_primitive,
)
from ..rsn.network import RsnNetwork
from ..rsn.primitives import NodeKind


def campaign_sites(
    network: RsnNetwork, hardened_units: Sequence[str] = ()
) -> List[str]:
    """Defect sites: every SEGMENT/MUX primitive not covered by a
    hardened unit (unit names expand to their members; bare primitive
    names cover themselves) — the site model of
    ``expected_damage_under_rate``, in network node order."""
    unit_names = set(network.unit_names())
    covered = set()
    for name in hardened_units:
        if name in unit_names:
            covered.update(network.unit(name).members)
        else:
            covered.add(name)
    return [
        node.name
        for node in network.nodes()
        if node.kind in (NodeKind.SEGMENT, NodeKind.MUX)
        and node.name not in covered
    ]


def site_candidates(
    network: RsnNetwork, sites: Sequence[str]
) -> List[Tuple[Fault, ...]]:
    """Concrete fault choices per site, precomputed once per table."""
    return [faults_of_primitive(network, site) for site in sites]


def scalar_samples(
    table: CandidateTable, rate: float, samples: int, seed: int
) -> FaultSetBlock:
    """The original sequential sampler — byte-for-byte the RNG stream of
    the pre-campaign ``expected_damage_under_rate`` loop.  Returns one
    (possibly empty) fault set per sample."""
    rng = random.Random(seed)
    draw = rng.random
    choice = rng.choice
    # (first candidate index, choice range) per site; an empty range
    # marks a site without modeled faults, which consumes no choice.
    sites = [
        (int(start), range(int(count)))
        for start, count in zip(table.starts, table.counts)
    ]
    lanes: List[int] = []
    cands: List[int] = []
    for sample in range(samples):
        for start, choices in sites:
            if draw() < rate and choices:
                lanes.append(sample)
                cands.append(start + choice(choices))
    return FaultSetBlock(table, samples, lanes, cands)


def block_rng(seed: int, rate_index: int, block_index: int) -> np.random.Generator:
    """The vectorized sampler's substream for one (rate, block) cell."""
    return np.random.default_rng(
        (int(seed), int(rate_index), int(block_index))
    )


def vectorized_samples(
    table: CandidateTable,
    rate: float,
    count: int,
    rng: np.random.Generator,
) -> FaultSetBlock:
    """Draw ``count`` samples from one block substream.

    Two uniform matrices decide everything: ``hit < rate`` marks failing
    sites, and an independent uniform picks the fault among the site's
    candidates (``floor(u * n_candidates)``).  Both are drawn for every
    (sample, site) cell regardless of the hit mask, so the stream — and
    therefore every checkpointed block — is a pure function of the
    substream key, not of previous blocks.
    """
    n_cands = table.counts
    n_sites = len(n_cands)
    if n_sites == 0 or count == 0:
        return FaultSetBlock(table, count, (), ())
    # One draw buffer serves both matrices: ``random(out=)`` fills it in
    # the same C order as ``random(size)``, so the stream is unchanged.
    draws = np.empty((count, n_sites))
    hits = rng.random(out=draws) < rate
    hits &= n_cands > 0  # sites with no modeled faults never contribute
    choice_u = rng.random(out=draws)
    # Row-major flat hit positions: lane-major pairs in site order.
    rows, cols = np.divmod(np.flatnonzero(hits), n_sites)
    picks = (choice_u[rows, cols] * n_cands[cols]).astype(np.int64)
    # Guard the (probability-zero in practice) u == 1.0 edge.
    np.minimum(picks, n_cands[cols] - 1, out=picks)
    return FaultSetBlock(table, count, rows, table.starts[cols] + picks)
