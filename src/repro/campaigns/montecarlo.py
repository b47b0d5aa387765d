"""Monte-Carlo rate-sweep campaigns: expected damage vs defect rate.

For each rate in the plan, ``samples`` independent defect draws (every
un-hardened primitive fails with probability ``rate``; a failing site
takes a uniformly random concrete fault) are evaluated through
``damage_of_fault_sets`` — one bitset kernel lane per sample — in lane
blocks sized by the ``--max-lane-mb`` budget.  The
per-rate curve reports the sample mean (the multi-fault generalization
of Eq. 2's expectation), spread, and a bootstrap confidence interval on
the mean.

Blocks travel in array form: the samplers emit ``(lane, candidate)``
pairs into one :class:`~repro.analysis.faults.CandidateTable` per
analysis and hardened-unit set (:func:`candidate_table`, memoized with
the spec token in ``analysis.derived``), and the bitset
kernel lowers them straight to packed lane masks through a lowering it
caches per table — no per-fault ``Fault`` objects or hashed tuple
states on the campaign path.

Bit-identity guarantees:

* the ``scalar`` sampler reproduces the original
  ``expected_damage_under_rate`` RNG stream, and per-lane damages are
  independent of how lanes are grouped into chunks, so the campaign mean
  is exactly the old function's return value (seed-for-seed test);
* the ``vectorized`` sampler derives one numpy substream per
  (seed, rate index, block index), so any block recomputes identically
  whether it runs first, last, or after a checkpoint resume;
* block sums are accumulated in sample order, so float summation order
  never changes across block sizes or resumes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from ..analysis.faults import CandidateTable, FaultSetBlock
from ..errors import ReproError
from .executor import CampaignExecutor, lane_block, spec_token
from .plan import MonteCarloPlan
from .sampler import (
    block_rng,
    campaign_sites,
    scalar_samples,
    site_candidates,
    vectorized_samples,
)


def candidate_table(analysis, hardened_units=()) -> CandidateTable:
    """The defect sites and their candidate faults for one hardened-unit
    set, built on first use and cached on the analysis (a race between
    two threads only builds an equal table twice)."""
    key = ("candidates", tuple(hardened_units))
    table = analysis.derived.get(key)
    if table is None:
        sites = campaign_sites(analysis.network, key[1])
        table = CandidateTable(
            sites, site_candidates(analysis.network, sites)
        )
        analysis.derived[key] = table
    return table


def run_monte_carlo(
    analysis,
    plan: MonteCarloPlan,
    max_lane_mb: Optional[float] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = True,
    progress=None,
    cancelled=None,
    lock=None,
) -> Dict:
    """Execute a rate-sweep campaign on a ``GraphDamageAnalysis``."""
    network = analysis.network
    if network is None:
        raise ReproError("monte-carlo campaigns need a network object")
    table = candidate_table(analysis, plan.hardened_units)
    block = lane_block(analysis, plan.block_lanes, max_lane_mb)
    blocks_per_rate = max(1, math.ceil(plan.samples / block))
    n_blocks = len(plan.rates) * blocks_per_rate

    executor = CampaignExecutor(
        "montecarlo",
        {
            "plan": plan.as_dict(),
            "fingerprint": analysis.ir.fingerprint,
            "spec": spec_token(analysis),
            # Block boundaries fix both the payload slicing and the
            # vectorized per-block RNG substreams, so a checkpoint is
            # only replayable at the block size that wrote it.
            "block": block,
        },
        checkpoint_path=checkpoint_path,
        resume=resume,
        progress=progress,
        cancelled=cancelled,
        lock=lock,
    )

    # The scalar stream is sequential within a rate, so the whole rate
    # is materialized on first use; rates whose blocks all replay from
    # the checkpoint never pay for sampling.
    scalar_cache: Dict[int, FaultSetBlock] = {}

    def _scalar_sets(rate_index: int) -> FaultSetBlock:
        sets = scalar_cache.get(rate_index)
        if sets is None:
            sets = scalar_samples(
                table, plan.rates[rate_index], plan.samples, plan.seed
            )
            scalar_cache[rate_index] = sets
        return sets

    def solve_block(index: int) -> Dict:
        rate_index, block_index = divmod(index, blocks_per_rate)
        rate = plan.rates[rate_index]
        lo = block_index * block
        hi = min(lo + block, plan.samples)
        if plan.sampler == "scalar":
            sets = _scalar_sets(rate_index).lanes_slice(lo, hi)
        else:
            rng = block_rng(plan.seed, rate_index, block_index)
            sets = vectorized_samples(table, rate, hi - lo, rng)
        damages = analysis.damage_of_fault_sets(sets)
        executor.note_units("samples", hi - lo)
        return {"damages": [float(d) for d in damages]}

    meta = executor.run(n_blocks, solve_block)

    records = []
    for rate_index, rate in enumerate(plan.rates):
        rate_payloads = meta["payloads"][
            rate_index * blocks_per_rate : (rate_index + 1) * blocks_per_rate
        ]
        complete = all(p is not None for p in rate_payloads)
        record: Dict = {
            "rate": rate,
            "samples": plan.samples,
            "complete": complete,
        }
        if complete:
            damages: List[float] = []
            for payload in rate_payloads:
                damages.extend(payload["damages"])
            # Plain in-order sum over all samples (empty draws are exact
            # 0.0 lanes): bit-identical to the pre-campaign scalar loop.
            record["mean_damage"] = sum(damages) / plan.samples
            arr = np.asarray(damages)
            record["std_damage"] = float(arr.std())
            record["max_damage"] = float(arr.max()) if len(arr) else 0.0
            record["nonzero_fraction"] = float((arr > 0).mean())
            if plan.bootstrap:
                rng = np.random.default_rng(
                    (int(plan.seed), 1_000_003, rate_index)
                )
                picks = rng.integers(
                    0, len(arr), size=(plan.bootstrap, len(arr))
                )
                means = arr[picks].mean(axis=1)
                tail = (1.0 - plan.confidence) / 2.0
                record["ci_low"] = float(np.quantile(means, tail))
                record["ci_high"] = float(np.quantile(means, 1.0 - tail))
        records.append(record)

    return {
        "kind": "montecarlo",
        "plan": plan.as_dict(),
        "network": network.name,
        "fingerprint": analysis.ir.fingerprint,
        "n_sites": len(table.sites),
        "block_lanes": block,
        "blocks_total": n_blocks,
        "blocks_completed": meta["completed"],
        "blocks_resumed": meta["resumed"],
        "outcome": meta["outcome"],
        "truncated_reason": meta["truncated_reason"],
        "elapsed_seconds": meta["elapsed_seconds"],
        "resources": meta.get("resources"),
        "records": records,
    }
