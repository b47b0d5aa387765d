"""Diagnosis campaigns: batched candidate ranking at design scale.

The campaign builds a signature dictionary for every modeled single
fault, synthesizes batches of observed signatures (a uniformly drawn
true fault per observation, optionally degraded by dropping each
observed position with probability ``noise`` — partial observation),
ranks candidates for whole batches via the packed Jaccard matmul
(:class:`repro.campaigns.signatures.SignatureMatrix`), and reports how
well — and how ambiguously — the design diagnoses.

Two signature sources share the matcher:

* ``effects`` — the fault's lost-primitive set, computed for the whole
  universe in one lane-packed kernel pass
  (:meth:`repro.analysis.batch.BatchFaultAnalysis.fault_effect_bits`).
  Scales to thousand-segment designs, where scan-pattern fault
  simulation is prohibitive; this is the structural resolution limit of
  the design itself (ConnChecker-style reachability signatures).
* ``sequence`` — exact test-sequence syndromes from a
  :class:`repro.dft.diagnose.FaultDictionary` (pure-Python replay; small
  designs), the resolution of one concrete test set.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from ..analysis.faults import fault_to_dict, iter_all_faults
from ..errors import ReproError
from .executor import CampaignExecutor, spec_token
from .plan import DiagnosisPlan
from .signatures import SignatureMatrix

#: Observations per block when the plan does not pin one: bounds the
#: score matrix to ``block * |universe| * 8`` bytes.
_DEFAULT_OBS_BLOCK = 512


def effect_signature_matrix(analysis) -> SignatureMatrix:
    """Effect signatures of every modeled single fault.

    Positions are ``("unobs", name)`` / ``("unset", name)`` over the
    primitives, bit-identical to
    ``GraphDamageAnalysis.effect_of_fault`` (an analysis without a lane
    kernel builds the same matrix from per-fault effect sets)."""
    network = analysis.network
    if network is None:
        raise ReproError("effect signatures need a network object")
    faults = list(iter_all_faults(network))
    ir = analysis.ir
    names = [ir.name_of(i) for i in ir.primitive_ids()]
    labels = [("unobs", name) for name in names] + [
        ("unset", name) for name in names
    ]
    batch = getattr(analysis, "_batch", None)
    if batch is not None:
        unobs, unset = batch.fault_effect_bits(faults)
        bits = np.concatenate([unobs, unset], axis=1)
        return SignatureMatrix(faults, bits, labels)
    column = {label: i for i, label in enumerate(labels)}
    bits = np.zeros((len(faults), len(labels)), dtype=np.uint8)
    for row, fault in enumerate(faults):
        effect = analysis.effect_of_fault(fault)
        for name in effect.unobservable:
            bits[row, column[("unobs", name)]] = 1
        for name in effect.unsettable:
            bits[row, column[("unset", name)]] = 1
    return SignatureMatrix(faults, bits, labels)


def sequence_signature_matrix(analysis) -> SignatureMatrix:
    """Exact test-sequence syndromes (pure-Python fault simulation of
    ``full_test_sequence``) packed into a matrix."""
    from ..dft.diagnose import FaultDictionary
    from ..dft.generate import full_test_sequence

    network = analysis.network
    if network is None:
        raise ReproError("sequence signatures need a network object")
    sequence = full_test_sequence(network)
    dictionary = FaultDictionary(sequence)
    return SignatureMatrix.from_sets(dictionary.syndromes)


def run_diagnosis(
    analysis,
    plan: DiagnosisPlan,
    max_lane_mb: Optional[float] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = True,
    progress=None,
    cancelled=None,
    lock=None,
    matrix: Optional[SignatureMatrix] = None,
) -> Dict:
    """Execute a diagnosis campaign on a ``GraphDamageAnalysis``.

    ``matrix`` short-circuits dictionary construction (benchmarks and
    the service reuse one matrix across campaigns)."""
    if matrix is None:
        if plan.source == "effects":
            matrix = effect_signature_matrix(analysis)
        else:
            matrix = sequence_signature_matrix(analysis)
    if not len(matrix):
        raise ReproError("diagnosis campaign needs a non-empty universe")
    block = plan.block_lanes or _DEFAULT_OBS_BLOCK
    n_blocks = math.ceil(plan.observations / block)

    executor = CampaignExecutor(
        "diagnosis",
        {
            "plan": plan.as_dict(),
            "fingerprint": analysis.ir.fingerprint,
            "spec": spec_token(analysis),
            # Per-block RNG substreams are keyed by block index, so a
            # checkpoint is only replayable at its own block size.
            "block": block,
        },
        checkpoint_path=checkpoint_path,
        resume=resume,
        progress=progress,
        cancelled=cancelled,
        lock=lock,
    )

    def solve_block(index: int) -> Dict:
        lo = index * block
        hi = min(lo + block, plan.observations)
        rows = hi - lo
        rng = np.random.default_rng((int(plan.seed), 7_000_003, index))
        truths = rng.integers(0, len(matrix), size=rows)
        obs_bits = matrix._bits[truths].copy()
        if plan.noise:
            dropped = rng.random(obs_bits.shape) < plan.noise
            obs_bits[dropped] = 0
        sizes = obs_bits.sum(axis=1, dtype=np.int64)
        scores = matrix.scores_from_bits(obs_bits, sizes)
        order = np.argsort(-scores, axis=1, kind="stable")
        ranks = np.argmax(order == truths[:, None], axis=1)
        executor.note_units("observations", rows)
        payload: Dict = {
            "count": rows,
            "hits1": int((ranks == 0).sum()),
            "hits_top": int((ranks < plan.top).sum()),
            "mrr_sum": float((1.0 / (ranks + 1)).sum()),
        }
        if index == 0 and plan.examples:
            examples = []
            for row in range(min(plan.examples, rows)):
                examples.append(
                    {
                        "true": fault_to_dict(
                            matrix.faults[int(truths[row])]
                        ),
                        "true_rank": int(ranks[row]),
                        "candidates": [
                            {
                                "fault": fault_to_dict(matrix.faults[i]),
                                "score": float(scores[row, i]),
                            }
                            for i in order[row, : plan.top]
                        ],
                    }
                )
            payload["examples"] = examples
        return payload

    meta = executor.run(n_blocks, solve_block)

    payloads = [p for p in meta["payloads"] if p is not None]
    evaluated = sum(p["count"] for p in payloads)
    groups = matrix.ambiguity_groups()
    summary: Dict = {
        "universe": len(matrix),
        "positions": matrix.n_positions,
        "observations_evaluated": evaluated,
        "rank1_accuracy": (
            sum(p["hits1"] for p in payloads) / evaluated
            if evaluated
            else 0.0
        ),
        "topk_accuracy": (
            sum(p["hits_top"] for p in payloads) / evaluated
            if evaluated
            else 0.0
        ),
        "mean_reciprocal_rank": (
            sum(p["mrr_sum"] for p in payloads) / evaluated
            if evaluated
            else 0.0
        ),
        "ambiguity_groups": len(groups),
        "largest_ambiguity_group": max(
            (len(g) for g in groups), default=0
        ),
        "resolution": matrix.resolution(),
    }
    examples = next(
        (p["examples"] for p in payloads if "examples" in p), []
    )

    return {
        "kind": "diagnosis",
        "plan": plan.as_dict(),
        "network": analysis.network.name,
        "fingerprint": analysis.ir.fingerprint,
        "block_observations": block,
        "blocks_total": n_blocks,
        "blocks_completed": meta["completed"],
        "blocks_resumed": meta["resumed"],
        "outcome": meta["outcome"],
        "truncated_reason": meta["truncated_reason"],
        "elapsed_seconds": meta["elapsed_seconds"],
        "resources": meta.get("resources"),
        "summary": summary,
        "examples": examples,
    }
