"""Fault-campaign throughput on the bitset kernel.

The campaign subsystem turns three batched fault studies into streaming
lane-block workloads: Monte-Carlo defect-rate sweeps (vectorized
sampling + one kernel solve per block), and batched diagnosis (Jaccard
ranking as one packed matmul over every candidate at once, replacing
the per-fault Python loop of ``FaultDictionary.diagnose``).  This
benchmark records both at design scale:

1. **parity first** — a scalar-sampler campaign must reproduce the
   pre-campaign ``random.Random`` loop seed-for-seed, and the batched
   Jaccard ranking must equal the per-fault scalar loop on every
   observation, before any timing is recorded;
2. **Monte-Carlo throughput** — one vectorized rate sweep (analysis
   built outside the timer, sampling + block solves inside);
3. **batched diagnosis** — one diagnosis campaign over a prebuilt
   signature matrix, next to the per-fault scalar ranking loop on the
   same observations (the >= 20x acceptance point on the 1091-segment
   design).

Run as a script to (re)write the perf baseline consumed by the
``bench-diff`` regression gate::

    PYTHONPATH=src python benchmarks/bench_campaigns.py \
        --output results/BENCH_campaigns.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time

import numpy as np
import pytest

from repro.analysis.faults import faults_of_primitive
from repro.analysis.graph_analysis import GraphDamageAnalysis
from repro.bench.generators import mbist_network
from repro.campaigns import (
    DiagnosisPlan,
    MonteCarloPlan,
    effect_signature_matrix,
    jaccard_rank_scalar,
    run_diagnosis,
    run_monte_carlo,
)
from repro.rsn.ast import elaborate
from repro.rsn.primitives import NodeKind
from repro.spec import spec_for_network

#: The MBIST designs of the campaign baseline; the larger one is
#: MBIST_2_5_5's network (1091 segments) and anchors the >= 20x batched
#: diagnosis acceptance point.
SIZES = [
    (113, 15),
    (1_091, 28),
]

#: The recorded Monte-Carlo sweep (>= 5 rates, >= 1000 samples each).
RATES = (0.0001, 0.0005, 0.001, 0.005, 0.01)
SAMPLES = 1_000

#: The recorded diagnosis campaign (>= 100 observations, partial
#: observation via 25% position dropout).
OBSERVATIONS = 256
NOISE = 0.25

_PARITY_SAMPLES = 50
_PARITY_RATE = 0.01


def _build(n_segments, n_muxes):
    network = elaborate(mbist_network(n_segments, n_muxes, seed=0))
    return network, spec_for_network(network, seed=0)


def _old_expected_damage(analysis, rate, samples, seed):
    """The pre-campaign ``expected_damage_under_rate`` loop, preserved
    verbatim as the seed-for-seed parity oracle."""
    network = analysis.network
    sites = [
        node.name
        for node in network.nodes()
        if node.kind in (NodeKind.SEGMENT, NodeKind.MUX)
    ]
    rng = random.Random(seed)
    fault_sets = []
    for _ in range(samples):
        faults = []
        for site in sites:
            if rng.random() < rate:
                candidates = faults_of_primitive(network, site)
                if candidates:
                    faults.append(rng.choice(candidates))
        if faults:
            fault_sets.append(faults)
    if not fault_sets:
        return 0.0
    return sum(analysis.damage_of_fault_sets(fault_sets)) / samples


def _check_mc_parity(analysis):
    """The scalar-sampler campaign must reproduce the pre-campaign
    loop seed-for-seed.  Any divergence aborts the benchmark."""
    plan = MonteCarloPlan(
        rates=(_PARITY_RATE,),
        samples=_PARITY_SAMPLES,
        seed=7,
        sampler="scalar",
        bootstrap=0,
    )
    campaign = run_monte_carlo(analysis, plan)["records"][0]["mean_damage"]
    oracle = _old_expected_damage(
        analysis, _PARITY_RATE, _PARITY_SAMPLES, seed=7
    )
    if campaign != oracle:
        raise SystemExit(
            f"scalar-sampler campaign diverged from the pre-campaign "
            f"loop: {campaign!r} != {oracle!r}"
        )


def _observations(matrix, count, noise, seed=0):
    """Deterministic noisy observations drawn from the dictionary's
    own signatures: a uniform truth per row, each observed position
    dropped with probability ``noise``."""
    rng = np.random.default_rng(seed)
    truths = rng.integers(0, len(matrix), size=count)
    obs_bits = matrix._bits[truths].copy()
    if noise:
        dropped = rng.random(obs_bits.shape) < noise
        obs_bits[dropped] = 0
    observed = [
        frozenset(
            label for label, bit in zip(matrix.labels, row) if bit
        )
        for row in obs_bits
    ]
    return observed


def _time_monte_carlo(analysis):
    """Construction-free timing of one vectorized rate sweep: the
    analysis is built outside the timer, sampling and the lane-block
    kernel solves run inside it."""
    plan = MonteCarloPlan(
        rates=RATES, samples=SAMPLES, seed=0, bootstrap=0
    )
    started = time.perf_counter()
    result = run_monte_carlo(analysis, plan)
    seconds = time.perf_counter() - started
    return seconds, result


def _time_diagnosis(analysis, matrix, observations, noise):
    """One diagnosis campaign over a prebuilt matrix (the gated
    timing), then batched vs per-fault scalar ranking on identical
    observations, parity-checked before the speedup is recorded."""
    plan = DiagnosisPlan(observations=observations, seed=0, noise=noise)
    started = time.perf_counter()
    result = run_diagnosis(analysis, plan, matrix=matrix)
    campaign_seconds = time.perf_counter() - started

    observed = _observations(matrix, observations, noise)
    started = time.perf_counter()
    batched = matrix.rank(observed, top=5)
    batched_seconds = time.perf_counter() - started

    sets = {
        fault: frozenset(
            label
            for label, bit in zip(matrix.labels, matrix._bits[row])
            if bit
        )
        for row, fault in enumerate(matrix.faults)
    }
    started = time.perf_counter()
    scalar = [
        jaccard_rank_scalar(sets, obs, top=5) for obs in observed
    ]
    scalar_seconds = time.perf_counter() - started
    if batched != scalar:
        raise SystemExit(
            "batched-vs-scalar Jaccard ranking mismatch at "
            f"{observations} observations"
        )
    return campaign_seconds, batched_seconds, scalar_seconds, result


def write_campaign_baseline(
    output: str,
    quick: bool = False,
    samples: int = SAMPLES,
    observations: int = OBSERVATIONS,
) -> dict:
    """Monte-Carlo sweep and batched-diagnosis timings per design.

    ``quick`` keeps the small design and reduced workloads for CI
    sanity passes; the full run records the >= 20x batched-diagnosis
    acceptance point on the 1091-segment design (MBIST_2_5_5's
    network) at >= 1000 samples/rate and >= 100 observations.
    """
    sizes = SIZES[:1] if quick else SIZES
    if quick:
        samples = min(samples, 200)
        observations = min(observations, 100)
    designs = []
    for n_segments, n_muxes in sizes:
        network, spec = _build(n_segments, n_muxes)
        analysis = GraphDamageAnalysis(network, spec)
        _check_mc_parity(analysis)

        plan = MonteCarloPlan(
            rates=RATES, samples=samples, seed=0, bootstrap=0
        )
        started = time.perf_counter()
        mc = run_monte_carlo(analysis, plan)
        mc_seconds = time.perf_counter() - started

        matrix = effect_signature_matrix(analysis)
        (
            campaign_seconds,
            batched_seconds,
            scalar_seconds,
            diag,
        ) = _time_diagnosis(analysis, matrix, observations, NOISE)

        entry = {
            "design": f"mbist_{n_segments}_{n_muxes}",
            "n_segments": n_segments,
            "n_muxes": n_muxes,
            "montecarlo": {
                "rates": list(RATES),
                "samples": samples,
                "seconds": mc_seconds,
                "samples_per_second": (
                    len(RATES) * samples / mc_seconds
                    if mc_seconds > 0
                    else 0.0
                ),
                "n_sites": mc["n_sites"],
            },
            "diagnosis": {
                "observations": observations,
                "noise": NOISE,
                "universe": len(matrix),
                "campaign_seconds": campaign_seconds,
                "batched_rank_seconds": batched_seconds,
                "scalar_rank_seconds": scalar_seconds,
                "speedup": (
                    scalar_seconds / batched_seconds
                    if batched_seconds > 0
                    else 0.0
                ),
                "rank1_accuracy": diag["summary"]["rank1_accuracy"],
            },
            "parity": True,
        }
        designs.append(entry)
        print(
            f"{entry['design']:18s} "
            f"mc {len(RATES)}x{samples}: {mc_seconds:.2f}s "
            f"({entry['montecarlo']['samples_per_second']:.0f} "
            f"samples/s), "
            f"diagnosis {observations} obs over "
            f"{len(matrix)} faults: campaign {campaign_seconds:.3f}s, "
            f"rank batched {batched_seconds:.3f}s / "
            f"scalar {scalar_seconds:.2f}s "
            f"({entry['diagnosis']['speedup']:.1f}x)",
            flush=True,
        )

    payload = {
        "benchmark": "campaign",
        "created": time.strftime("%Y-%m-%d %H:%M:%S"),
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "designs": designs,
        "notes": (
            "Fault-campaign workloads on the bitset kernel.  montecarlo "
            "= one vectorized defect-rate sweep (per-block RNG "
            "substreams, lane-block kernel solves; analysis built "
            "outside the timer), parity-checked first: a scalar-sampler "
            "campaign must reproduce the pre-campaign random.Random "
            "loop seed-for-seed.  diagnosis = one campaign over a "
            "prebuilt effect-signature matrix (matrix construction "
            "outside the timer), next to batched-vs-scalar Jaccard "
            "ranking on identical noisy observations — the batched "
            "packed-matmul ranking must equal the per-fault Python "
            "loop exactly before the speedup is recorded.  Consumed by "
            "the bench-diff regression gate (metrics campaign_mc and "
            "campaign_diagnosis)."
        ),
    }
    os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")
    return payload


# ---------------------------------------------------------------------------
# pytest entry points (benchmarks/ is also a pytest-benchmark suite)
# ---------------------------------------------------------------------------
def test_campaign_parity():
    """The parity gates of the baseline writer, standalone."""
    network, spec = _build(*SIZES[0])
    analysis = GraphDamageAnalysis(network, spec)
    _check_mc_parity(analysis)
    matrix = effect_signature_matrix(analysis)
    _time_diagnosis(analysis, matrix, 32, NOISE)


@pytest.mark.parametrize("kind", ["montecarlo", "diagnosis"])
def test_campaign_throughput(benchmark, kind):
    """One reduced campaign of each kind on the small design."""
    network, spec = _build(*SIZES[0])
    analysis = GraphDamageAnalysis(network, spec)
    if kind == "montecarlo":
        plan = MonteCarloPlan(
            rates=(0.001, 0.01), samples=128, seed=0, bootstrap=0
        )
        result = benchmark.pedantic(
            lambda: run_monte_carlo(analysis, plan),
            rounds=1,
            iterations=1,
        )
        assert len(result["records"]) == 2
    else:
        matrix = effect_signature_matrix(analysis)
        plan = DiagnosisPlan(observations=64, seed=0, noise=NOISE)
        result = benchmark.pedantic(
            lambda: run_diagnosis(analysis, plan, matrix=matrix),
            rounds=1,
            iterations=1,
        )
        assert result["summary"]["observations_evaluated"] == 64
    benchmark.extra_info.update({"kind": kind})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="write the fault-campaign perf baseline"
    )
    parser.add_argument(
        "--output", default="results/BENCH_campaigns.json"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small design and reduced workloads (CI sanity pass)",
    )
    parser.add_argument(
        "--samples", type=int, default=SAMPLES,
        help="Monte-Carlo samples per rate (default 1000)",
    )
    parser.add_argument(
        "--observations", type=int, default=OBSERVATIONS,
        help="diagnosis observations (default 256)",
    )
    args = parser.parse_args(argv)
    write_campaign_baseline(
        args.output,
        quick=args.quick,
        samples=args.samples,
        observations=args.observations,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
