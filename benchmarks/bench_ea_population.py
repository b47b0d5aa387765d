"""Population-batched EA evaluation on the bitset kernel.

The fault-set hardening objective scores a genome by the joint damage of
every un-hardened candidate faulting simultaneously — one reachability
state per genome.  Batched, a whole population becomes one lane-packed
sweep (64 genomes per uint64 word); unbatched, every genome costs its
own ``damage_of_faults`` call.  This benchmark records that gap at
population scale:

1. **parity first** — a short SPEA-2 run through the vectorized and the
   per-genome tuple (``lowering="scalar"``) lowering of
   :class:`FaultSetHardeningProblem` must produce bit-identical Pareto
   fronts, and the timed population's batched
   objective matrix must equal the per-genome scalar one exactly,
   before any timing is recorded;
2. **cold evaluation** — one batched ``evaluate()`` of a fresh random
   population (memo empty, every genome swept) vs. the pre-batching
   scalar path: one ``damage_of_faults(residual_faults(genome))`` call
   per genome;
3. **generation throughput** — per-generation wall time of a real
   SPEA-2 loop through each evaluation path (memoized incremental
   re-evaluation included on the batched side, as the EA actually
   runs; the scalar path has no population machinery to warm up).

Run as a script to (re)write the perf baseline consumed by the
``bench-diff`` regression gate::

    PYTHONPATH=src python benchmarks/bench_ea_population.py \
        --output results/BENCH_ea.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import numpy as np
import pytest

from repro.analysis.graph_analysis import GraphDamageAnalysis
from repro.bench.generators import mbist_network
from repro.core.problem import FaultSetHardeningProblem
from repro.ea import SPEA2, init_population
from repro.rsn.ast import elaborate
from repro.spec import spec_for_network
from repro.spec.cost_model import GateCountCost

#: The MBIST designs of the EA baseline; the larger anchors the
#: acceptance threshold (>= 20x generation throughput at pop >= 1000).
SIZES = [
    (113, 15),
    (1_091, 28),
]

_PARITY_GENERATIONS = 3
_PARITY_POPULATION = 64


def _build(n_segments, n_muxes):
    network = elaborate(mbist_network(n_segments, n_muxes, seed=0))
    return network, spec_for_network(network, seed=0)


def _problem(network, spec, lowering="vectorized", **kwargs):
    """A fresh fault-set problem lowering genomes by ``lowering``."""
    analysis = GraphDamageAnalysis(network, spec)
    return FaultSetHardeningProblem(
        network, analysis.report(), GateCountCost(), analysis,
        lowering=lowering, **kwargs,
    )


class _PerGenomeScalarProblem(FaultSetHardeningProblem):
    """The pre-batching evaluation path, as a drop-in problem.

    No lane packing, no dedup, no memo: every genome is lowered to its
    residual fault multiset and scored by one scalar
    ``damage_of_faults`` call — exactly what an EA over the fault-set
    objective cost before population batching existed.
    """

    def evaluate(self, genomes):
        genomes = np.asarray(genomes, dtype=bool)
        cost = genomes.astype(float) @ self.costs
        damage = np.asarray(
            [
                self._analysis.damage_of_faults(self.residual_faults(g))
                for g in genomes
            ],
            dtype=float,
        )
        return np.stack([cost, damage], axis=1)


def _scalar_problem(network, spec):
    analysis = GraphDamageAnalysis(network, spec)
    return _PerGenomeScalarProblem(
        network, analysis.report(), GateCountCost(), analysis
    )


def _check_parity(network, spec):
    """Identical short SPEA-2 runs through both lowerings.

    Same problem, same seed, same operators — the only difference is
    whether genomes lower to packed lane masks in whole blocks or to
    one state tuple each.  Any divergence aborts the benchmark.
    """
    fronts = []
    for lowering in ("vectorized", "scalar"):
        problem = _problem(network, spec, lowering)
        result = SPEA2(
            problem,
            population_size=_PARITY_POPULATION,
            seed=0,
        ).run(_PARITY_GENERATIONS)
        fronts.append(result.front())
    (vec_genomes, vec_objs), (tuple_genomes, tuple_objs) = fronts
    if not np.array_equal(vec_genomes, tuple_genomes):
        raise SystemExit("vectorized-vs-scalar Pareto front genome mismatch")
    if not np.array_equal(vec_objs, tuple_objs):
        raise SystemExit(
            "vectorized-vs-scalar Pareto front objective mismatch"
        )


def _time_cold_evaluate(problem, population):
    """Construction-free timing of one cold population evaluation: the
    problem and the random population are built outside the timer,
    every genome is unseen."""
    genomes = init_population(
        np.random.default_rng(0), population, problem.n_vars
    )
    started = time.perf_counter()
    objectives = problem.evaluate(genomes)
    return time.perf_counter() - started, objectives


def _time_lowering(problem, population):
    """Vectorized whole-population lowering vs the per-genome
    ``_state_of`` loop, parity-checked: the packed masks must solve to
    the exact damages of the tuple states before either timing counts."""
    genomes = init_population(
        np.random.default_rng(0), population, problem.n_vars
    )
    problem.lower_packed(genomes[:1])  # warm the incidence tables
    started = time.perf_counter()
    packed = problem.lower_packed(genomes)
    vectorized_seconds = time.perf_counter() - started

    started = time.perf_counter()
    states = [problem._state_of(genome) for genome in genomes]
    state_of_seconds = time.perf_counter() - started

    expected = problem._analysis.damage_of_states(states)
    got = problem._analysis.damage_of_packed_states(packed)
    if not np.array_equal(got, expected):
        raise SystemExit(
            f"vectorized-vs-_state_of lowering mismatch at pop {population}"
        )
    return vectorized_seconds, state_of_seconds


def _record_streaming(
    network, spec, parity_population=10_000, full_population=100_000
):
    """Streaming lane-block evaluation at population scale.

    Parity first: a cold ``parity_population`` sweep under the default
    ``max_lane_mb`` budget must be bit-identical to the
    streaming-disabled path (``max_lane_mb=None``, all lanes in one
    block).  Then the ``full_population`` cold sweep is timed under the
    default budget — the population the unchunked path could not
    materialize."""
    streamed = _problem(network, spec)
    unchunked = _problem(network, spec, max_lane_mb=None)
    genomes = init_population(
        np.random.default_rng(1), parity_population, streamed.n_vars
    )
    started = time.perf_counter()
    streamed_objs = streamed.evaluate(genomes)
    streamed_seconds = time.perf_counter() - started
    started = time.perf_counter()
    unchunked_objs = unchunked.evaluate(genomes)
    unchunked_seconds = time.perf_counter() - started
    if not np.array_equal(streamed_objs, unchunked_objs):
        raise SystemExit(
            "streamed-vs-unchunked objective mismatch at pop "
            f"{parity_population}"
        )

    big = _problem(network, spec)
    big_genomes = init_population(
        np.random.default_rng(2), full_population, big.n_vars
    )
    started = time.perf_counter()
    big.evaluate(big_genomes)
    full_seconds = time.perf_counter() - started
    return {
        "parity_population": parity_population,
        "streamed_seconds": streamed_seconds,
        "unchunked_seconds": unchunked_seconds,
        "bit_identical": True,
        "population": full_population,
        "seconds": full_seconds,
        "states_swept": int(big.counters["states_swept"]),
        "max_lane_mb": big.max_lane_mb,
        "block_lanes": big._lane_block(),
    }


def _time_generations(problem, population, generations):
    """Per-generation seconds of a real SPEA-2 loop (initial population
    evaluation and archive churn included — the throughput the EA user
    sees)."""
    optimizer = SPEA2(problem, population_size=population, seed=0)
    started = time.perf_counter()
    optimizer.run(generations)
    return (time.perf_counter() - started) / generations


def write_ea_baseline(
    output: str,
    quick: bool = False,
    population: int = 1_000,
    lowering_output: str | None = None,
) -> dict:
    """Population-batched vs. per-state EA evaluation per design.

    ``quick`` keeps the small design and a reduced population for CI
    sanity passes; the full run records the >= 20x acceptance point on
    the 1091-segment design at population 1000, the vectorized-lowering
    speedup over the per-genome ``_state_of`` loop, and the streaming
    section (pop 10k parity + pop 100k completion under the default
    lane budget).  ``lowering_output`` additionally writes the
    ``ea-lowering`` bench-diff baseline (rows at pop 1000 and 10k).
    """
    sizes = SIZES[:1] if quick else SIZES
    if quick:
        population = min(population, 256)
    # The scalar path pays one 4-BFS pass per genome per generation, so
    # a single generation is enough (and all the full design affords).
    scalar_generations = 1
    batched_generations = 5
    designs = []
    lowering_rows = []
    streaming = None
    for n_segments, n_muxes in sizes:
        network, spec = _build(n_segments, n_muxes)
        _check_parity(network, spec)

        batched_seconds, batched_objs = _time_cold_evaluate(
            _problem(network, spec), population
        )
        scalar_seconds, scalar_objs = _time_cold_evaluate(
            _scalar_problem(network, spec), population
        )
        if not np.array_equal(batched_objs, scalar_objs):
            raise SystemExit(
                f"population objective mismatch on mbist_{n_segments}"
            )

        lowering_populations = [population]
        if not quick and population < 10_000:
            lowering_populations.append(10_000)
        lowering = {}
        for lowering_population in lowering_populations:
            lowering[lowering_population] = _time_lowering(
                _problem(network, spec), lowering_population
            )
            vec, state_of = lowering[lowering_population]
            lowering_rows.append(
                {
                    "design": f"mbist_{n_segments}_{n_muxes}",
                    "n_segments": n_segments,
                    "n_muxes": n_muxes,
                    "population": lowering_population,
                    "vectorized_seconds": vec,
                    "state_of_seconds": state_of,
                    "speedup": state_of / vec if vec > 0 else 0.0,
                }
            )

        batched_generation = _time_generations(
            _problem(network, spec),
            population,
            batched_generations,
        )
        scalar_generation = _time_generations(
            _scalar_problem(network, spec),
            population,
            scalar_generations,
        )

        lowering_vec, lowering_state_of = lowering[population]
        entry = {
            "design": f"mbist_{n_segments}_{n_muxes}",
            "n_segments": n_segments,
            "n_muxes": n_muxes,
            "population": population,
            "batched_eval_seconds": batched_seconds,
            "scalar_eval_seconds": scalar_seconds,
            "eval_speedup": (
                scalar_seconds / batched_seconds
                if batched_seconds > 0
                else 0.0
            ),
            "lowering_vectorized_seconds": lowering_vec,
            "lowering_state_of_seconds": lowering_state_of,
            "lowering_speedup": (
                lowering_state_of / lowering_vec
                if lowering_vec > 0
                else 0.0
            ),
            "batched_generation_seconds": batched_generation,
            "scalar_generation_seconds": scalar_generation,
            "generation_speedup": (
                scalar_generation / batched_generation
                if batched_generation > 0
                else 0.0
            ),
            "parity": True,
        }
        designs.append(entry)
        print(
            f"{entry['design']:18s} pop {population}: "
            f"eval bitset {batched_seconds:.3f}s / "
            f"ir {scalar_seconds:.3f}s "
            f"({entry['eval_speedup']:.1f}x), "
            f"lowering {lowering_vec:.4f}s / "
            f"_state_of {lowering_state_of:.3f}s "
            f"({entry['lowering_speedup']:.1f}x), "
            f"generation bitset {batched_generation:.3f}s / "
            f"ir {scalar_generation:.3f}s "
            f"({entry['generation_speedup']:.1f}x)",
            flush=True,
        )

        if not quick and (n_segments, n_muxes) == sizes[-1]:
            streaming = _record_streaming(network, spec)
            print(
                f"{entry['design']:18s} streaming: "
                f"pop {streaming['parity_population']} "
                f"streamed {streaming['streamed_seconds']:.2f}s vs "
                f"unchunked {streaming['unchunked_seconds']:.2f}s "
                f"(bit-identical), "
                f"pop {streaming['population']} in "
                f"{streaming['seconds']:.1f}s under "
                f"{streaming['max_lane_mb']} MB "
                f"({streaming['block_lanes']} lanes/block)",
                flush=True,
            )

    payload = {
        "benchmark": "ea-population",
        "created": time.strftime("%Y-%m-%d %H:%M:%S"),
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "designs": designs,
        "notes": (
            "FaultSetHardeningProblem population evaluation through the "
            "lane-packed bitset kernel (one fault-set lane per unique "
            "genome, 64 per uint64 word) vs. the pre-batching scalar "
            "path (one damage_of_faults(residual_faults(genome)) call "
            "per genome).  Parity is checked first: a short SPEA-2 run "
            "through the vectorized and the per-genome tuple lowering "
            "must produce bit-identical Pareto fronts, and "
            "the timed population's batched objective matrix must equal "
            "the per-genome scalar one exactly.  eval = one cold "
            "evaluation of a fresh random population; generation = "
            "per-generation wall time of a real SPEA-2 loop (memoized "
            "incremental re-evaluation on the batched side; the scalar "
            "side runs fewer generations because each one sweeps the "
            "whole population at scalar cost).  lowering = one "
            "whole-population PopulationLowering.masks() call "
            "(incidence tables warm) vs the per-genome _state_of merge "
            "loop, parity-checked through the kernel before timing.  "
            "streaming = memo-miss sweeps in max_lane_mb-bounded lane "
            "blocks: pop 10k streamed vs single-block bit-identical, "
            "then the pop-100k cold sweep the single-block path could "
            "not hold in memory."
        ),
    }
    if streaming is not None:
        payload["streaming"] = streaming
    os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")

    if lowering_output:
        lowering_payload = {
            "benchmark": "ea-lowering",
            "created": payload["created"],
            "host": payload["host"],
            "designs": lowering_rows,
            "notes": (
                "Whole-population genome->lane lowering "
                "(PopulationLowering.masks: bit-packed break/pin "
                "incidence gathers) vs the per-genome _state_of merge "
                "loop, on fresh random populations with warm incidence "
                "tables.  Each row is parity-checked before timing: the "
                "packed masks must solve to damages ==-identical to the "
                "tuple states'.  Consumed by the bench-diff regression "
                "gate (metric ea_lowering/<population>)."
            ),
        }
        os.makedirs(os.path.dirname(lowering_output) or ".", exist_ok=True)
        with open(lowering_output, "w", encoding="utf-8") as handle:
            json.dump(lowering_payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {lowering_output}")
    return payload


# ---------------------------------------------------------------------------
# pytest entry points (benchmarks/ is also a pytest-benchmark suite)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("lowering", ["vectorized", "scalar"])
def test_population_evaluate(benchmark, lowering):
    """One cold 256-genome sweep on the small design, both lowerings."""
    network, spec = _build(*SIZES[0])
    problem = _problem(network, spec, lowering)
    genomes = init_population(
        np.random.default_rng(0), 256, problem.n_vars
    )

    objectives = benchmark.pedantic(
        lambda: _problem(network, spec, lowering).evaluate(genomes),
        rounds=1,
        iterations=1,
    )
    assert objectives.shape == (256, 2)
    benchmark.extra_info.update(
        {"lowering": lowering, "population": 256}
    )


def test_population_parity():
    """The parity gate of the baseline writer, standalone."""
    network, spec = _build(*SIZES[0])
    _check_parity(network, spec)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="write the population-batched EA perf baseline"
    )
    parser.add_argument("--output", default="results/BENCH_ea.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="small design and reduced population (CI sanity pass)",
    )
    parser.add_argument(
        "--population", type=int, default=1_000,
        help="timed population size (default 1000; quick caps at 256)",
    )
    parser.add_argument(
        "--lowering-output", default=None,
        help=(
            "also write the ea-lowering bench-diff baseline "
            "(e.g. results/BENCH_ea_lowering.json)"
        ),
    )
    args = parser.parse_args(argv)
    write_ea_baseline(
        args.output,
        quick=args.quick,
        population=args.population,
        lowering_output=args.lowering_output,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
