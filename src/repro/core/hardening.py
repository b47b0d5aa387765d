"""The end-to-end robust-RSN synthesis flow (the paper's method).

:class:`SelectiveHardening` ties everything together:

1. decompose the RSN into its binary decomposition tree (Sec. III);
2. run the criticality analysis against an explicit specification
   (Sec. IV), producing every primitive's damage ``d_j``;
3. pose the bi-objective hardening problem (Eq. 2 / Eq. 3) over the
   control primitives and solve it with SPEA-2 (Sec. V) — or NSGA-II, or
   the exact/greedy linear baselines;
4. extract the Table-I solutions (min-cost at <=10 % damage, min-damage at
   <=10 % cost) and optionally verify that all important instruments stay
   accessible.

The resulting RSN keeps its topology: the output is purely a list of spots
to implement with hardened (high-yield) cells, so every existing access,
test and diagnosis pattern remains valid.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from typing import Optional

import numpy as np

from ..analysis.damage import DamageReport
from ..analysis.engine import (
    CriticalityEngine,
    EngineStats,
    analysis_fingerprint,
)
from ..ea.nsga2 import NSGA2
from ..ea.result import EAResult
from ..ea.spea2 import SPEA2
from ..errors import NotSeriesParallelError, OptimizationError
from ..rsn.network import RsnNetwork
from ..sp.reduce import decompose
from ..sp.tree import SPTree
from ..spec.cost_model import CostModel, GateCountCost
from ..spec.criticality import CriticalitySpec, spec_for_network
from . import baselines
from .problem import FaultSetHardeningProblem, HardeningProblem
from .result import HardeningResult

#: Bump whenever the EA trajectory semantics change (operators, selection,
#: problem lowering), so stale cached runs can never be replayed.
EA_CACHE_VERSION = "1"

_OBJECTIVES = ("linear", "fault-set")


def default_population_size(network: RsnNetwork) -> int:
    """The paper's rule: 300 for networks with more than 100 muxes,
    100 otherwise (Sec. VI)."""
    _, n_muxes = network.counts()
    return 300 if n_muxes > 100 else 100


class SelectiveHardening:
    """Synthesize a robust RSN by selectively hardening control spots."""

    def __init__(
        self,
        network: RsnNetwork,
        spec: Optional[CriticalitySpec] = None,
        cost_model: Optional[CostModel] = None,
        tree: Optional[SPTree] = None,
        policy: str = "max",
        hardenable: str = "all",
        damage_sites: str = "all",
        seed: int = 0,
        cache_dir: Optional[str] = None,
        chunk_lanes: int = 64,
        max_cache_mb: Optional[float] = None,
        objective: str = "linear",
        max_lane_mb: Optional[float] = 64.0,
    ):
        if objective not in _OBJECTIVES:
            raise OptimizationError(
                f"objective must be one of {_OBJECTIVES}, got {objective!r}"
            )
        self.network = network
        self.spec = spec if spec is not None else spec_for_network(
            network, seed=seed
        )
        self.cost_model = cost_model if cost_model is not None else GateCountCost()
        if tree is not None:
            self.tree = tree
        else:
            try:
                self.tree = decompose(network)
            except NotSeriesParallelError:
                # non-SP network: the engine routes it to the bitset
                # kernel (see repro.analysis.route)
                self.tree = None
        self.policy = policy
        self.hardenable = hardenable
        self.damage_sites = damage_sites
        self.seed = seed
        self.cache_dir = cache_dir
        self.chunk_lanes = chunk_lanes
        self.max_cache_mb = max_cache_mb
        self.objective = objective
        #: Streaming lane-block memory budget of the fault-set objective
        #: (None = solve every memo miss in one block).
        self.max_lane_mb = max_lane_mb
        #: Outcome of the EA run cache on the last ``optimize()`` call:
        #: "disabled" | "hit" | "miss".
        self.last_ea_cache = "disabled"
        self.analysis_stats: Optional[EngineStats] = None
        self._engine: Optional[CriticalityEngine] = None
        self._report: Optional[DamageReport] = None
        self._problem: Optional[HardeningProblem] = None

    # ------------------------------------------------------------------
    @property
    def engine(self) -> CriticalityEngine:
        """The (cached) criticality engine behind :attr:`report` and the
        population damage queries of the fault-set objective."""
        if self._engine is None:
            self._engine = CriticalityEngine(
                self.network,
                self.spec,
                tree=self.tree,
                policy=self.policy,
                cache_dir=self.cache_dir,
                chunk_lanes=self.chunk_lanes,
                max_cache_mb=self.max_cache_mb,
            )
        return self._engine

    @property
    def report(self) -> DamageReport:
        """The criticality analysis (computed once, reused everywhere)."""
        if self._report is None:
            self._report = self.engine.report(sites=self.damage_sites)
            self.analysis_stats = self.engine.stats
        return self._report

    @property
    def problem(self) -> HardeningProblem:
        if self._problem is None:
            if self.objective == "fault-set":
                report = self.report  # also primes the engine + stats
                self._problem = FaultSetHardeningProblem(
                    self.network,
                    report,
                    self.cost_model,
                    analysis=self.engine.population_analysis(),
                    hardenable=self.hardenable,
                    evaluate_states=self.engine.population_damages,
                    evaluate_packed=self.engine.population_damages_packed,
                    max_lane_mb=self.max_lane_mb,
                )
            else:
                self._problem = HardeningProblem(
                    self.network,
                    self.report,
                    self.cost_model,
                    hardenable=self.hardenable,
                )
        return self._problem

    @property
    def max_cost(self) -> float:
        """Table I column 4: cost of hardening every candidate."""
        return self.problem.max_cost

    @property
    def max_damage(self) -> float:
        """Table I column 5: total damage with nothing hardened."""
        return self.problem.max_damage

    # ------------------------------------------------------------------
    def optimize(
        self,
        generations: int = 300,
        population_size: Optional[int] = None,
        algorithm: str = "spea2",
        p_crossover: float = 0.95,
        p_mutation: float = 0.01,
        seed: Optional[int] = None,
        early_stop=None,
    ) -> HardeningResult:
        """Run the evolutionary synthesis and return the Pareto outcome.

        Defaults follow Sec. VI: SPEA-2, one-point crossover at 0.95,
        independent bit mutation at 0.01, population size by the
        100/300-mux rule.
        """
        if population_size is None:
            population_size = default_population_size(self.network)
        seed = self.seed if seed is None else seed

        problem = self.problem
        # EA run cache: repeated optimizations of an identical problem
        # with identical EA parameters replay the stored archive instead
        # of re-evolving (``early_stop`` callbacks are opaque, so runs
        # using one are never cached).
        key = None
        self.last_ea_cache = "disabled"
        if self.cache_dir and early_stop is None:
            key = self._ea_cache_key(
                algorithm,
                generations,
                population_size,
                p_crossover,
                p_mutation,
                seed,
            )
            cached = self._load_ea_cached(key, problem.n_vars)
            if cached is not None:
                self.last_ea_cache = "hit"
                ea_result, load_seconds = cached
                genomes, objectives = ea_result.front()
                return HardeningResult(
                    problem,
                    genomes,
                    objectives,
                    ea_result=ea_result,
                    runtime_seconds=load_seconds,
                )
            self.last_ea_cache = "miss"

        if algorithm == "spea2":
            optimizer = SPEA2(
                problem,
                population_size=population_size,
                p_crossover=p_crossover,
                p_mutation=p_mutation,
                seed=seed,
            )
        elif algorithm == "nsga2":
            optimizer = NSGA2(
                problem,
                population_size=population_size,
                p_crossover=p_crossover,
                p_mutation=p_mutation,
                seed=seed,
            )
        else:
            raise OptimizationError(f"unknown algorithm {algorithm!r}")

        started = time.perf_counter()
        ea_result = optimizer.run(generations, early_stop=early_stop)
        elapsed = time.perf_counter() - started
        if key is not None:
            self._store_ea_cached(key, ea_result, problem.n_vars)
        genomes, objectives = ea_result.front()
        return HardeningResult(
            problem,
            genomes,
            objectives,
            ea_result=ea_result,
            runtime_seconds=elapsed,
        )

    # -- EA run cache ----------------------------------------------------
    def _ea_cache_key(
        self,
        algorithm: str,
        generations: int,
        population_size: int,
        p_crossover: float,
        p_mutation: float,
        seed: int,
    ) -> str:
        """SHA-256 over everything the EA trajectory depends on.

        The engine's analysis fingerprint alone is NOT enough — it omits
        the EA seed and population parameters, which is exactly the
        ``table1`` re-run bug this cache fixes: identical analyses with
        different EA settings must key different entries.  The candidate
        vectors are hashed too, folding in the cost model.
        """
        problem = self.problem
        candidates = hashlib.sha256()
        candidates.update(
            "\x00".join(problem.candidates).encode("utf-8")
        )
        candidates.update(problem.costs.tobytes())
        candidates.update(problem.damages.tobytes())
        payload = {
            "ea_version": EA_CACHE_VERSION,
            "analysis": analysis_fingerprint(
                self.network, self.spec, self.policy, self.damage_sites
            ),
            "objective": self.objective,
            "hardenable": self.hardenable,
            "candidates": candidates.hexdigest(),
            "algorithm": algorithm,
            "generations": int(generations),
            "population_size": int(population_size),
            "p_crossover": float(p_crossover),
            "p_mutation": float(p_mutation),
            "seed": int(seed),
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def _ea_cache_path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"ea-{key}.json")

    def _store_ea_cached(
        self, key: str, result: EAResult, n_vars: int
    ) -> None:
        genomes = np.asarray(result.genomes, dtype=bool)
        payload = {
            "version": EA_CACHE_VERSION,
            "n_vars": int(n_vars),
            "algorithm": result.algorithm,
            "genomes": [
                np.packbits(row).tobytes().hex() for row in genomes
            ],
            "objectives": [
                [float(value) for value in row]
                for row in np.asarray(result.objectives, dtype=float)
            ],
            "history": result.history,
            "generations": int(result.generations),
            "n_evaluations": int(result.n_evaluations),
            "seed": int(result.seed),
            "reference": (
                [float(value) for value in result.reference]
                if result.reference is not None
                else None
            ),
        }
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=self.cache_dir, suffix=".tmp"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(payload, default=float))
            os.replace(tmp_path, self._ea_cache_path(key))
        except OSError:
            pass  # a read-only cache dir must not fail the optimization

    def _load_ea_cached(self, key: str, n_vars: int):
        """(EAResult, load seconds) or None (absent/stale/corrupt)."""
        path = self._ea_cache_path(key)
        started = time.perf_counter()
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            if (
                payload.get("version") != EA_CACHE_VERSION
                or payload.get("n_vars") != n_vars
            ):
                return None
            rows = [
                np.unpackbits(
                    np.frombuffer(bytes.fromhex(text), dtype=np.uint8)
                )[:n_vars].astype(bool)
                for text in payload["genomes"]
            ]
            genomes = np.asarray(rows, dtype=bool).reshape(
                len(rows), n_vars
            )
            result = EAResult(
                algorithm=str(payload["algorithm"]),
                genomes=genomes,
                objectives=np.asarray(payload["objectives"], dtype=float),
                history=list(payload["history"]),
                generations=int(payload["generations"]),
                n_evaluations=int(payload["n_evaluations"]),
                seed=int(payload["seed"]),
                reference=(
                    tuple(payload["reference"])
                    if payload.get("reference")
                    else None
                ),
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None
        try:
            os.utime(path)  # LRU touch, matching the engine's cache
        except OSError:
            pass
        return result, time.perf_counter() - started

    def exact_front(self) -> HardeningResult:
        """The supported Pareto points of the linear problem — the exact
        reference the EA front is judged against in the benchmarks."""
        problem = self.problem
        started = time.perf_counter()
        order, points = baselines.supported_front(problem)
        elapsed = time.perf_counter() - started
        # Materialize a genome per supported point lazily is preferable for
        # huge candidate sets; for the result object we keep the prefix
        # memberships as packed rows only when affordable.
        count = len(points)
        if problem.n_vars * count <= 4_000_000:
            genomes = np.zeros((count, problem.n_vars), dtype=bool)
            for length in range(1, count):
                genomes[length, order[:length]] = True
        else:
            # Too big to materialize: expose only the two extremes.
            genomes = np.zeros((2, problem.n_vars), dtype=bool)
            genomes[1, :] = True
            points = points[[0, -1]]
        return HardeningResult(
            problem, genomes, points, runtime_seconds=elapsed
        )

    def greedy_result(
        self,
        damage_fraction: float = 0.10,
        cost_fraction: float = 0.10,
    ) -> HardeningResult:
        """The two greedy Table-I extractions as a two-point result."""
        problem = self.problem
        started = time.perf_counter()
        genomes = []
        min_cost = baselines.greedy_min_cost(
            problem, damage_fraction * problem.max_damage
        )
        if min_cost is not None:
            genomes.append(min_cost)
        genomes.append(
            baselines.greedy_min_damage(
                problem, cost_fraction * problem.max_cost
            )
        )
        elapsed = time.perf_counter() - started
        matrix = np.vstack(genomes)
        return HardeningResult(
            problem,
            matrix,
            problem.evaluate(matrix),
            runtime_seconds=elapsed,
        )
