"""Benchmark-regression gating: fresh hot-path timings vs a baseline.

``results/BENCH_*.json`` records the perf trajectory of the hot paths
(EA population sweeps, campaigns, the service, telemetry overhead) on
the machine that produced them.  ``repro-rsn bench-diff``
re-measures those same workloads — same generated designs, same seeds,
same fault universes — on the current tree and fails when any hot path
slowed down by more than the tolerance, so a perf regression shows up in
the PR that introduced it instead of in the next hand-run benchmark.

The measurement logic deliberately lives under ``src/`` (not in
``benchmarks/``, which is not importable from the installed package):
the CLI and CI call it directly.  Comparisons are ratio-based, so a
baseline recorded on a slower machine only shifts every ratio by the
same factor; a *relative* hot-path regression still stands out.  On
shared CI runners the timings are noisy — that is what ``--soft`` and
best-of-``repeats`` measurement are for — while schema errors (a
baseline that cannot be parsed) always fail hard.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError

__all__ = [
    "BenchComparison",
    "HotPath",
    "RegressionParseError",
    "RegressionReport",
    "compare_baseline",
    "load_hot_paths",
]

#: Seed of the service benchmark's request plan.
_PLAN_SEED = 1234


class RegressionParseError(ReproError):
    """The baseline file is missing, malformed, or of an unknown schema.

    Always a hard failure: a gate that cannot read its baseline must not
    report success.
    """


@dataclass
class HotPath:
    """One re-measurable timing extracted from a baseline file."""

    design: str
    metric: str
    n_segments: int
    n_muxes: int
    baseline_seconds: float
    #: Metric-specific knobs (population, sampled rates, ...).
    params: Dict = field(default_factory=dict)
    #: Per-path tolerance override; ``None`` uses the gate-wide
    #: ``--tolerance`` (telemetry overhead gates at 5% regardless).
    tolerance: Optional[float] = None

    @property
    def label(self) -> str:
        return f"{self.design}/{self.metric}"


@dataclass
class BenchComparison:
    """A hot path's baseline timing next to its fresh measurement."""

    hot_path: HotPath
    fresh_seconds: float

    @property
    def ratio(self) -> float:
        if self.hot_path.baseline_seconds <= 0:
            return float("inf")
        return self.fresh_seconds / self.hot_path.baseline_seconds

    def regressed(self, tolerance: float) -> bool:
        limit = self.hot_path.tolerance
        if limit is None:
            limit = tolerance
        return self.ratio > 1.0 + limit


@dataclass
class RegressionReport:
    benchmark: str
    baseline_path: str
    tolerance: float
    comparisons: List[BenchComparison]
    skipped: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[BenchComparison]:
        return [c for c in self.comparisons if c.regressed(self.tolerance)]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def format(self) -> str:
        lines = [
            f"bench-diff: {self.benchmark} vs {self.baseline_path} "
            f"(tolerance {self.tolerance:.0%})",
            f"{'hot path':34s} {'baseline':>10s} {'fresh':>10s} "
            f"{'ratio':>7s}",
        ]
        for comparison in self.comparisons:
            hot_path = comparison.hot_path
            flag = (
                "  REGRESSED"
                if comparison.regressed(self.tolerance)
                else ""
            )
            lines.append(
                f"{hot_path.label:34s} "
                f"{hot_path.baseline_seconds * 1e3:>8.2f}ms "
                f"{comparison.fresh_seconds * 1e3:>8.2f}ms "
                f"{comparison.ratio:>6.2f}x{flag}"
            )
        for reason in self.skipped:
            lines.append(f"  (skipped {reason})")
        lines.append(
            "result: "
            + (
                "ok"
                if self.ok
                else f"{len(self.regressions)} hot path(s) regressed"
            )
        )
        return "\n".join(lines)

    def as_dict(self) -> Dict:
        return {
            "benchmark": self.benchmark,
            "baseline": self.baseline_path,
            "tolerance": self.tolerance,
            "ok": self.ok,
            "comparisons": [
                {
                    "label": c.hot_path.label,
                    "baseline_seconds": c.hot_path.baseline_seconds,
                    "fresh_seconds": c.fresh_seconds,
                    "ratio": c.ratio,
                    "regressed": c.regressed(self.tolerance),
                }
                for c in self.comparisons
            ],
            "skipped": list(self.skipped),
        }


# ---------------------------------------------------------------------------
# baseline parsing
# ---------------------------------------------------------------------------
def _require(row: Dict, key: str, path: str):
    if key not in row:
        raise RegressionParseError(
            f"{path}: baseline row missing key {key!r}"
        )
    return row[key]


def load_hot_paths(path: str) -> Tuple[str, List[HotPath]]:
    """Parse a ``BENCH_*.json`` baseline into re-measurable hot paths.

    Raises :class:`RegressionParseError` on unreadable files, unknown
    ``benchmark`` kinds, or rows without the expected timing fields.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise RegressionParseError(
            f"cannot read baseline {path}: {exc}"
        ) from None
    if not isinstance(payload, dict):
        raise RegressionParseError(f"{path}: baseline must be an object")
    benchmark = payload.get("benchmark")
    rows = payload.get("designs")
    if not isinstance(rows, list) or not rows:
        raise RegressionParseError(
            f"{path}: baseline has no 'designs' rows"
        )
    hot_paths: List[HotPath] = []
    for row in rows:
        if not isinstance(row, dict):
            raise RegressionParseError(f"{path}: design row is not an object")
        design = str(_require(row, "design", path))
        n_segments = int(_require(row, "n_segments", path))
        n_muxes = int(_require(row, "n_muxes", path))
        if benchmark == "ea-population":
            hot_paths.append(
                HotPath(
                    design=design,
                    metric="ea_batched_eval",
                    n_segments=n_segments,
                    n_muxes=n_muxes,
                    baseline_seconds=float(
                        _require(row, "batched_eval_seconds", path)
                    ),
                    params={
                        "population": int(_require(row, "population", path))
                    },
                )
            )
        elif benchmark == "ea-lowering":
            population = int(_require(row, "population", path))
            hot_paths.append(
                HotPath(
                    design=design,
                    metric=f"ea_lowering/{population}",
                    n_segments=n_segments,
                    n_muxes=n_muxes,
                    baseline_seconds=float(
                        _require(row, "vectorized_seconds", path)
                    ),
                    params={"population": population},
                )
            )
        elif benchmark == "service-latency":
            sharded = _require(row, "sharded", path)
            if not isinstance(sharded, dict) or "p50_seconds" not in sharded:
                raise RegressionParseError(
                    f"{path}: row {design!r} has no sharded.p50_seconds"
                )
            hot_paths.append(
                HotPath(
                    design=design,
                    metric="service_p50",
                    n_segments=n_segments,
                    n_muxes=n_muxes,
                    baseline_seconds=float(sharded["p50_seconds"]),
                    params={
                        "requests": int(sharded.get("requests", 200)),
                        "concurrency": int(sharded.get("concurrency", 16)),
                        "workers": int(row.get("workers", 2)),
                        "shards": int(row.get("shards", 8)),
                    },
                )
            )
        elif benchmark == "campaign":
            montecarlo = _require(row, "montecarlo", path)
            diagnosis = _require(row, "diagnosis", path)
            for section, key in (
                (montecarlo, "seconds"),
                (diagnosis, "campaign_seconds"),
            ):
                if not isinstance(section, dict) or key not in section:
                    raise RegressionParseError(
                        f"{path}: row {design!r} has no campaign {key}"
                    )
            hot_paths.append(
                HotPath(
                    design=design,
                    metric="campaign_mc",
                    n_segments=n_segments,
                    n_muxes=n_muxes,
                    baseline_seconds=float(montecarlo["seconds"]),
                    params={
                        "rates": [
                            float(r) for r in montecarlo.get(
                                "rates", [0.001, 0.01]
                            )
                        ],
                        "samples": int(montecarlo.get("samples", 1000)),
                    },
                )
            )
            hot_paths.append(
                HotPath(
                    design=design,
                    metric="campaign_diagnosis",
                    n_segments=n_segments,
                    n_muxes=n_muxes,
                    baseline_seconds=float(
                        diagnosis["campaign_seconds"]
                    ),
                    params={
                        "observations": int(
                            diagnosis.get("observations", 256)
                        ),
                        "noise": float(diagnosis.get("noise", 0.25)),
                    },
                )
            )
        elif benchmark == "telemetry-overhead":
            hot_paths.append(
                HotPath(
                    design=design,
                    metric="telemetry_overhead",
                    n_segments=n_segments,
                    n_muxes=n_muxes,
                    baseline_seconds=float(
                        _require(row, "disabled_seconds", path)
                    ),
                    params={
                        "history_interval": float(
                            row.get("history_interval", 0.05)
                        )
                    },
                    tolerance=float(row.get("tolerance", 0.05)),
                )
            )
        else:
            raise RegressionParseError(
                f"{path}: unknown benchmark kind {benchmark!r}"
            )
    return str(benchmark), hot_paths


# ---------------------------------------------------------------------------
# fresh measurement
# ---------------------------------------------------------------------------
def _build(hot_path: HotPath):
    from ..rsn.ast import elaborate
    from ..spec import spec_for_network
    from .generators import mbist_network

    network = elaborate(
        mbist_network(hot_path.n_segments, hot_path.n_muxes, seed=0)
    )
    return network, spec_for_network(network, seed=0)


def _all_faults(network) -> List:
    from ..analysis.faults import faults_of_primitive
    from ..rsn.primitives import NodeKind

    faults: List = []
    for node in network.nodes():
        if node.kind in (NodeKind.SEGMENT, NodeKind.MUX):
            faults.extend(faults_of_primitive(network, node.name))
    return faults


def _measure_once(hot_path: HotPath, network, spec) -> float:
    from ..analysis import GraphDamageAnalysis

    if hot_path.metric == "ea_batched_eval":
        # Mirror bench_ea_population: problem + population built outside
        # the timer, one cold batched evaluate inside it.
        import numpy as np

        from ..core.problem import FaultSetHardeningProblem
        from ..ea import init_population
        from ..spec.cost_model import GateCountCost

        analysis = GraphDamageAnalysis(network, spec)
        problem = FaultSetHardeningProblem(
            network, analysis.report(), GateCountCost(), analysis
        )
        genomes = init_population(
            np.random.default_rng(0),
            hot_path.params["population"],
            problem.n_vars,
        )
        started = time.perf_counter()
        problem.evaluate(genomes)
        return time.perf_counter() - started
    if hot_path.metric.startswith("ea_lowering/"):
        # Mirror bench_ea_population._time_lowering: incidence tables
        # warmed outside the timer, one whole-population lower_packed
        # call inside it.
        import numpy as np

        from ..core.problem import FaultSetHardeningProblem
        from ..ea import init_population
        from ..spec.cost_model import GateCountCost

        analysis = GraphDamageAnalysis(network, spec)
        problem = FaultSetHardeningProblem(
            network, analysis.report(), GateCountCost(), analysis
        )
        genomes = init_population(
            np.random.default_rng(0),
            hot_path.params["population"],
            problem.n_vars,
        )
        problem.lower_packed(genomes[:1])
        started = time.perf_counter()
        problem.lower_packed(genomes)
        return time.perf_counter() - started
    if hot_path.metric == "campaign_mc":
        # Mirror bench_campaigns: analysis built outside the timer, one
        # vectorized rate sweep (sampling + lane-block solves) inside.
        from ..campaigns import MonteCarloPlan, run_monte_carlo

        analysis = GraphDamageAnalysis(network, spec)
        plan = MonteCarloPlan(
            rates=tuple(hot_path.params["rates"]),
            samples=hot_path.params["samples"],
            seed=0,
            bootstrap=0,
        )
        started = time.perf_counter()
        run_monte_carlo(analysis, plan)
        return time.perf_counter() - started
    if hot_path.metric == "campaign_diagnosis":
        # Mirror bench_campaigns: signature matrix prebuilt outside the
        # timer, one diagnosis campaign over it inside.
        from ..campaigns import (
            DiagnosisPlan,
            effect_signature_matrix,
            run_diagnosis,
        )

        analysis = GraphDamageAnalysis(network, spec)
        matrix = effect_signature_matrix(analysis)
        plan = DiagnosisPlan(
            observations=hot_path.params["observations"],
            seed=0,
            noise=hot_path.params["noise"],
        )
        started = time.perf_counter()
        run_diagnosis(analysis, plan, matrix=matrix)
        return time.perf_counter() - started
    raise RegressionParseError(f"unknown metric {hot_path.metric!r}")


def _measure_service(hot_path: HotPath, repeats: int) -> float:
    """Best-of-``repeats`` p50 /damage latency on the sharded stack.

    Boots the exact baseline configuration (asyncio front-end, worker
    pool, coalescer window) once, replays the recorded request plan
    ``repeats`` times and keeps the best median.  Every response is
    checked against a direct in-process damage vector first — a parity
    failure is a correctness bug, not a slow run, and fails hard.
    """
    import statistics
    import tempfile
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from ..analysis import GraphDamageAnalysis
    from ..analysis.faults import iter_all_faults
    from ..service import AnalysisService, AsyncServerThread, ServiceClient
    from ..spec import spec_for_network
    from .designs import build_design

    params = hot_path.params
    network = build_design(hot_path.design)
    spec = spec_for_network(network, seed=0)
    faults = list(iter_all_faults(network))
    direct = [
        float(d)
        for d in GraphDamageAnalysis(network, spec).damage_vector(faults)
    ]
    plan = [
        random.Random(_PLAN_SEED + offset).randrange(len(faults))
        for offset in range(params["requests"])
    ]
    best = float("inf")
    with tempfile.TemporaryDirectory(prefix="repro-bench-diff-") as tmp:
        service = AnalysisService(
            cache_dir=tmp,
            workers=2,
            shard_workers=params["workers"],
            shards=params["shards"],
        )
        server = AsyncServerThread(service, host="127.0.0.1", port=0)
        try:
            client = ServiceClient(server.url, timeout=120.0)
            fingerprint = client.upload_network(
                design=hot_path.design
            )["fingerprint"]
            if client.damage(fingerprint, faults, seed=0) != direct:
                raise ReproError(
                    f"{hot_path.design}: sharded /damage diverged from "
                    "direct GraphDamageAnalysis during bench-diff"
                )
            local = threading.local()

            def one(index):
                thread_client = getattr(local, "client", None)
                if thread_client is None:
                    thread_client = local.client = ServiceClient(
                        server.url, timeout=120.0
                    )
                started = time.perf_counter()
                thread_client.damage(
                    fingerprint, [faults[index]], seed=0
                )
                return time.perf_counter() - started

            for _ in range(repeats):
                with ThreadPoolExecutor(
                    max_workers=params["concurrency"]
                ) as executor:
                    latencies = list(executor.map(one, plan))
                best = min(best, statistics.median(latencies))
        finally:
            server.stop()
            service.close(drain=False)
    return best


def _measure_telemetry(hot_path: HotPath, repeats: int) -> float:
    """Telemetry-overhead gate: the same bitset batch sweep with the
    metrics-history sampler + structured logging enabled vs disabled.

    Both sides are measured fresh on this machine in this run —
    ``hot_path.baseline_seconds`` is *overwritten* with the fresh
    disabled timing, so the reported ratio is pure enabled/disabled
    overhead, immune to the machine that recorded the baseline file.
    The two sides are measured *interleaved* (disabled, enabled,
    disabled, enabled, ...) so slow drift — thermal throttling, page
    cache, allocator state — lands on both sides instead of biasing
    whichever happened to run second, and both keep their best-of.
    """
    from ..analysis import GraphDamageAnalysis
    from ..obs.history import MetricsHistory
    from ..obs.log import LogBuffer, capturing

    network, spec = _build(hot_path)
    faults = _all_faults(network)

    def sweep() -> float:
        analysis = GraphDamageAnalysis(network, spec)
        started = time.perf_counter()
        analysis.damage_vector(faults)
        return time.perf_counter() - started

    sweep()  # warm numpy / kernel code paths outside both timings
    disabled = math.inf
    enabled = math.inf
    # A 5% gate needs more best-of samples than a 20% one; sweeps are
    # tens of milliseconds, so the extra pairs are cheap.
    for _ in range(max(repeats, 5)):
        disabled = min(disabled, sweep())
        history = MetricsHistory(
            interval=hot_path.params["history_interval"], window=64
        ).start()
        try:
            with capturing(LogBuffer()):
                enabled = min(enabled, sweep())
        finally:
            history.stop()
    hot_path.baseline_seconds = disabled
    return enabled


def measure_hot_path(hot_path: HotPath, repeats: int = 3) -> float:
    """Best-of-``repeats`` fresh timing of one hot path (fresh analysis
    objects per repeat, so construction is included exactly as the
    baselines recorded it)."""
    if hot_path.metric == "service_p50":
        return _measure_service(hot_path, repeats)
    if hot_path.metric == "telemetry_overhead":
        return _measure_telemetry(hot_path, repeats)
    network, spec = _build(hot_path)
    return min(
        _measure_once(hot_path, network, spec) for _ in range(repeats)
    )


def compare_baseline(
    path: str,
    tolerance: float = 0.2,
    repeats: int = 3,
    max_segments: Optional[int] = None,
) -> RegressionReport:
    """Re-measure every hot path of a baseline and compare.

    ``max_segments`` skips designs above that size (reported in the
    ``skipped`` list, never silently) to bound the gate's runtime.
    """
    benchmark, hot_paths = load_hot_paths(path)
    comparisons: List[BenchComparison] = []
    skipped: List[str] = []
    for hot_path in hot_paths:
        if max_segments is not None and hot_path.n_segments > max_segments:
            skipped.append(
                f"{hot_path.label}: {hot_path.n_segments} segments > "
                f"--max-segments {max_segments}"
            )
            continue
        fresh = measure_hot_path(hot_path, repeats=repeats)
        comparisons.append(BenchComparison(hot_path, fresh))
    return RegressionReport(
        benchmark=benchmark,
        baseline_path=path,
        tolerance=tolerance,
        comparisons=comparisons,
        skipped=skipped,
    )
