"""In-process side of the ``table1-linear`` and ``campaign-mc`` workloads
(and the reference damages of ``service-damage``).

Started by ``run.py`` as ``python3 perfbench/child.py '<json args>'``;
prints one JSON object as its last stdout line.  Roles:

* ``table1`` / ``campaign`` — time the workload's set-up, then (unless
  ``setup_only``) run operations in a closed loop for ``seconds`` and
  check each against the stored reference.  Operations walk a fixed
  pool of inputs in a fixed order, so every run sees identical inputs:
  peak RSS depends on the order (heap reuse), not only on the set.  With ``trace`` set, every
  pool entry runs twice, once plain and once under :class:`LayerClock`
  wrappers, so per-layer self times and the tracing overhead come from
  the same inputs;
* ``service-refs`` — the direct bitset damage of every single fault of
  the service design, computed before any server starts.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

# Started before the program's package is imported: table1 set-up
# includes the import.
T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import LayerClock  # noqa: E402

TABLE1 = {
    "design": "MBIST_2_20_20",
    "scale_generations": 0.05,
    "pool": list(range(8)),
    "warmup_seed": 100,
}
CAMPAIGN = {
    "design": "MBIST_2_20_20",
    "spec_seed": 0,
    "rates": [0.001, 0.01, 0.05],
    "samples": 128,
    "pool": list(range(1000, 1032)),
    "warmup_seed": 999,
}
SERVICE = {"design": "MBIST_2_5_5", "spec_seed": 0}

#: Relative tolerance for floats that numpy reductions produce
#: (std, bootstrap quantiles); everything else compares exactly.
REL_TOL = 1e-9


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def same(expected, actual) -> bool:
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and expected.keys() == actual.keys()
            and all(same(expected[k], actual[k]) for k in expected)
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, (list, tuple))
            and len(expected) == len(actual)
            and all(same(e, a) for e, a in zip(expected, actual))
        )
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        return abs(expected - actual) <= REL_TOL * max(1.0, abs(expected))
    return expected == actual


# ---------------------------------------------------------------------------
# table1-linear
# ---------------------------------------------------------------------------
def table1_row(seed: int, cache_dir: str):
    from repro.bench import run_design

    return run_design(
        TABLE1["design"],
        scale_generations=TABLE1["scale_generations"],
        seed=seed,
        cache_dir=cache_dir,
    )


def table1_record(row) -> dict:
    """The checked outputs of one row (all integral-valued)."""
    return {
        "generations": row.generations,
        "max_cost": row.max_cost,
        "max_damage": row.max_damage,
        "min_cost": [row.min_cost_cost, row.min_cost_damage],
        "min_damage": [row.min_damage_cost, row.min_damage_damage],
        "greedy": [row.greedy_min_cost_cost, row.greedy_min_damage_damage],
        "front_size": row.front_size,
    }


def table1_clock() -> LayerClock:
    import repro.analysis.engine as engine
    import repro.bench.designs as designs
    import repro.bench.table1 as table1
    import repro.core.hardening as hardening
    import repro.core.problem as problem
    import repro.ea.spea2 as spea2
    import repro.ir.compiled as compiled

    clock = LayerClock()
    clock.wrap(designs.DesignInfo, "build", "bench.build")
    clock.wrap(compiled, "compile_network", "ir.intern")
    clock.wrap(table1, "spec_for_network", "spec.spec")
    clock.wrap(hardening, "decompose", "sp.decompose")
    clock.wrap(engine.CriticalityEngine, "report", "analysis.report")
    clock.wrap(problem.HardeningProblem, "__init__", "core.problem")
    clock.wrap(
        spea2.SPEA2,
        "run",
        "ea.optimize",
        count=lambda args, result: result.n_evaluations,
    )
    clock.wrap(
        hardening.SelectiveHardening, "greedy_result", "core.greedy"
    )
    return clock


def run_table1(args: dict) -> dict:
    import repro.bench  # noqa: F401 - the timed package import

    work = args["work"]
    table1_row(TABLE1["warmup_seed"], os.path.join(work, "warmup-cache"))
    out = {"setup_s": time.perf_counter() - T_START}
    if args.get("setup_only"):
        return out
    refs = load_refs("table1-linear")

    pool = TABLE1["pool"]

    def op(index: int, traced: bool) -> dict:
        seed = pool[index % len(pool)]
        cache_dir = os.path.join(work, f"cache-{index}-{int(traced)}")
        clock = table1_clock() if traced else None
        started = time.perf_counter()
        try:
            row = table1_row(seed, cache_dir)
        finally:
            if clock is not None:
                clock.restore()
        latency = time.perf_counter() - started
        ok = (
            same(refs["rows"][str(seed)], table1_record(row))
            and row.ea_cache == "miss"
            and (row.analysis_stats or {}).get("cache") == "miss"
        )
        result = {"latency_s": latency, "ok": ok}
        if clock is not None:
            result["self_s"] = dict(clock.self_s)
            result["counts"] = dict(clock.counts)
            result["generations"] = row.generations
            result["engine_cache_hit"] = int(
                (row.analysis_stats or {}).get("cache") == "hit"
            )
        return result

    out.update(closed_loop(op, args["seconds"], bool(args.get("trace"))))
    out["peak_rss_mb"] = rss_mb()
    out["pool_size"] = len(pool)
    return out


# ---------------------------------------------------------------------------
# campaign-mc
# ---------------------------------------------------------------------------
def campaign_inputs():
    from repro.bench import build_design
    from repro.spec.criticality import spec_for_network

    network = build_design(CAMPAIGN["design"])
    return network, spec_for_network(network, seed=CAMPAIGN["spec_seed"])


def campaign_run(analysis, seed: int, checkpoint: str) -> dict:
    from repro.campaigns import MonteCarloPlan, run_campaign

    plan = MonteCarloPlan(
        rates=tuple(CAMPAIGN["rates"]),
        samples=CAMPAIGN["samples"],
        seed=seed,
    )
    return run_campaign(analysis, plan, checkpoint_path=checkpoint)


def campaign_record(result: dict) -> dict:
    return {
        "blocks_total": result["blocks_total"],
        "blocks_completed": result["blocks_completed"],
        "blocks_resumed": result["blocks_resumed"],
        "outcome": result["outcome"],
        "records": result["records"],
    }


def campaign_clock() -> LayerClock:
    import repro.analysis.graph_analysis as graph_analysis
    import repro.campaigns.checkpoint as checkpoint
    import repro.campaigns.montecarlo as montecarlo

    clock = LayerClock()
    for name in ("campaign_sites", "site_candidates", "vectorized_samples"):
        clock.wrap(montecarlo, name, "campaigns.sample")
    clock.wrap(
        graph_analysis.GraphDamageAnalysis,
        "damage_of_fault_sets",
        "analysis.kernel",
        count=lambda args, result: len(args[1]),
    )
    for name in ("begin", "append"):
        clock.wrap(checkpoint.CheckpointStore, name, "campaigns.checkpoint")
    return clock


def run_campaign_workload(args: dict) -> dict:
    import repro.campaigns  # noqa: F401 - imports are not set-up work
    from repro.analysis.graph_analysis import GraphDamageAnalysis

    work = args["work"]
    refs = load_refs("campaign-mc")
    network, spec = campaign_inputs()
    started = time.perf_counter()
    analysis = GraphDamageAnalysis(network, spec, backend="bitset")
    campaign_run(
        analysis, CAMPAIGN["warmup_seed"], os.path.join(work, "warmup.ckpt")
    )
    out = {"setup_s": time.perf_counter() - started}
    if args.get("setup_only"):
        return out

    pool = CAMPAIGN["pool"]

    def op(index: int, traced: bool) -> dict:
        seed = pool[index % len(pool)]
        path = os.path.join(work, f"c-{index}-{int(traced)}.ckpt")
        clock = campaign_clock() if traced else None
        started = time.perf_counter()
        try:
            result = campaign_run(analysis, seed, path)
        finally:
            if clock is not None:
                clock.restore()
        latency = time.perf_counter() - started
        record = {
            "latency_s": latency,
            "ok": same(refs["campaigns"][str(seed)], campaign_record(result)),
        }
        if clock is not None:
            record["self_s"] = dict(clock.self_s)
            record["counts"] = dict(clock.counts)
            record["blocks"] = result["blocks_completed"]
        return record

    out.update(closed_loop(op, args["seconds"], bool(args.get("trace"))))
    out["peak_rss_mb"] = rss_mb()
    out["pool_size"] = len(pool)
    return out


# ---------------------------------------------------------------------------
# shared loop, references
# ---------------------------------------------------------------------------
def closed_loop(op, seconds: float, trace: bool) -> dict:
    """Operations back to back until ``seconds`` have passed.

    Untraced: one op per step.  Traced: each step runs its input as a
    plain/traced pair, alternating which goes first.
    """
    ops = []
    started = time.perf_counter()
    index = 0
    while time.perf_counter() - started < seconds:
        if not trace:
            ops.append(op(index, False))
        else:
            order = (False, True) if index % 2 == 0 else (True, False)
            pair = {traced: op(index, traced) for traced in order}
            ops.append(pair[False])
            ops.append({**pair[True], "traced": True})
        index += 1
    return {"ops": ops, "elapsed_s": time.perf_counter() - started}


def load_refs(name: str) -> dict:
    with open(os.path.join(HERE, "refs", f"{name}.json")) as handle:
        return json.load(handle)


def service_refs() -> dict:
    from repro.analysis.faults import fault_to_dict, iter_all_faults
    from repro.analysis.graph_analysis import GraphDamageAnalysis
    from repro.bench import build_design
    from repro.spec.criticality import spec_for_network

    network = build_design(SERVICE["design"])
    spec = spec_for_network(network, seed=SERVICE["spec_seed"])
    faults = list(iter_all_faults(network))
    analysis = GraphDamageAnalysis(network, spec, backend="bitset")
    damages = analysis.damage_vector(faults)
    return {
        "design": SERVICE["design"],
        "faults": [fault_to_dict(f) for f in faults],
        "damages": [float(d) for d in damages],
    }


def main() -> int:
    args = json.loads(sys.argv[1])
    role = args["role"]
    if role == "table1":
        out = run_table1(args)
    elif role == "campaign":
        out = run_campaign_workload(args)
    elif role == "service-refs":
        out = service_refs()
    else:
        raise SystemExit(f"unknown role {role!r}")
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
