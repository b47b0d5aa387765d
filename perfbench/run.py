"""One benchmark over the system's three journeys.

    python3 perfbench/run.py --workload <table1-linear|service-damage|campaign-mc>
                             --seed N --seconds S --trace <0|1>

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Lines
above it describe the host and the run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from typing import Callable, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import service_load  # noqa: E402
from common import (  # noqa: E402
    CHILD_TIMEOUT_S,
    OUT_DIR,
    REFS,
    BenchError,
    child_env,
    descendants,
    fresh_work_dir,
    host_info,
    host_probe_ms,
    latency_summary,
    median,
    prime_bytecode,
    repo_present,
    run_child,
    shm_entries,
)

#: Set-up is repeated this many times per untraced run; its median is
#: reported.
SETUP_REPEATS = 3

#: Fixed tail percentile per workload (nearest rank), with at least ten
#: operations beyond it in every run: about 3,400 requests and 64
#: campaigns (two passes through the pool) per run.  The service tail is
#: p90, not p99: across ten runs of identical code p99 spread 35 % and
#: p90 12 %, because host contention episodes stretch the last
#: percentiles first.  A Table-I row takes seconds, so a run holds too
#: few rows for such a tail: the maximum is reported there and labelled
#: as such.
TAIL_PERCENTILE = {
    "table1-linear": 100.0,
    "service-damage": 90.0,
    "campaign-mc": 75.0,
}

TABLE1_LAYERS = [
    ("bench.build", "bench.build_s"),
    ("ir.intern", "ir.intern_s"),
    ("spec.spec", "spec.spec_s"),
    ("sp.decompose", "sp.decompose_s"),
    ("analysis.report", "analysis.report_s"),
    ("core.problem", "core.problem_s"),
    ("ea.optimize", "ea.optimize_s"),
    ("core.greedy", "core.greedy_s"),
]
CAMPAIGN_LAYERS = [
    ("campaigns.sample", "campaigns.sample_s"),
    ("analysis.kernel", "analysis.kernel_s"),
    ("campaigns.checkpoint", "campaigns.checkpoint_s"),
]
SERVICE_SPANS = [
    "http.request",
    "service.damage",
    "coalescer.dispatch",
    "worker.damage",
    "batch.chunk",
    "batch.sweep",
]

PER_LAYER = (
    [metric for _, metric in TABLE1_LAYERS]
    + ["ea.generation_ms", "table1.unattributed_s"]
    + ["analysis.cache_hits", "ea.evaluations"]
    + [
        "service.http_server_ms",
        "service.coalescer_wait_ms",
        "service.batch_occupancy",
        "service.batch_lanes",
        "service.shard_queue_depth_max",
        "service.outside_server_ms",
        "service.worker_restarts",
    ]
    + [f"span.{name}.self_ms" for name in SERVICE_SPANS]
    + ["service.unattributed_ms"]
    + [metric for _, metric in CAMPAIGN_LAYERS]
    + [
        "analysis.kernel_lanes_per_s",
        "campaigns.blocks",
        "campaigns.unattributed_s",
    ]
    + ["unattributed_share", "trace.overhead_ms", "trace.overhead_pct"]
)


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("_share"):
        return "ratio"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def end_to_end(summary: Dict, setup_s: float, rss_mb: float) -> Dict:
    return {
        "setup_s": setup_s,
        "throughput_per_s": summary["throughput_per_s"],
        "latency_p50_ms": summary["latency_p50_ms"],
        "latency_tail_ms": summary["latency_tail_ms"],
        "peak_rss_mb": rss_mb,
    }


def pair_overhead(ops: List[Dict]) -> Dict:
    """Tracing overhead from plain/traced pairs of the same input."""
    plain = [op for op in ops if not op.get("traced")]
    traced = [op for op in ops if op.get("traced")]
    diffs = [t["latency_s"] - p["latency_s"] for p, t in zip(plain, traced)]
    base = median([p["latency_s"] for p in plain])
    overhead = median(diffs)
    return {
        "trace.overhead_ms": overhead * 1e3,
        "trace.overhead_pct": 100.0 * overhead / base,
    }


# ---------------------------------------------------------------------------
# in-process workloads (table1-linear, campaign-mc)
# ---------------------------------------------------------------------------
def child_workload(role: str, args, env: Dict, work: str, report: Dict) -> Dict:
    base = {
        "role": role,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    setups = []
    repeats = 1 if args.trace else SETUP_REPEATS
    for index in range(repeats - 1):
        sub = os.path.join(work, f"setup-{index}")
        os.makedirs(sub)
        result = run_child(
            {**base, "work": sub, "setup_only": True}, env, CHILD_TIMEOUT_S
        )
        setups.append(result["setup_s"])
    sub = os.path.join(work, "measure")
    os.makedirs(sub)
    result = run_child({**base, "work": sub}, env, CHILD_TIMEOUT_S)
    setups.append(result["setup_s"])
    report["setup_samples_s"] = setups

    ops = result["ops"]
    report["attempted"] = len(ops)
    report["failed"] = sum(1 for op in ops if not op["ok"])
    plain = [op for op in ops if not op.get("traced")]
    report["latencies_ms"] = [round(op["latency_s"] * 1e3, 3) for op in plain]
    # Latency quantiles over whole passes through the input pool: inputs
    # differ in cost, and a partial last pass would weight the first
    # inputs of the pool by how many operations the host managed.
    pool = result["pool_size"]
    whole = len(plain) - len(plain) % pool if len(plain) >= pool else len(plain)
    summary = latency_summary(
        [op["latency_s"] for op in plain[:whole]],
        TAIL_PERCENTILE[args.workload],
    )
    # Throughput counts every completed operation.
    summary["throughput_per_s"] = len(plain) / result["elapsed_s"]
    report["summary"] = summary
    if not args.trace:
        return end_to_end(summary, median(setups), result["peak_rss_mb"])

    traced = [op for op in ops if op.get("traced")]
    layers = TABLE1_LAYERS if role == "table1" else CAMPAIGN_LAYERS
    metrics = {metric: 0.0 for metric in PER_LAYER}
    total = sum(op["latency_s"] for op in traced)
    unattributed = sum(
        op["latency_s"] - sum(op["self_s"].values()) for op in traced
    )
    shares = {}
    for layer, metric in layers:
        seconds = sum(op["self_s"].get(layer, 0.0) for op in traced)
        metrics[metric] = seconds / len(traced)
        shares[layer] = seconds / total
    shares["unattributed"] = unattributed / total
    report["layer_shares"] = shares
    metrics["unattributed_share"] = unattributed / total
    metrics.update(pair_overhead(ops))
    if role == "table1":
        metrics["table1.unattributed_s"] = unattributed / len(traced)
        metrics["ea.generation_ms"] = 1e3 * sum(
            op["self_s"].get("ea.optimize", 0.0) for op in traced
        ) / sum(op["generations"] for op in traced)
        metrics["analysis.cache_hits"] = float(
            sum(op["engine_cache_hit"] for op in traced)
        )
        metrics["ea.evaluations"] = sum(
            op["counts"].get("ea.optimize", 0.0) for op in traced
        ) / len(traced)
    else:
        kernel_s = sum(op["self_s"].get("analysis.kernel", 0.0) for op in traced)
        lanes = sum(op["counts"].get("analysis.kernel", 0.0) for op in traced)
        metrics["analysis.kernel_lanes_per_s"] = lanes / kernel_s
        metrics["campaigns.blocks"] = sum(op["blocks"] for op in traced) / len(
            traced
        )
        metrics["campaigns.unattributed_s"] = unattributed / len(traced)
    return metrics


# ---------------------------------------------------------------------------
# service-damage
# ---------------------------------------------------------------------------
def service_workload(args, env: Dict, work: str, report: Dict) -> Dict:
    # Reference damages: computed before any set-up clock starts.
    refs = run_child({"role": "service-refs"}, env, CHILD_TIMEOUT_S)
    report["faults"] = len(refs["faults"])
    leaks: List[str] = []

    def finish(server) -> float:
        rss = server.snapshot_tree()
        leaks.extend(server.stop())
        return rss

    if not args.trace:
        setups = []
        for index in range(SETUP_REPEATS):
            server, universe, setup_s = service_load.start_and_verify(
                work, env, f"s{index}", refs, trace=False
            )
            setups.append(setup_s)
            if index < SETUP_REPEATS - 1:
                finish(server)
        report["setup_samples_s"] = setups
        try:
            load = service_load.closed_loop(
                server, universe, args.seed, args.seconds
            )
        finally:
            rss = finish(server)
        if leaks:
            raise BenchError(f"server processes left behind: {leaks}")
        summary = latency_summary(
            load["latencies_s"], TAIL_PERCENTILE[args.workload]
        )
        summary["throughput_per_s"] = len(load["latencies_s"]) / load["elapsed_s"]
        report.update(
            summary=summary,
            attempted=load["attempted"],
            failed=load["failed"],
            timeline_s_ms=load["timeline"],
        )
        return end_to_end(summary, median(setups), rss)

    # Traced run: half the time on a plain server (the /metrics view and
    # the untraced baseline), half on a `serve --trace` server (spans).
    half = args.seconds / 2.0
    metrics = {metric: 0.0 for metric in PER_LAYER}
    server, universe, _ = service_load.start_and_verify(
        work, env, "plain", refs, trace=False
    )
    try:
        since = time.time()
        before = service_load.scrape(server)
        plain = service_load.closed_loop(server, universe, args.seed, half)
        after = service_load.scrape(server)
        depth = service_load.queue_depth_max(server, since)
    finally:
        finish(server)
    report["summary"] = latency_summary(
        plain["latencies_s"], TAIL_PERCENTILE[args.workload]
    )
    mean_ms = 1e3 * sum(plain["latencies_s"]) / len(plain["latencies_s"])
    server_ms = 1e3 * service_load.histogram_mean(
        before, after, "repro_http_request_seconds", path="/damage"
    )
    metrics.update(
        {
            "service.http_server_ms": server_ms,
            "service.coalescer_wait_ms": 1e3
            * service_load.histogram_mean(
                before, after, "repro_batch_wait_seconds"
            ),
            "service.batch_occupancy": service_load.histogram_mean(
                before, after, "repro_batch_occupancy"
            ),
            "service.batch_lanes": service_load.histogram_mean(
                before, after, "repro_batch_lanes"
            ),
            "service.shard_queue_depth_max": depth,
            "service.outside_server_ms": mean_ms - server_ms,
            "service.worker_restarts": service_load.delta(
                before,
                after,
                "repro_shard_worker_events_total",
                event="restarted",
            ),
        }
    )

    server, universe, _ = service_load.start_and_verify(
        work, env, "traced", refs, trace=True
    )
    try:
        traced = service_load.closed_loop(
            server, universe, args.seed + 1, half, trace_prefix=f"pb{args.seed}"
        )
        sample = traced["traced"]
        step = max(1, len(sample) // 400)
        selfs: Dict[str, float] = {}
        latency_ms = unattributed_ms = 0.0
        fetched = 0
        for trace_id, latency in sample[::step]:
            status, doc = server.call("GET", f"/trace/{trace_id}")
            if status != 200:
                continue
            own, extent_ms = service_load.span_self_times(doc["traceEvents"])
            for name, value in own.items():
                selfs[name] = selfs.get(name, 0.0) + value
            latency_ms += latency * 1e3
            unattributed_ms += latency * 1e3 - extent_ms
            fetched += 1
    finally:
        finish(server)
    if leaks:
        raise BenchError(f"server processes left behind: {leaks}")
    if not fetched:
        raise BenchError("no trace could be fetched from the traced server")
    for name in SERVICE_SPANS:
        metrics[f"span.{name}.self_ms"] = selfs.get(name, 0.0) / fetched
    metrics["service.unattributed_ms"] = unattributed_ms / fetched
    metrics["unattributed_share"] = unattributed_ms / latency_ms
    report["layer_shares"] = {
        **{name: value / latency_ms for name, value in selfs.items()},
        "unattributed": unattributed_ms / latency_ms,
    }
    report["traces_fetched"] = fetched
    p50_plain = median(plain["latencies_s"])
    overhead = median(traced["latencies_s"]) - p50_plain
    metrics["trace.overhead_ms"] = overhead * 1e3
    metrics["trace.overhead_pct"] = 100.0 * overhead / p50_plain
    report.update(
        attempted=plain["attempted"] + traced["attempted"],
        failed=plain["failed"] + traced["failed"],
    )
    return metrics


WORKLOADS: Dict[str, Callable] = {
    "table1-linear": lambda a, e, w, r: child_workload("table1", a, e, w, r),
    "service-damage": service_workload,
    "campaign-mc": lambda a, e, w, r: child_workload("campaign", a, e, w, r),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not repo_present() or not os.path.isdir(REFS):
        print("perfbench: the program's sources (src/repro) are missing; "
              "run from the repository root", file=sys.stderr)
        return 2

    work = fresh_work_dir(args.workload)
    env = child_env(work)
    shm_before = shm_entries()
    report: Dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_info(
            load_threads=service_load.CONNECTIONS
            if args.workload == "service-damage"
            else 0,
            connections=service_load.CONNECTIONS
            if args.workload == "service-damage"
            else 0,
        ),
    }
    try:
        prime_bytecode(env)
        report["host_probe_ms_before"] = host_probe_ms()
        metrics = WORKLOADS[args.workload](args, env, work, report)
        report["host_probe_ms_after"] = host_probe_ms()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        left = descendants(os.getpid())
        shm_leaks = sorted(shm_entries() - shm_before)
        shutil.rmtree(work, ignore_errors=True)
    if left or shm_leaks:
        print(f"perfbench: run left processes {left} or /dev/shm segments "
              f"{shm_leaks} behind", file=sys.stderr)
        return 1

    attempted, failed = report["attempted"], report["failed"]
    report["error_rate"] = failed / attempted if attempted else 1.0
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }
    report["result"] = result
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=1)

    print("host " + json.dumps(report["host"], sort_keys=True))
    print(
        "host speed probe (fixed CPU loop, ms): before "
        f"{report['host_probe_ms_before']:.2f}, after "
        f"{report['host_probe_ms_after']:.2f}"
    )
    summary = report["summary"]
    tail_note = (
        f"p{summary['tail_percentile']:g} with {summary['tail_beyond']} of "
        f"{summary['n']} operations beyond it"
    )
    if summary["tail_beyond"] < 10:
        tail_note += " (too few operations for a >=10-beyond tail; " \
            "the maximum or nearest supported rank is shown)"
    print(f"latency_tail_ms is {tail_note}")
    print(f"error_rate {report['error_rate']:.6f} ({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"{name:34s} {value:16.6f} {unit_of(name)}")
    for layer, share in sorted(report.get("layer_shares", {}).items()):
        print(f"share {layer:28s} {100.0 * share:7.2f} %")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
