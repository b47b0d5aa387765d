"""Concurrent /damage load on the analysis service, both solve modes.

The service exists to turn many small concurrent fault queries into few
lane-packed kernel sweeps (PR 5's coalescer) and, since the sharded
worker tier, to spread those sweeps across CPU cores.  This benchmark
records what a client actually experiences under that load:

1. **parity first** — every response under load is compared against a
   direct in-process :class:`GraphDamageAnalysis` damage vector; a
   single diverging float aborts the benchmark before any timing is
   recorded;
2. **inprocess** — the asyncio front-end with ``shard_workers=0``:
   coalesced batches solved on the service's one solve thread in the
   server process;
3. **sharded** — the same front-end dispatching coalesced batches to
   worker processes over shared-memory-shipped IR.

Per design and stack: p50/p99 request latency, throughput, batch
occupancy (requests per kernel dispatch), and the peak per-shard queue
depth sampled during the run.  On a single-core container the sharded
stack's advantage is bounded by the lack of parallel hardware — the
recorded ``cpus`` field is how a reader (and the regression gate)
contextualizes the numbers; the >= 2x acceptance point is expected on
multi-core runners.

Run as a script to (re)write the baseline consumed by ``bench-diff``::

    PYTHONPATH=src python benchmarks/bench_service_load.py \
        --output results/BENCH_service.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis import GraphDamageAnalysis
from repro.analysis.faults import iter_all_faults
from repro.bench import build_design
from repro.rsn.primitives import NodeKind
from repro.service import AnalysisService, AsyncServerThread, ServiceClient
from repro.spec import spec_for_network

#: Designs under load: a SIB tree and an MBIST-style access network —
#: both from the benchmark registry, so the regression gate can rebuild
#: them by name.
DESIGN_NAMES = ["TreeUnbalanced", "MBIST_2_5_5"]

DEFAULT_REQUESTS = 1000
DEFAULT_CONCURRENCY = 64
_PLAN_SEED = 20260808


def _counts(network):
    segments = muxes = 0
    for node in network.nodes():
        if node.kind == NodeKind.SEGMENT:
            segments += 1
        elif node.kind == NodeKind.MUX:
            muxes += 1
    return segments, muxes


def _percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _parse_histogram_mean(metrics_text, name):
    """Mean of a Prometheus histogram from its _sum/_count lines."""
    total = count = None
    for line in metrics_text.splitlines():
        if line.startswith(f"{name}_sum"):
            total = float(line.split()[-1])
        elif line.startswith(f"{name}_count"):
            count = float(line.split()[-1])
    if not total or not count:
        return 0.0
    return total / count


class _Stack:
    """One bootable service (in-process or sharded solving) behind the
    asyncio front-end."""

    def __init__(self, flavor, workers, shards):
        self.flavor = flavor
        self._tmp = tempfile.TemporaryDirectory(prefix="repro-bench-svc-")
        kwargs = dict(cache_dir=self._tmp.name, workers=2)
        if flavor == "sharded":
            kwargs.update(shard_workers=workers, shards=shards)
        self.service = AnalysisService(**kwargs)
        self._aserver = AsyncServerThread(
            self.service, host="127.0.0.1", port=0
        )
        self.url = self._aserver.url

    def close(self):
        self._aserver.stop()
        self.service.close(drain=False)
        self._tmp.cleanup()


class _DepthSampler:
    """Poll the pool's per-shard queue depths during the load phase."""

    def __init__(self, pool, interval=0.01):
        self.pool = pool
        self.interval = interval
        self.max_depth = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.is_set():
            depths = self.pool.depths()
            if depths:
                self.max_depth = max(self.max_depth, max(depths.values()))
            self._stop.wait(self.interval)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5.0)


def run_load(
    stack,
    fingerprint,
    faults,
    direct,
    requests,
    concurrency,
    seed=_PLAN_SEED,
):
    """Fire single-fault /damage requests; verify every response.

    Returns latency/throughput stats.  Raises SystemExit on the first
    response that diverges from the direct damage vector.
    """
    rng = random.Random(seed)
    plan = [rng.randrange(len(faults)) for _ in range(requests)]
    local = threading.local()

    def one(index):
        client = getattr(local, "client", None)
        if client is None:
            client = local.client = ServiceClient(stack.url, timeout=120.0)
        started = time.perf_counter()
        damages = client.damage(fingerprint, [faults[index]], seed=0)
        latency = time.perf_counter() - started
        if damages != [direct[index]]:
            raise SystemExit(
                f"{stack.flavor}: fault {index} returned {damages}, "
                f"direct says {direct[index]}"
            )
        return latency

    sampler = None
    if stack.service.pool is not None:
        sampler = _DepthSampler(stack.service.pool)
    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as executor:
        if sampler is not None:
            with sampler:
                latencies = list(executor.map(one, plan))
        else:
            latencies = list(executor.map(one, plan))
    wall = time.perf_counter() - started
    return {
        "requests": requests,
        "concurrency": concurrency,
        "wall_seconds": wall,
        "throughput_rps": requests / wall if wall > 0 else 0.0,
        "p50_seconds": statistics.median(latencies),
        "p99_seconds": _percentile(latencies, 0.99),
        "max_shard_queue_depth": (
            sampler.max_depth if sampler is not None else None
        ),
    }


def bench_design(name, requests, concurrency, workers, shards):
    network = build_design(name)
    spec = spec_for_network(network, seed=0)
    faults = list(iter_all_faults(network))
    direct = [
        float(d)
        for d in GraphDamageAnalysis(
            network, spec, backend="bitset"
        ).damage_vector(faults)
    ]
    n_segments, n_muxes = _counts(network)
    row = {
        "design": name,
        "n_segments": n_segments,
        "n_muxes": n_muxes,
        "n_faults": len(faults),
        "workers": workers,
        "shards": shards,
        "parity": True,
    }
    for flavor in ("inprocess", "sharded"):
        stack = _Stack(flavor, workers, shards)
        try:
            client = ServiceClient(stack.url, timeout=120.0)
            fingerprint = client.upload_network(design=name)["fingerprint"]
            # Parity gate: the full fault universe in one request must be
            # bit-identical to the direct vector before anything is timed.
            if client.damage(fingerprint, faults, seed=0) != direct:
                raise SystemExit(
                    f"{flavor}: full-vector parity failed on {name}"
                )
            # Warm the kernel (and the worker-side caches) off the clock.
            run_load(
                stack, fingerprint, faults, direct,
                requests=min(64, requests), concurrency=8, seed=1,
            )
            stats = run_load(
                stack, fingerprint, faults, direct, requests, concurrency
            )
            stats["batch_occupancy_mean"] = _parse_histogram_mean(
                client.metrics(), "repro_batch_occupancy"
            )
            row[flavor] = stats
        finally:
            stack.close()
        print(
            f"{name:16s} {flavor:9s}: "
            f"p50 {row[flavor]['p50_seconds'] * 1e3:7.2f}ms  "
            f"p99 {row[flavor]['p99_seconds'] * 1e3:7.2f}ms  "
            f"{row[flavor]['throughput_rps']:7.1f} req/s  "
            f"occupancy {row[flavor]['batch_occupancy_mean']:.1f}",
            flush=True,
        )
    row["throughput_ratio"] = (
        row["sharded"]["throughput_rps"] / row["inprocess"]["throughput_rps"]
        if row["inprocess"]["throughput_rps"] > 0
        else 0.0
    )
    return row


def write_service_baseline(
    output,
    quick=False,
    requests=DEFAULT_REQUESTS,
    concurrency=DEFAULT_CONCURRENCY,
    workers=2,
    shards=8,
):
    if quick:
        requests = min(requests, 200)
        concurrency = min(concurrency, 16)
    designs = [
        bench_design(name, requests, concurrency, workers, shards)
        for name in DESIGN_NAMES
    ]
    payload = {
        "benchmark": "service-latency",
        "created": time.strftime("%Y-%m-%d %H:%M:%S"),
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "designs": designs,
        "notes": (
            "Concurrent single-fault /damage load against two service "
            "stacks behind the asyncio HTTP front-end: 'inprocess' "
            "solves coalesced batches in the server process "
            "(shard_workers=0); 'sharded' dispatches coalesced batches "
            "to a pool of worker processes over shared-memory-shipped "
            "compiled IR.  Every response is verified bit-identical to a direct "
            "GraphDamageAnalysis damage vector before and during "
            "timing.  The sharded stack's throughput advantage scales "
            "with host cores (see host.cpus); on a single-core "
            "container the two stacks are expected to be comparable, "
            "with the sharded stack paying the IPC hop."
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
@pytest.mark.parametrize("flavor", ["inprocess", "sharded"])
def test_service_damage_load(benchmark, flavor):
    """200 verified single-fault requests at concurrency 16."""
    name = DESIGN_NAMES[0]
    network = build_design(name)
    spec = spec_for_network(network, seed=0)
    faults = list(iter_all_faults(network))
    direct = [
        float(d)
        for d in GraphDamageAnalysis(
            network, spec, backend="bitset"
        ).damage_vector(faults)
    ]
    stack = _Stack(flavor, workers=2, shards=8)
    try:
        client = ServiceClient(stack.url, timeout=120.0)
        fingerprint = client.upload_network(design=name)["fingerprint"]
        stats = benchmark.pedantic(
            lambda: run_load(
                stack, fingerprint, faults, direct,
                requests=200, concurrency=16,
            ),
            rounds=1,
            iterations=1,
        )
        benchmark.extra_info.update(
            {"flavor": flavor, "p50_ms": stats["p50_seconds"] * 1e3}
        )
    finally:
        stack.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="write the service-latency perf baseline"
    )
    parser.add_argument("--output", default="results/BENCH_service.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="200 requests at concurrency 16 (CI sanity pass)",
    )
    parser.add_argument("--requests", type=int, default=DEFAULT_REQUESTS)
    parser.add_argument(
        "--concurrency", type=int, default=DEFAULT_CONCURRENCY
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--shards", type=int, default=8)
    args = parser.parse_args(argv)
    write_service_baseline(
        args.output,
        quick=args.quick,
        requests=args.requests,
        concurrency=args.concurrency,
        workers=args.workers,
        shards=args.shards,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
