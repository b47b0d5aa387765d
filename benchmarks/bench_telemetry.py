"""Telemetry-overhead baseline: the batch sweep with the obs tier live.

The live telemetry tier (metrics-history sampler, structured logging,
lane-byte accounting) instruments the hot batch path; its contract is
that the instrumentation is cheap enough to leave on in production.
This benchmark records both sides of that contract on the bitset batch
sweep — every fault of a generated MBIST design in one pass:

1. **disabled** — no history sampler running, logging unconfigured
   (the library default: ``logger.debug`` is a couple of attribute
   reads and an early return);
2. **enabled** — a :class:`repro.obs.history.MetricsHistory` sampler
   ticking at a service-realistic interval plus ``configure_logging``
   retaining DEBUG records in a bounded ring.

The ``bench-diff`` gate re-measures *both* sides fresh (the recorded
timings are informational; the gate's ratio is enabled/disabled on the
gate machine) and fails when the enabled path exceeds the disabled one
by more than the per-row ``tolerance`` (default 5%).

Run as a script to (re)write the baseline consumed by ``bench-diff``::

    PYTHONPATH=src python benchmarks/bench_telemetry.py \
        --output results/BENCH_telemetry.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

from repro.analysis.faults import faults_of_primitive
from repro.analysis.graph_analysis import GraphDamageAnalysis
from repro.bench.generators import mbist_network
from repro.obs.history import MetricsHistory
from repro.obs.log import LogBuffer, capturing
from repro.rsn.ast import elaborate
from repro.rsn.primitives import NodeKind
from repro.spec import spec_for_network

#: The MBIST designs of the telemetry baseline (small and medium
#: generated designs — big enough that a sweep outlasts several
#: sampler ticks, small enough for a CI gate), each with the per-row
#: overhead tolerance the bench-diff gate enforces.  The ~100 ms
#: 1091-segment sweep is the real 5% gate; the ~25 ms 113-segment row
#: jitters by more than 5% on shared runners regardless of telemetry,
#: so it gates loosely and serves as a small-design sanity row.
SIZES = [
    (113, 15, 0.25),
    (1_091, 28, 0.05),
]

#: Sampler tick while the enabled side runs — far denser than the
#: service default (1 s) so the gate actually exercises sampling cost.
HISTORY_INTERVAL = 0.05


def _build(n_segments, n_muxes):
    network = elaborate(mbist_network(n_segments, n_muxes, seed=0))
    return network, spec_for_network(network, seed=0)


def _all_faults(network):
    faults = []
    for node in network.nodes():
        if node.kind in (NodeKind.SEGMENT, NodeKind.MUX):
            faults.extend(faults_of_primitive(network, node.name))
    return faults


def _sweep_seconds(network, spec, faults) -> float:
    analysis = GraphDamageAnalysis(network, spec)
    started = time.perf_counter()
    analysis.damage_vector(faults)
    return time.perf_counter() - started


def measure_design(n_segments, n_muxes, repeats=3):
    """Best-of-``repeats`` disabled and enabled sweep timings, plus the
    enabled side's telemetry evidence (samples taken, series live).

    Sides are interleaved (disabled, enabled, disabled, ...) so slow
    machine drift lands on both rather than biasing the second side —
    the same discipline the bench-diff gate applies when re-measuring.
    """
    import math

    network, spec = _build(n_segments, n_muxes)
    faults = _all_faults(network)
    _sweep_seconds(network, spec, faults)  # warm both sides' code paths
    disabled = math.inf
    enabled = math.inf
    history_samples = 0
    for _ in range(repeats):
        disabled = min(
            disabled, _sweep_seconds(network, spec, faults)
        )
        history = MetricsHistory(
            interval=HISTORY_INTERVAL, window=64
        ).start()
        try:
            with capturing(LogBuffer()):
                enabled = min(
                    enabled, _sweep_seconds(network, spec, faults)
                )
        finally:
            history.stop()
        history_samples = history.sample_once()
    return {
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "overhead_ratio": enabled / disabled if disabled > 0 else 0.0,
        "faults": len(faults),
        "history_samples": history_samples,
    }


def write_telemetry_baseline(output: str, repeats: int = 3) -> dict:
    designs = []
    for n_segments, n_muxes, tolerance in SIZES:
        row = measure_design(n_segments, n_muxes, repeats=repeats)
        entry = {
            "design": f"mbist_{n_segments}_{n_muxes}",
            "n_segments": n_segments,
            "n_muxes": n_muxes,
            "history_interval": HISTORY_INTERVAL,
            "tolerance": tolerance,
            **row,
        }
        designs.append(entry)
        print(
            f"{entry['design']:18s} disabled "
            f"{row['disabled_seconds'] * 1e3:.2f}ms, enabled "
            f"{row['enabled_seconds'] * 1e3:.2f}ms "
            f"({row['overhead_ratio']:.3f}x, {row['faults']} faults)",
            flush=True,
        )

    payload = {
        "benchmark": "telemetry-overhead",
        "created": time.strftime("%Y-%m-%d %H:%M:%S"),
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "designs": designs,
        "notes": (
            "Bitset batch sweep (damage_vector over the full fault "
            "universe) with the telemetry tier enabled vs disabled.  "
            "enabled = MetricsHistory sampler at "
            f"{HISTORY_INTERVAL}s ticks + configure_logging retaining "
            "DEBUG records; disabled = no sampler, logging "
            "unconfigured.  The bench-diff gate re-measures both sides "
            "fresh (interleaved, best-of) and fails when "
            "enabled/disabled exceeds the per-row tolerance — the "
            "recorded seconds here are informational.  The 1091-row is "
            "the 5% gate; the sub-50ms 113-row gates loosely because "
            "its machine jitter exceeds 5% regardless of telemetry."
        ),
    }
    os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")
    return payload


# ---------------------------------------------------------------------------
# pytest entry point (benchmarks/ is also a pytest-benchmark suite)
# ---------------------------------------------------------------------------
def test_telemetry_overhead_small():
    """Enabled-path sweep stays parity-correct and the sampler ticks."""
    network, spec = _build(*SIZES[0][:2])
    faults = _all_faults(network)
    analysis = GraphDamageAnalysis(network, spec)
    baseline = analysis.damage_vector(faults)
    history = MetricsHistory(interval=0.01, window=16).start()
    try:
        with capturing(LogBuffer()):
            instrumented = GraphDamageAnalysis(network, spec).damage_vector(faults)
    finally:
        history.stop()
    assert list(instrumented) == list(baseline)
    assert history.sample_once() > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="write the telemetry-overhead perf baseline"
    )
    parser.add_argument(
        "--output",
        default="results/BENCH_telemetry.json",
        help="baseline path (default results/BENCH_telemetry.json)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repeats per side; the best is kept (default 3)",
    )
    args = parser.parse_args(argv)
    write_telemetry_baseline(args.output, repeats=args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
