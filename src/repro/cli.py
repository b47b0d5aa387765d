"""Command-line interface: ``repro-rsn`` / ``python -m repro.cli``.

Subcommands
-----------
* ``designs`` — list the benchmark registry;
* ``table1``  — regenerate the paper's Table I (optionally scaled);
* ``analyze`` — criticality analysis of a network file;
* ``harden``  — full selective-hardening synthesis of a network file;
* ``example`` — walk through the paper's Fig. 1-4 example;
* ``serve``   — run the batching analysis service (HTTP JSON API);
* ``top``     — terminal dashboard for a running service (the text
  equivalent of its ``GET /dashboard`` page);
* ``submit``  — upload a network to a running service and run a job;
* ``campaign`` — batched fault studies (``montecarlo`` rate sweeps,
  exhaustive ``kfault`` enumeration, batched ``diagnose``), locally or
  routed through a running service with ``--url``;
* ``bench-diff`` — re-measure benchmark baselines and fail on
  hot-path regressions.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from . import __version__
from .analysis import CriticalityEngine, analyze_damage, default_cache_dir
from .bench import (
    DESIGNS,
    build_design,
    format_comparison,
    format_table,
    run_table,
)
from .core import SelectiveHardening
from .rsn import icl
from .rsn.ast import elaborate
from .spec import spec_for_network


def _add_table1(subparsers) -> None:
    parser = subparsers.add_parser(
        "table1", help="regenerate the paper's Table I"
    )
    parser.add_argument(
        "--designs",
        nargs="*",
        default=None,
        help="subset of design names (default: all 24)",
    )
    parser.add_argument(
        "--scale-generations",
        type=float,
        default=1.0,
        help="multiply every design's generation budget (default 1.0)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--algorithm", choices=["spea2", "nsga2"], default="spea2"
    )
    parser.add_argument(
        "--json", dest="json_path", default=None,
        help="also dump rows as JSON to this path",
    )
    parser.add_argument(
        "--damage-sites",
        choices=["all", "control", "mux"],
        default="all",
        help="which primitives' faults Eq. 2 sums over",
    )
    parser.add_argument(
        "--hardenable",
        choices=["all", "control"],
        default="all",
        help="which primitives may be hardened",
    )
    parser.add_argument(
        "--objective",
        choices=["linear", "fault-set"],
        default="linear",
        help="EA damage objective: the paper's linear Eq. 2 sum "
        "(default) or the exact joint damage of every un-hardened "
        "candidate faulting simultaneously",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="print the paper-vs-measured comparison table",
    )
    _add_engine_options(parser)


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}"
        )
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {value}"
        )
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative number, got {value}"
        )
    return value


def _lane_budget_mb(text: str) -> Optional[float]:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative number, got {value}"
        )
    return None if value == 0 else value


def _add_engine_options(parser) -> None:
    """Shared criticality-engine flags (kernel chunking, cache, stats)."""
    parser.add_argument(
        "--chunk-lanes",
        type=_positive_int,
        default=64,
        metavar="W",
        help="bitset kernel (non-SP networks, fault sets): uint64 words "
        "of fault lanes per kernel chunk (default 64 = 4096 faults)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="analysis result-cache directory "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro-rsn)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent analysis result cache",
    )
    parser.add_argument(
        "--cache-max-mb",
        type=_positive_float,
        default=None,
        metavar="MB",
        help="cap the result cache at MB megabytes (LRU eviction after "
        "each store; default: unbounded)",
    )
    parser.add_argument(
        "--max-lane-mb",
        type=_lane_budget_mb,
        default=64.0,
        metavar="MB",
        help="fault-set objective: memory budget of one streaming "
        "lane block when sweeping memo-miss genomes (default 64; "
        "0 disables streaming and solves all misses in one block)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print engine statistics (faults/s, cache and memo hit "
        "rates, fault lanes)",
    )


def _engine_cache_dir(args) -> Optional[str]:
    if args.no_cache:
        return None
    return args.cache_dir if args.cache_dir else default_cache_dir()


def _cmd_table1(args) -> int:
    names = args.designs if args.designs else None
    if names:
        unknown = [name for name in names if name not in DESIGNS]
        if unknown:
            print(f"unknown designs: {', '.join(unknown)}", file=sys.stderr)
            return 2
    rows = run_table(
        names=names,
        scale_generations=args.scale_generations,
        seed=args.seed,
        algorithm=args.algorithm,
        verbose=True,
        hardenable=args.hardenable,
        damage_sites=args.damage_sites,
        cache_dir=_engine_cache_dir(args),
        chunk_lanes=args.chunk_lanes,
        max_cache_mb=args.cache_max_mb,
        objective=args.objective,
        max_lane_mb=args.max_lane_mb,
    )
    print()
    print(format_table(rows))
    if args.stats:
        print()
        for row in rows:
            stats = row.analysis_stats
            if not stats:
                continue
            lanes = (
                f", {stats['lanes']:,} lanes "
                f"({stats['lane_chunks']} chunks)"
                if stats.get("lanes")
                else ""
            )
            ea_cache = (
                f", ea-cache {row.ea_cache}"
                if row.ea_cache and row.ea_cache != "disabled"
                else ""
            )
            memo = (
                f", ea {row.ea_evaluations:,} evals / "
                f"{row.ea_memo_hits:,} memo hits / "
                f"{row.ea_states_swept:,} swept"
                if row.ea_evaluations is not None
                else ""
            )
            print(
                f"{row.name:16s} analysis {stats['elapsed_seconds']:.3f}s, "
                f"{stats['faults_per_second']:,.0f} faults/s, "
                f"cache {stats['cache']}, "
                f"memo {stats['memo_hit_rate']:.1%}{lanes}{ea_cache}{memo}"
            )
    if args.compare:
        print()
        print(format_comparison(rows))
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump([row.as_dict() for row in rows], handle, indent=2)
        print(f"\nwrote {args.json_path}")
    return 0


def _cmd_designs(args) -> int:
    print(f"{'Design':16s} {'Family':16s} {'#Seg':>9s} {'#Mux':>7s} "
          f"{'Gens':>6s}")
    for info in DESIGNS.values():
        print(
            f"{info.name:16s} {info.family:16s} {info.n_segments:>9,d} "
            f"{info.n_muxes:>7,d} {info.paper.generations:>6d}"
        )
    return 0


def _load_network(path: str):
    if path in DESIGNS:
        return build_design(path)
    return elaborate(icl.load(path))


def _cmd_analyze(args) -> int:
    network = _load_network(args.network)
    spec = spec_for_network(network, seed=args.seed)
    engine = CriticalityEngine(
        network,
        spec,
        policy=args.policy,
        cache_dir=_engine_cache_dir(args),
        chunk_lanes=args.chunk_lanes,
        max_cache_mb=args.cache_max_mb,
    )
    collector = None
    trace_id = None
    if args.trace:
        from .obs import SpanCollector, enable_tracing, new_trace_id

        collector = SpanCollector()
        enable_tracing(collector)
        trace_id = new_trace_id()
    try:
        if trace_id is not None:
            from .obs import root_span

            with root_span(
                "cli.analyze", trace_id=trace_id, network=network.name
            ):
                report = engine.report(sites=args.sites)
        else:
            report = engine.report(sites=args.sites)
    finally:
        if collector is not None:
            from .obs import disable_tracing

            disable_tracing()
    n_seg, n_mux = network.counts()
    print(f"network          : {network.name}")
    print(f"segments / muxes : {n_seg:,} / {n_mux:,}")
    print(f"instruments      : {len(network.instrument_names()):,}")
    print(f"total damage     : {report.total:,.0f}")
    print(f"  via units      : {report.hardenable:,.0f}")
    print(f"  unavoidable    : {report.unavoidable:,.0f}")
    print("most critical hardening units:")
    for name, damage in report.most_critical_units(args.top):
        print(f"  {name:24s} {damage:>14,.0f}")
    if args.stats:
        print()
        print(engine.stats.format())
    if collector is not None:
        from .obs import hot_path_tree, write_chrome_trace

        count = write_chrome_trace(args.trace, collector, trace_id)
        print()
        print(
            f"trace            : {count} spans -> {args.trace} "
            "(open in chrome://tracing or ui.perfetto.dev)"
        )
        print("hot path:")
        print(hot_path_tree(collector, trace_id))
    return 0


def _cmd_harden(args) -> int:
    network = _load_network(args.network)
    spec = spec_for_network(network, seed=args.seed)
    synthesis = SelectiveHardening(
        network,
        spec=spec,
        seed=args.seed,
        cache_dir=_engine_cache_dir(args),
        chunk_lanes=args.chunk_lanes,
        max_cache_mb=args.cache_max_mb,
        objective=args.objective,
        max_lane_mb=args.max_lane_mb,
    )
    print(f"max cost   : {synthesis.max_cost:,.0f}")
    print(f"max damage : {synthesis.max_damage:,.0f}")
    result = synthesis.optimize(
        generations=args.generations,
        population_size=args.population_size,
        algorithm=args.algorithm,
    )
    print(f"front      : {len(result.objectives)} points "
          f"({result.runtime_seconds:.1f}s, "
          f"ea-cache {synthesis.last_ea_cache})")
    for label, solution in (
        ("min cost @ damage<=10%", result.min_cost_solution(0.10)),
        ("min damage @ cost<=10%", result.min_damage_solution(0.10)),
    ):
        if solution is None:
            print(f"{label}: infeasible on this front")
            continue
        print(
            f"{label}: {solution.n_hardened} spots, "
            f"cost {solution.cost:,.0f} ({solution.cost_fraction:.1%}), "
            f"damage {solution.damage:,.0f} "
            f"({solution.damage_fraction:.1%})"
        )
        if args.verify:
            ok, offending = solution.verify_critical(spec)
            state = "all safe" if ok else f"AT RISK: {offending}"
            print(f"  critical instruments: {state}")
        if args.show_spots:
            for name in solution.hardened[: args.show_spots]:
                print(f"    harden {name}")
    if args.stats and synthesis.analysis_stats is not None:
        stats = synthesis.analysis_stats.as_dict()
        lanes = (
            f", {stats['lanes']:,} lanes ({stats['lane_chunks']} chunks)"
            if stats.get("lanes")
            else ""
        )
        print(
            f"analysis   : {stats['elapsed_seconds']:.3f}s, "
            f"{stats['faults_per_second']:,.0f} faults/s, "
            f"cache {stats['cache']}, "
            f"memo {stats['memo_hit_rate']:.1%}{lanes}"
        )
        population_states = synthesis.engine.cumulative.population_states
        if population_states:
            print(f"population : {population_states:,} states swept")
        counters = getattr(synthesis.problem, "counters", None)
        if counters is not None:
            print(
                f"ea memo    : {counters['evaluations']:,} evaluations, "
                f"{counters['memo_hits']:,} memo hits, "
                f"{counters['states_swept']:,} states swept"
            )
    return 0


def _cmd_dot(args) -> int:
    from .rsn.visualize import network_to_dot, tree_to_dot

    network = _load_network(args.network)
    if args.tree:
        from .sp import decompose

        source = tree_to_dot(decompose(network))
    else:
        source = network_to_dot(network)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(source)
        print(f"wrote {args.output}")
    else:
        print(source, end="")
    return 0


def _cmd_export(args) -> int:
    from .bench import get_design

    decl = get_design(args.design).generate()
    icl.dump(decl, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_stats(args) -> int:
    from .analysis import network_statistics

    network = _load_network(args.network)
    stats = network_statistics(network)
    for key, value in stats.items():
        if isinstance(value, float):
            print(f"{key:20s} {value:,.3f}")
        else:
            print(f"{key:20s} {value:,}")
    return 0


def _cmd_serve(args) -> int:
    from .service import serve

    return serve(
        host=args.host,
        port=args.port,
        verbose=args.verbose,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        max_cache_mb=args.cache_max_mb,
        workers=args.job_threads,
        job_timeout=args.job_timeout,
        tracing=args.trace,
        shard_workers=args.workers,
        shards=args.shards,
        prefer_shm=not args.no_shm,
        history_interval=args.history_interval,
        history_window=args.history_window,
        log_level=args.log_level,
        log_jsonl=args.log_json,
    )


_SPARK_BLOCKS = " ▁▂▃▄▅▆▇█"


def _sparkline(values, width: int = 32) -> str:
    """Unicode block sparkline of the newest ``width`` values."""
    values = [max(0.0, float(v)) for v in values][-width:]
    if not values:
        return ""
    peak = max(values)
    if peak <= 0:
        return _SPARK_BLOCKS[0] * len(values)
    scale = len(_SPARK_BLOCKS) - 1
    return "".join(
        _SPARK_BLOCKS[min(scale, round(v / peak * scale))] for v in values
    )


def _top_frame(client, log_lines: int) -> str:
    """One rendered ``top`` frame (the /dashboard cards, in text)."""
    from .obs.log import LogRecord

    health = client.healthz()
    history = client.metrics_history()
    series = history.get("series", [])

    def rows_of(name):
        return [s for s in series if s["name"] == name]

    def summed_rate(name):
        """Last value + history of the label-summed per-second rate."""
        rates = [s.get("rate") or [] for s in rows_of(name)]
        rates = [r for r in rates if r]
        if not rates:
            return 0.0, []
        depth = min(len(r) for r in rates)
        totals = [
            sum(r[len(r) - depth + i][1] for r in rates)
            for i in range(depth)
        ]
        return totals[-1], totals

    def summed_last(name):
        """Last value + history of the label-summed gauge."""
        points = [s.get("points") or [] for s in rows_of(name)]
        points = [p for p in points if p]
        if not points:
            return 0.0, []
        depth = min(len(p) for p in points)
        totals = [
            sum(p[len(p) - depth + i][1] for p in points)
            for i in range(depth)
        ]
        return totals[-1], totals

    def cache_hit_rate():
        hit = total = 0.0
        for s in rows_of("repro_engine_cache_total"):
            last = (s.get("points") or [[0, 0.0]])[-1][1]
            total += last
            if s.get("labels", {}).get("outcome") == "hit":
                hit += last
        return None if total <= 0 else 100.0 * hit / total

    req_rate, req_hist = summed_rate("repro_http_requests_total")
    queue, queue_hist = summed_last("repro_job_queue_depth")
    shardq, shardq_hist = summed_last("repro_shard_queue_depth")
    cpu_rate, _ = summed_rate("repro_process_cpu_seconds_total")
    lane_rate, _ = summed_rate("repro_lane_bytes_total")
    rss, _ = summed_last("repro_process_rss_bytes")
    hits = cache_hit_rate()

    jobs = health.get("jobs", {})
    lines = [
        f"repro-rsn top — {client.base_url}  "
        f"status={health.get('status')}  "
        f"v{health.get('version')}  "
        f"up {health.get('uptime_seconds', 0.0):.0f}s  "
        f"({history.get('samples', 0)} samples @ "
        f"{history.get('interval', 0)}s)",
        "",
        f"  requests/s : {req_rate:8.1f}  {_sparkline(req_hist)}",
        f"  job queue  : {queue:8.0f}  {_sparkline(queue_hist)}",
        f"  shard queue: {shardq:8.0f}  {_sparkline(shardq_hist)}",
        f"  cpu cores  : {cpu_rate:8.2f}  rss {rss / 1048576.0:.0f} MB  "
        f"lanes {lane_rate / 1048576.0:.1f} MB/s"
        + (f"  cache hits {hits:.0f}%" if hits is not None else ""),
        f"  jobs       : "
        + "  ".join(f"{k}={v}" for k, v in sorted(jobs.items())),
    ]

    pool = health.get("pool")
    if pool:
        lines.append("")
        lines.append(
            f"  pool       : {pool.get('n_shards')} shards over "
            f"{len(pool.get('workers', {}))} workers "
            f"({pool.get('transport')})"
        )
        shards_of = {}
        for shard, state in pool.get("shards", {}).items():
            shards_of.setdefault(state["worker"], []).append(
                (shard, state.get("depth", 0))
            )
        for worker_id, state in sorted(pool.get("workers", {}).items()):
            owned = sorted(shards_of.get(int(worker_id), []))
            depth = sum(d for _, d in owned)
            lines.append(
                f"    worker {worker_id}: "
                f"{'alive' if state.get('alive') else 'DEAD '} "
                f"pid={state.get('pid')} "
                f"shards={[s for s, _ in owned]} depth={depth} "
                f"inflight={state.get('inflight')} "
                f"restarts={state.get('restarts')}"
            )

    if log_lines:
        try:
            tail = client.logs(limit=log_lines)["records"]
        except Exception:
            tail = []
        if tail:
            lines.append("")
            lines.append("  recent logs:")
            for record in tail:
                lines.append(
                    "    " + LogRecord.from_dict(record).format_line()
                )
    return "\n".join(lines)


def _cmd_top(args) -> int:
    from .service import ServiceClient
    from .service.client import ServiceClientError

    client = ServiceClient(args.url, timeout=args.timeout)
    frames = 1 if args.once else args.iterations
    rendered = 0
    try:
        while True:
            try:
                frame = _top_frame(client, args.log_lines)
            except ServiceClientError as exc:
                print(f"top: {exc}", file=sys.stderr)
                return 1
            if rendered:
                # Clear + home between frames, full-screen style.
                print("\x1b[2J\x1b[H", end="")
            print(frame, flush=True)
            rendered += 1
            if frames is not None and rendered >= frames:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


def _cmd_bench_diff(args) -> int:
    from .bench.regression import RegressionParseError, compare_baseline

    exit_code = 0
    for index, path in enumerate(args.baselines):
        try:
            report = compare_baseline(
                path,
                tolerance=args.tolerance,
                repeats=args.repeats,
                max_segments=args.max_segments,
            )
        except RegressionParseError as exc:
            # A gate that cannot read its baseline must fail loudly,
            # --soft or not.
            print(f"bench-diff: {exc}", file=sys.stderr)
            return 2
        if index:
            print()
        print(report.format())
        if not report.ok:
            if args.soft:
                print(
                    "(--soft: regression reported but not fatal)"
                )
            else:
                exit_code = 1
    return exit_code


def _cmd_submit(args) -> int:
    from .service import ServiceClient

    client = ServiceClient(args.url, timeout=args.timeout)
    if args.network in DESIGNS:
        entry = client.upload_network(design=args.network)
    else:
        with open(args.network, encoding="utf-8") as handle:
            entry = client.upload_network(icl=handle.read())
    print(f"network          : {entry['name']}")
    print(f"fingerprint      : {entry['fingerprint'][:16]}…")
    print(f"segments / muxes : {entry['n_segments']:,} / "
          f"{entry['n_muxes']:,}")

    params = {"fingerprint": entry["fingerprint"], "seed": args.seed}
    if args.kind == "analyze":
        params.update(policy=args.policy, sites=args.sites)
    elif args.kind == "harden":
        params.update(generations=args.generations)
    elif args.kind == "table1":
        if args.network not in DESIGNS:
            print(
                "table1 jobs need a benchmark design name", file=sys.stderr
            )
            return 2
        params = {
            "design": args.network,
            "seed": args.seed,
            "scale_generations": args.scale_generations,
        }
    job = client.submit(kind=args.kind, **params)
    print(f"job              : {job['id']} ({args.kind})")
    record = client.wait(job["id"], timeout=args.timeout)
    result = record["result"]
    print(f"status           : {record['status']} "
          f"({record['runtime_seconds']:.3f}s, "
          f"{record['attempts']} attempt(s))")
    if args.kind == "analyze":
        report = result["report"]
        stats = result["stats"]
        print(f"total damage     : {report['total']:,.0f}")
        print(f"  via units      : {report['hardenable']:,.0f}")
        print(f"  unavoidable    : {report['unavoidable']:,.0f}")
        print(f"result cache     : {stats['cache']}")
        print("most critical hardening units:")
        for name, damage in report["most_critical_units"][: args.top]:
            print(f"  {name:24s} {damage:>14,.0f}")
    elif args.kind == "harden":
        print(f"max cost         : {result['max_cost']:,.0f}")
        print(f"max damage       : {result['max_damage']:,.0f}")
        print(f"front size       : {result['front_size']}")
        for label in ("min_cost", "min_damage"):
            solution = result[label]
            if solution is None:
                print(f"{label:16s} : infeasible on this front")
            else:
                print(
                    f"{label:16s} : cost {solution['cost']:,.0f}, "
                    f"damage {solution['damage']:,.0f} "
                    f"({solution['n_hardened']} spots)"
                )
    else:
        print(json.dumps(result, indent=2))
    return 0


def _rate_list(text: str) -> tuple:
    try:
        rates = tuple(float(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of rates, got {text!r}"
        ) from None
    if not rates:
        raise argparse.ArgumentTypeError("need at least one rate")
    return rates


def _campaign_plan(args):
    """Build the campaign plan from the parsed subcommand flags."""
    from .campaigns import DiagnosisPlan, KFaultPlan, MonteCarloPlan

    if args.campaign_kind == "montecarlo":
        return MonteCarloPlan(
            rates=args.rates,
            samples=args.samples,
            seed=args.seed,
            sampler=args.sampler,
            hardened_units=tuple(
                part for part in (args.hardened or "").split(",") if part
            ),
            bootstrap=args.bootstrap,
            confidence=args.confidence,
            block_lanes=args.block_lanes,
        )
    if args.campaign_kind == "kfault":
        return KFaultPlan(
            k=args.k,
            top=args.top,
            sites=args.sites,
            max_combinations=args.max_combinations,
            max_seconds=args.max_seconds,
            block_lanes=args.block_lanes,
        )
    return DiagnosisPlan(
        observations=args.observations,
        seed=args.seed,
        top=args.top,
        source=args.source,
        noise=args.noise,
        block_lanes=args.block_lanes,
    )


def _print_campaign_result(result) -> None:
    kind = result["kind"]
    print(f"campaign         : {kind}")
    print(f"network          : {result['network']}")
    print(
        f"blocks           : {result['blocks_completed']}"
        f"/{result['blocks_total']} "
        f"({result['blocks_resumed']} resumed), "
        f"{result['outcome']} in {result['elapsed_seconds']:.3f}s"
    )
    if result.get("truncated_reason"):
        print(f"truncated        : {result['truncated_reason']}")
    if kind == "montecarlo":
        print(
            f"{'rate':>10s} {'mean':>14s} {'ci95':>26s} "
            f"{'max':>12s} {'nonzero':>8s}"
        )
        for record in result["records"]:
            if not record["complete"]:
                print(f"{record['rate']:>10.5f}    (incomplete)")
                continue
            ci = (
                f"[{record['ci_low']:>11,.1f}, {record['ci_high']:>11,.1f}]"
                if "ci_low" in record
                else f"{'-':>26s}"
            )
            print(
                f"{record['rate']:>10.5f} {record['mean_damage']:>14,.2f} "
                f"{ci} {record['max_damage']:>12,.1f} "
                f"{record['nonzero_fraction']:>8.1%}"
            )
    elif kind == "kfault":
        summary = result["summary"]
        print(
            f"universe         : {summary['universe']} faults, "
            f"k={summary['k']}"
        )
        print(
            f"combinations     : {summary['combinations_evaluated']:,}"
            f"/{summary['combinations_total']:,} evaluated"
            + (" (truncated)" if summary["truncated"] else "")
        )
        print(
            f"damage           : mean {summary['mean_damage']:,.2f}, "
            f"max {summary['max_damage']:,.1f}"
        )
        print("worst combinations:")
        for entry in summary["top"][:10]:
            faults = ", ".join(
                "{}({})".format(
                    f["kind"],
                    ",".join(
                        str(f[key])
                        for key in ("segment", "mux", "port", "cell")
                        if key in f
                    ),
                )
                for f in entry["faults"]
            )
            print(f"  {entry['damage']:>12,.1f}  {faults}")
    else:
        summary = result["summary"]
        print(
            f"universe         : {summary['universe']} faults over "
            f"{summary['positions']} signature positions"
        )
        print(
            f"observations     : {summary['observations_evaluated']:,} "
            f"({result['block_observations']} per block)"
        )
        print(f"rank-1 accuracy  : {summary['rank1_accuracy']:.1%}")
        print(f"top-k accuracy   : {summary['topk_accuracy']:.1%}")
        print(
            f"mean recip. rank : {summary['mean_reciprocal_rank']:.3f}"
        )
        print(
            f"ambiguity        : {summary['ambiguity_groups']} groups, "
            f"largest {summary['largest_ambiguity_group']}, "
            f"resolution {summary['resolution']:.1%}"
        )


def _cmd_campaign(args) -> int:
    plan = _campaign_plan(args)
    if args.url:
        from .service import ServiceClient

        client = ServiceClient(args.url, timeout=args.timeout)
        if args.network in DESIGNS:
            entry = client.upload_network(design=args.network)
        else:
            with open(args.network, encoding="utf-8") as handle:
                entry = client.upload_network(icl=handle.read())
        print(f"fingerprint      : {entry['fingerprint'][:16]}…")
        params = dict(
            seed=args.seed,
            policy=args.policy,
            chunk_lanes=args.chunk_lanes,
            resume=not args.no_resume,
        )
        if args.max_lane_mb is not None:
            params["max_lane_mb"] = args.max_lane_mb
        record = client.campaign(
            entry["fingerprint"],
            plan,
            timeout=args.timeout,
            **params,
        )
        result = record["result"]
        print(
            f"job              : {record['id']} "
            f"({record['runtime_seconds']:.3f}s server-side)"
        )
    else:
        from .analysis import GraphDamageAnalysis
        from .campaigns import run_campaign

        network = _load_network(args.network)
        spec = spec_for_network(network, seed=args.seed)
        analysis = GraphDamageAnalysis(
            network,
            spec,
            policy=args.policy,
            chunk_lanes=args.chunk_lanes,
        )
        result = run_campaign(
            analysis,
            plan,
            max_lane_mb=args.max_lane_mb,
            checkpoint_path=args.checkpoint,
            resume=not args.no_resume,
        )
    _print_campaign_result(result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
        print(f"wrote {args.output}")
    return 0


def _cmd_example(args) -> int:
    from .bench.generators import fig1_example
    from .analysis import mux_stuck_effect
    from .sp import decompose

    network = fig1_example()
    tree = decompose(network)
    print("The paper's running example (Figs. 1-4), reconstructed:")
    print(tree.root.format())
    effect = mux_stuck_effect(tree, "m0", 1)
    unobs, unset = effect.lost_instruments(network)
    print("\nstuck-at-1 fault of m0 (Fig. 4):")
    print(f"  instruments lost: {sorted(unobs | unset)}")
    spec = spec_for_network(network, seed=args.seed)
    report = analyze_damage(network, spec)
    print("\nper-unit criticality:")
    for name, damage in report.most_critical_units(10):
        print(f"  {name:16s} {damage:>8,.0f}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-rsn",
        description="Robust Reconfigurable Scan Networks (DATE 2022) "
        "reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    _add_table1(subparsers)

    subparsers.add_parser("designs", help="list the benchmark registry")

    analyze = subparsers.add_parser(
        "analyze", help="criticality analysis of a network"
    )
    analyze.add_argument(
        "network", help="a design name or a path to a network file"
    )
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--top", type=int, default=10)
    analyze.add_argument(
        "--policy", choices=["max", "sum", "mean"], default="max"
    )
    analyze.add_argument(
        "--sites", choices=["all", "control", "mux"], default="all",
        help="which primitives' faults Eq. 2 sums over",
    )
    analyze.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record spans of the analysis and write a Chrome "
        "trace_event JSON to PATH (plus a hot-path tree on stdout)",
    )
    _add_engine_options(analyze)

    harden = subparsers.add_parser(
        "harden", help="selective-hardening synthesis of a network"
    )
    harden.add_argument(
        "network", help="a design name or a path to a network file"
    )
    harden.add_argument("--generations", type=int, default=300)
    harden.add_argument(
        "--population-size",
        type=_positive_int,
        default=None,
        metavar="P",
        help="EA population size (default: scaled to the network)",
    )
    harden.add_argument(
        "--algorithm", choices=["spea2", "nsga2"], default="spea2"
    )
    harden.add_argument(
        "--objective",
        choices=["linear", "fault-set"],
        default="linear",
        help="EA damage objective: the paper's linear Eq. 2 sum "
        "(default) or the exact joint damage of every un-hardened "
        "candidate faulting simultaneously",
    )
    harden.add_argument("--seed", type=int, default=0)
    harden.add_argument("--verify", action="store_true")
    harden.add_argument("--show-spots", type=int, default=0)
    _add_engine_options(harden)

    example = subparsers.add_parser(
        "example", help="walk through the paper's worked example"
    )
    example.add_argument("--seed", type=int, default=0)

    stats = subparsers.add_parser(
        "stats", help="structural statistics of a network"
    )
    stats.add_argument(
        "network", help="a design name or a path to a network file"
    )

    export = subparsers.add_parser(
        "export", help="write a benchmark design as a network file"
    )
    export.add_argument("design", help="a design name from the registry")
    export.add_argument("output", help="output path")

    dot = subparsers.add_parser(
        "dot", help="Graphviz DOT of a network (or its decomposition tree)"
    )
    dot.add_argument(
        "network", help="a design name or a path to a network file"
    )
    dot.add_argument("--tree", action="store_true")
    dot.add_argument("--output", default=None)

    serve = subparsers.add_parser(
        "serve", help="run the batching analysis service (HTTP JSON API)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8471)
    serve.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=2,
        metavar="N",
        help="analysis worker processes, sharded by network fingerprint "
        "(default 2; 0 = run every sweep in the server process)",
    )
    serve.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        metavar="N",
        help="shard count for the fingerprint → worker map "
        "(default 4 × workers; more shards = finer rebalance granularity)",
    )
    serve.add_argument(
        "--job-threads",
        type=_positive_int,
        default=2,
        metavar="N",
        help="job-queue worker threads (default 2; with worker "
        "processes these only park on shard futures)",
    )
    serve.add_argument(
        "--no-shm",
        action="store_true",
        help="ship compiled networks to workers by pickle instead of "
        "shared memory (debugging aid)",
    )
    serve.add_argument(
        "--job-timeout",
        type=_positive_float,
        default=None,
        metavar="S",
        help="default per-job timeout in seconds (default: none)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="analysis result-cache directory "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro-rsn)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent analysis result cache",
    )
    serve.add_argument(
        "--cache-max-mb",
        type=_positive_float,
        default=None,
        metavar="MB",
        help="cap the result cache at MB megabytes (LRU eviction)",
    )
    serve.add_argument(
        "--trace",
        action="store_true",
        help="enable in-process span collection (per-request traces "
        "retrievable via GET /trace/{id})",
    )
    serve.add_argument(
        "--history-interval",
        type=_nonnegative_float,
        default=1.0,
        metavar="S",
        help="metrics-history sampling interval in seconds "
        "(default 1.0; 0 disables GET /metrics/history)",
    )
    serve.add_argument(
        "--history-window",
        type=_positive_int,
        default=300,
        metavar="N",
        help="metrics-history ring-buffer points per series (default 300)",
    )
    serve.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default="debug",
        help="minimum level retained in the GET /logs ring (default "
        "debug; stderr echo stays at info)",
    )
    serve.add_argument(
        "--log-json",
        default=None,
        metavar="PATH",
        help="tee every structured log record to a JSONL file",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )

    top = subparsers.add_parser(
        "top",
        help="terminal dashboard for a running service (text twin of "
        "GET /dashboard)",
    )
    top.add_argument(
        "--url",
        default="http://127.0.0.1:8471",
        help="service base URL (default http://127.0.0.1:8471)",
    )
    top.add_argument(
        "--interval",
        type=_positive_float,
        default=2.0,
        metavar="S",
        help="seconds between frames (default 2)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (scripting / CI smoke)",
    )
    top.add_argument(
        "--iterations",
        type=_positive_int,
        default=None,
        metavar="N",
        help="frames to render before exiting (default: run until ^C)",
    )
    top.add_argument(
        "--log-lines",
        type=_nonnegative_int,
        default=8,
        metavar="N",
        help="log-tail lines per frame (default 8; 0 hides the tail)",
    )
    top.add_argument(
        "--timeout",
        type=_positive_float,
        default=10.0,
        metavar="S",
        help="per-request client timeout in seconds (default 10)",
    )

    campaign = subparsers.add_parser(
        "campaign",
        help="batched fault studies: Monte-Carlo rate sweeps, "
        "exhaustive k-fault enumeration, batched diagnosis",
    )
    campaign_kinds = campaign.add_subparsers(
        dest="campaign_kind", required=True
    )

    def _add_campaign_common(sub) -> None:
        sub.add_argument(
            "network", help="a design name or a path to a network file"
        )
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--policy", choices=["max", "sum", "mean"], default="max"
        )
        sub.add_argument(
            "--chunk-lanes",
            type=_positive_int,
            default=64,
            metavar="W",
            help="uint64 words of fault lanes per bitset kernel chunk "
            "(default 64 = 4096 lanes; one lane per fault set)",
        )
        sub.add_argument(
            "--max-lane-mb",
            type=_lane_budget_mb,
            default=64.0,
            metavar="MB",
            help="memory budget of one campaign block (default 64; "
            "0 = one kernel chunk per block)",
        )
        sub.add_argument(
            "--block-lanes",
            type=_positive_int,
            default=None,
            metavar="N",
            help="pin the exact block size (overrides --max-lane-mb)",
        )
        sub.add_argument(
            "--checkpoint",
            default=None,
            metavar="PATH",
            help="block-log path: a killed campaign rerun with the "
            "same plan resumes from its last completed block "
            "(service jobs checkpoint automatically)",
        )
        sub.add_argument(
            "--no-resume",
            action="store_true",
            help="ignore and overwrite an existing checkpoint",
        )
        sub.add_argument(
            "--output",
            default=None,
            metavar="PATH",
            help="also dump the full result JSON to PATH",
        )
        sub.add_argument(
            "--url",
            default=None,
            metavar="URL",
            help="run as a campaign job on a running service instead "
            "of in-process (progress appears in the job status)",
        )
        sub.add_argument(
            "--timeout",
            type=_positive_float,
            default=600.0,
            metavar="S",
            help="client-side wait budget for --url (default 600)",
        )

    montecarlo = campaign_kinds.add_parser(
        "montecarlo",
        help="expected damage vs defect rate (sampled fault sets)",
    )
    montecarlo.add_argument(
        "--rates",
        type=_rate_list,
        default=(0.0001, 0.0005, 0.001, 0.005, 0.01),
        help="comma-separated defect rates "
        "(default 0.0001,0.0005,0.001,0.005,0.01)",
    )
    montecarlo.add_argument(
        "--samples",
        type=_positive_int,
        default=1000,
        help="fault-set draws per rate (default 1000)",
    )
    montecarlo.add_argument(
        "--sampler",
        choices=["vectorized", "scalar"],
        default="vectorized",
        help="vectorized numpy sampling (default) or the scalar "
        "random.Random reference stream",
    )
    montecarlo.add_argument(
        "--hardened",
        default=None,
        metavar="UNITS",
        help="comma-separated hardened unit names (excluded as "
        "fault sites)",
    )
    montecarlo.add_argument(
        "--bootstrap",
        type=_nonnegative_int,
        default=200,
        help="bootstrap resamples for the CI on the mean "
        "(default 200; 0 disables)",
    )
    montecarlo.add_argument(
        "--confidence",
        type=_positive_float,
        default=0.95,
        help="CI confidence level (default 0.95)",
    )
    _add_campaign_common(montecarlo)

    kfault = campaign_kinds.add_parser(
        "kfault",
        help="exhaustive k-fault enumeration with budgets",
    )
    kfault.add_argument(
        "-k", type=_positive_int, default=2, help="faults per set "
        "(default 2)"
    )
    kfault.add_argument(
        "--top",
        type=_positive_int,
        default=20,
        help="worst combinations to keep (default 20)",
    )
    kfault.add_argument(
        "--sites",
        choices=["all", "segments", "muxes"],
        default="all",
        help="which fault sites enter the universe",
    )
    kfault.add_argument(
        "--max-combinations",
        type=_positive_int,
        default=None,
        metavar="N",
        help="cardinality budget (stop after N combinations)",
    )
    kfault.add_argument(
        "--max-seconds",
        type=_positive_float,
        default=None,
        metavar="S",
        help="time budget (stop at the first block past S seconds)",
    )
    _add_campaign_common(kfault)

    diagnose = campaign_kinds.add_parser(
        "diagnose",
        help="batched diagnosis accuracy over synthesized observations",
    )
    diagnose.add_argument(
        "--observations",
        type=_positive_int,
        default=100,
        help="observed signatures to rank (default 100)",
    )
    diagnose.add_argument(
        "--source",
        choices=["effects", "sequence"],
        default="effects",
        help="signature source: kernel effect signatures (default, "
        "scales to large designs) or exact test-sequence syndromes",
    )
    diagnose.add_argument(
        "--noise",
        type=float,
        default=0.0,
        help="probability of dropping each observed position "
        "(partial observation; default 0)",
    )
    diagnose.add_argument(
        "--top",
        type=_positive_int,
        default=5,
        help="candidates per ranking (default 5)",
    )
    _add_campaign_common(diagnose)

    bench_diff = subparsers.add_parser(
        "bench-diff",
        help="re-measure benchmark baselines; exit 1 on hot-path "
        "regression, 2 on unreadable baselines",
    )
    bench_diff.add_argument(
        "baselines",
        nargs="*",
        default=["results/BENCH_ea.json"],
        help="BENCH_*.json baseline files "
        "(default: results/BENCH_ea.json)",
    )
    bench_diff.add_argument(
        "--tolerance",
        type=_positive_float,
        default=0.2,
        metavar="FRAC",
        help="allowed fractional slowdown per hot path (default 0.2 "
        "= 20%%)",
    )
    bench_diff.add_argument(
        "--repeats",
        type=_positive_int,
        default=3,
        metavar="N",
        help="timing repeats per hot path; the best is kept (default 3)",
    )
    bench_diff.add_argument(
        "--max-segments",
        type=_positive_int,
        default=None,
        metavar="N",
        help="skip designs larger than N segments (bounds gate runtime)",
    )
    bench_diff.add_argument(
        "--soft",
        action="store_true",
        help="report regressions without failing (for noisy CI "
        "runners); parse errors still exit 2",
    )

    submit = subparsers.add_parser(
        "submit",
        help="upload a network to a running service and run one job",
    )
    submit.add_argument(
        "network", help="a design name or a path to a network file"
    )
    submit.add_argument(
        "--url",
        default="http://127.0.0.1:8471",
        help="service base URL (default http://127.0.0.1:8471)",
    )
    submit.add_argument(
        "--kind",
        choices=["analyze", "harden", "table1"],
        default="analyze",
    )
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--top", type=int, default=10)
    submit.add_argument(
        "--policy", choices=["max", "sum", "mean"], default="max"
    )
    submit.add_argument(
        "--sites", choices=["all", "control", "mux"], default="all"
    )
    submit.add_argument(
        "--generations",
        type=_positive_int,
        default=50,
        help="harden: EA generation budget",
    )
    submit.add_argument(
        "--scale-generations",
        type=_positive_float,
        default=1.0,
        help="table1: generation-budget scaling",
    )
    submit.add_argument(
        "--timeout",
        type=_positive_float,
        default=300.0,
        metavar="S",
        help="client-side wait budget in seconds (default 300)",
    )

    args = parser.parse_args(argv)
    handlers = {
        "table1": _cmd_table1,
        "designs": _cmd_designs,
        "analyze": _cmd_analyze,
        "harden": _cmd_harden,
        "example": _cmd_example,
        "stats": _cmd_stats,
        "export": _cmd_export,
        "dot": _cmd_dot,
        "serve": _cmd_serve,
        "top": _cmd_top,
        "submit": _cmd_submit,
        "campaign": _cmd_campaign,
        "bench-diff": _cmd_bench_diff,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
