"""`repro.service` facade: the batching analysis daemon's state.

:class:`AnalysisService` is the in-process facade tying the subsystem
together — the network registry (upload/intern once), the job queue
(long-running analyses), the micro-batching coalescer (concurrent fault
queries share kernel sweeps), the optional sharded worker-process pool
and the metrics registry.  It knows nothing about HTTP: the one HTTP
front-end, :mod:`repro.service.aserver`, owns the route table, the
error mapping and the ``X-Trace-Id`` protocol, and calls into this
facade.

Analyze jobs run through :class:`repro.analysis.CriticalityEngine` with
the service's shared disk cache, so a repeated analyze of the same
(network, spec, method) is a cache hit, not a recompute — observable in
the job's ``result.stats.cache`` and the ``repro_engine_cache_total``
counter.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Optional, Tuple

from .. import __version__
from ..analysis.engine import (
    ANALYSIS_VERSION,
    CriticalityEngine,
    default_cache_dir,
)
from ..analysis.faults import ControlCellBreak, MuxStuck, fault_from_dict
from ..errors import ReproError
from ..ir import IR_VERSION
from ..ir import MUX as IR_MUX
from ..ir import ROLE_DATA as IR_ROLE_DATA
from ..ir import SEGMENT as IR_SEGMENT
from ..obs.export import chrome_trace_events
from ..obs.history import MetricsHistory
from ..obs.log import (
    configure_logging,
    current_log_buffer,
    get_logger,
    logging_configured,
)
from ..obs.metrics import global_registry
from ..obs.profile import profile_for
from ..obs.trace import (
    current_carrier,
    current_collector,
    enable_tracing,
    span,
    tracing_enabled,
)
from .batching import BatchCoalescer
from .jobs import Job, JobQueue
from .registry import NetworkRegistry, RegistryError
from .workers import WorkerPool, report_payload

__all__ = [
    "AnalysisService",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "NotFoundError",
]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8471

_JOB_KINDS = ("analyze", "harden", "table1", "campaign", "sleep")


class NotFoundError(ReproError):
    """A lookup of an unknown network or job (HTTP 404)."""


# One wire shape for reports whether they are computed in-process or
# inside a shard worker (the worker serializes with the same function).
_report_payload = report_payload


def _check_fault(ir, fault) -> None:
    """Reject a single fault ``ir``'s network cannot have: a break must
    name a segment of the matching role (data for ``segment_break``, a
    configuration cell for ``control_cell_break``), a stuck fault a mux
    and one of its stuck values."""
    if isinstance(fault, MuxStuck):
        node_id = ir.id_of(fault.mux)
        if ir.kinds[node_id] != IR_MUX:
            raise ReproError(f"mux_stuck: {fault.mux!r} is not a mux")
        if fault.port not in ir.stuck_values(node_id):
            raise ReproError(
                f"mux_stuck: mux {fault.mux!r} has no port {fault.port} "
                f"(ports 0..{ir.fanin[node_id] - 1})"
            )
        return
    cell = isinstance(fault, ControlCellBreak)
    kind, wanted = (
        ("control_cell_break", "configuration cell")
        if cell
        else ("segment_break", "data segment")
    )
    node_id = ir.id_of(fault.site)
    is_data = ir.roles[node_id] == IR_ROLE_DATA
    if ir.kinds[node_id] != IR_SEGMENT or is_data == cell:
        raise ReproError(f"{kind}: {fault.site!r} is not a {wanted}")


class AnalysisService:
    """Registry + job queue + coalescer + metrics, behind one facade."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        no_cache: bool = False,
        max_cache_mb: Optional[float] = None,
        workers: int = 2,
        batch_max_faults: int = 4096,
        job_timeout: Optional[float] = None,
        job_retries: int = 2,
        engine_jobs=None,
        tracing: bool = False,
        shard_workers: int = 0,
        shards: Optional[int] = None,
        prefer_shm: bool = True,
        start_method: Optional[str] = None,
        history_interval: float = 1.0,
        history_window: int = 300,
        log_level: str = "debug",
        log_echo: str = "info",
        log_jsonl: Optional[str] = None,
        profile_max_seconds: float = 30.0,
    ):
        self.cache_dir = (
            None
            if no_cache
            else (cache_dir if cache_dir else default_cache_dir())
        )
        self.max_cache_mb = max_cache_mb
        self.engine_jobs = engine_jobs
        self.started_at = time.time()
        self.registry = NetworkRegistry()
        # The process-global registry: the engine and the tracer feed it
        # too, so one /metrics scrape covers the whole pipeline.
        self.metrics = global_registry()
        if tracing and not tracing_enabled():
            enable_tracing()
        # Structured logging: install the process-wide ring unless the
        # host already configured one (tests, embedding applications).
        # Worker-shipped records land in this buffer too.
        if not logging_configured():
            configure_logging(
                level=log_level, echo=log_echo, jsonl_path=log_jsonl
            )
        self.log = get_logger("service")
        self.profile_max_seconds = float(profile_max_seconds)
        # Metrics history: a background sampler snapshotting the whole
        # registry into bounded ring buffers (interval 0 disables).
        self.history: Optional[MetricsHistory] = None
        if history_interval and history_interval > 0:
            self.history = MetricsHistory(
                registry=self.metrics,
                interval=history_interval,
                window=history_window,
            ).start()
        m = self.metrics
        self._m_requests = m.counter(
            "repro_http_requests_total",
            "HTTP requests served, by method, route and status code.",
            ("method", "path", "status"),
        )
        self._m_request_seconds = m.histogram(
            "repro_http_request_seconds",
            "Wall-clock latency of HTTP requests, by route.",
            ("path",),
        )
        self._m_jobs = m.counter(
            "repro_jobs_total",
            "Job lifecycle events, by kind and event.",
            ("kind", "event"),
        )
        self._m_job_seconds = m.histogram(
            "repro_job_seconds",
            "Job runtime from start to terminal state, by kind.",
            ("kind",),
        )
        self._m_job_cpu = m.counter(
            "repro_job_cpu_seconds_total",
            "CPU seconds charged to finished jobs, by kind.",
            ("kind",),
        )
        self._m_job_lane_mb = m.counter(
            "repro_job_lane_mb_total",
            "Lane-mask working-set MB streamed by finished jobs, by kind.",
            ("kind",),
        )
        self._m_queue_depth = m.gauge(
            "repro_job_queue_depth",
            "Jobs queued and not yet started.",
        )
        self._m_networks = m.gauge(
            "repro_networks_registered",
            "Networks interned in the registry.",
        )
        self._m_batch_occupancy = m.histogram(
            "repro_batch_occupancy",
            "Coalesced requests per dispatched fault batch.",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
        )
        self._m_batch_lanes = m.histogram(
            "repro_batch_lanes",
            "Fault lanes per dispatched batch.",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096),
        )
        self._m_batch_wait = m.histogram(
            "repro_batch_wait_seconds",
            "Age of a batch (first request to dispatch).",
            buckets=(0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25),
        )
        self.queue = JobQueue(
            workers=workers,
            default_timeout=job_timeout,
            default_max_retries=job_retries,
            on_event=self._job_event,
        )
        self.coalescer = BatchCoalescer(
            max_faults=batch_max_faults,
            on_batch=self._batch_event,
        )
        # One memoized solve callable per (fingerprint, seed, policy).
        self._solves: Dict[Tuple[str, int, str], Callable] = {}
        # The sharded worker-process tier (0 = in-process mode: every
        # solve runs on one service-owned thread, under this process's
        # GIL but never on the HTTP event loop).
        self.pool: Optional[WorkerPool] = None
        self._solve_executor: Optional[ThreadPoolExecutor] = None
        if not shard_workers:
            self._solve_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-solve"
            )
        else:
            self._m_shard_depth = m.gauge(
                "repro_shard_queue_depth",
                "Requests parked in each shard's work queue.",
                ("shard",),
            )
            self._m_shard_events = m.counter(
                "repro_shard_worker_events_total",
                "Shard worker lifecycle events (died/restarted/removed).",
                ("event",),
            )
            self.pool = WorkerPool(
                workers=shard_workers,
                shards=shards,
                prefer_shm=prefer_shm,
                start_method=start_method,
                on_depth=lambda shard, depth: self._m_shard_depth.set(
                    depth, shard=str(shard)
                ),
                on_worker_event=lambda _wid, event: (
                    self._m_shard_events.inc(event=event)
                ),
            )

    # -- metric hooks ----------------------------------------------------
    def _job_event(self, job: Job, event: str) -> None:
        self._m_jobs.inc(kind=job.kind, event=event)
        self._m_queue_depth.set(self.queue.depth())
        if event in ("succeeded", "failed", "cancelled"):
            runtime = job.runtime_seconds
            if runtime is not None:
                self._m_job_seconds.observe(runtime, kind=job.kind)
            resources = job.resources
            if resources:
                self._m_job_cpu.inc(
                    max(0.0, resources.get("cpu_seconds", 0.0)),
                    kind=job.kind,
                )
                self._m_job_lane_mb.inc(
                    max(0.0, resources.get("lane_mb", 0.0)),
                    kind=job.kind,
                )

    def _batch_event(self, occupancy: int, lanes: int, age: float) -> None:
        self._m_batch_occupancy.observe(occupancy)
        self._m_batch_lanes.observe(lanes)
        self._m_batch_wait.observe(age)

    # -- operations ------------------------------------------------------
    def upload(self, payload: Dict) -> Dict:
        entry = self.registry.add(payload)
        self._m_networks.set(len(self.registry))
        return entry.describe()

    def list_networks(self) -> Dict:
        return {
            "networks": [e.describe() for e in self.registry.entries()]
        }

    def submit_job(self, payload: Dict) -> Dict:
        if not isinstance(payload, dict):
            raise ReproError("job payload must be an object")
        kind = payload.get("kind", "analyze")
        if kind not in _JOB_KINDS:
            raise ReproError(
                f"unknown job kind {kind!r}; expected one of {_JOB_KINDS}"
            )
        runner, params = getattr(self, f"_prepare_{kind}")(payload)
        job = self.queue.submit(
            runner,
            kind=kind,
            params=params,
            timeout=payload.get("timeout"),
            max_retries=payload.get("max_retries"),
        )
        self._m_queue_depth.set(self.queue.depth())
        return job.as_dict()

    def job_info(self, job_id: str) -> Dict:
        return self._get_job(job_id).as_dict()

    def list_jobs(self) -> Dict:
        return {"jobs": [job.as_dict() for job in self.queue.jobs()]}

    def cancel_job(self, job_id: str) -> Dict:
        self._get_job(job_id)  # 404 before cancel
        return self.queue.cancel(job_id).as_dict()

    def _get_job(self, job_id: str) -> Job:
        try:
            return self.queue.get(job_id)
        except ReproError as exc:
            raise NotFoundError(str(exc)) from None

    def _get_entry(self, payload: Dict):
        fingerprint = payload.get("fingerprint")
        if not fingerprint:
            raise ReproError("missing 'fingerprint'")
        try:
            return self.registry.get(str(fingerprint))
        except RegistryError as exc:
            raise NotFoundError(str(exc)) from None

    # -- job kinds -------------------------------------------------------
    def _prepare_analyze(self, payload: Dict) -> Tuple:
        entry = self._get_entry(payload)
        seed = int(payload.get("seed", 0))
        backend = str(payload.get("backend", "ir"))
        method = payload.get("method")
        if method is None:
            method = "fast" if backend == "ir" else "graph"
        params = {
            "fingerprint": entry.fingerprint,
            "network": entry.name,
            "seed": seed,
            "method": str(method),
            "policy": str(payload.get("policy", "max")),
            "sites": str(payload.get("sites", "all")),
            "backend": backend,
            "chunk_lanes": int(payload.get("chunk_lanes", 64)),
        }

        def run(job: Job) -> Dict:
            if self.pool is not None:
                # The job thread only parks on the future; the sweep
                # runs inside the shard worker that owns the kernel.
                self._pool_register(entry, seed)
                future = self.pool.analyze(
                    entry.fingerprint,
                    seed=seed,
                    params={
                        "method": params["method"],
                        "policy": params["policy"],
                        "sites": params["sites"],
                        "backend": params["backend"],
                        "chunk_lanes": params["chunk_lanes"],
                        "cache_dir": self.cache_dir,
                        "max_cache_mb": self.max_cache_mb,
                    },
                    carrier=current_carrier(),
                )
                return future.result()
            spec = self.registry.spec(entry.fingerprint, seed=seed)
            engine = CriticalityEngine(
                entry.network,
                spec,
                method=params["method"],
                policy=params["policy"],
                jobs=self.engine_jobs,
                cache_dir=self.cache_dir,
                backend=params["backend"],
                chunk_lanes=params["chunk_lanes"],
                max_cache_mb=self.max_cache_mb,
            )
            report = engine.report(sites=params["sites"])
            stats = engine.stats.as_dict()
            return {"report": _report_payload(report), "stats": stats}

        return run, params

    def _prepare_harden(self, payload: Dict) -> Tuple:
        from ..core.hardening import SelectiveHardening

        entry = self._get_entry(payload)
        seed = int(payload.get("seed", 0))
        params = {
            "fingerprint": entry.fingerprint,
            "network": entry.name,
            "seed": seed,
            "generations": int(payload.get("generations", 50)),
            "algorithm": str(payload.get("algorithm", "spea2")),
        }

        def run(job: Job) -> Dict:
            spec = self.registry.spec(entry.fingerprint, seed=seed)
            synthesis = SelectiveHardening(
                entry.network,
                spec=spec,
                seed=seed,
                jobs=self.engine_jobs,
                cache_dir=self.cache_dir,
                max_cache_mb=self.max_cache_mb,
            )
            result = synthesis.optimize(
                generations=params["generations"],
                algorithm=params["algorithm"],
            )
            out: Dict = {
                "max_cost": synthesis.max_cost,
                "max_damage": synthesis.max_damage,
                "front_size": len(result.objectives),
                "runtime_seconds": result.runtime_seconds,
            }
            for label, solution in (
                ("min_cost", result.min_cost_solution(0.10)),
                ("min_damage", result.min_damage_solution(0.10)),
            ):
                out[label] = (
                    None
                    if solution is None
                    else {
                        "cost": solution.cost,
                        "damage": solution.damage,
                        "n_hardened": solution.n_hardened,
                        "hardened": list(solution.hardened),
                    }
                )
            if synthesis.analysis_stats is not None:
                out["stats"] = synthesis.analysis_stats.as_dict()
            return out

        return run, params

    def _prepare_table1(self, payload: Dict) -> Tuple:
        from ..bench import DESIGNS, run_design

        design = payload.get("design")
        if design not in DESIGNS:
            raise NotFoundError(f"unknown benchmark design {design!r}")
        params = {
            "design": str(design),
            "scale_generations": float(
                payload.get("scale_generations", 1.0)
            ),
            "seed": int(payload.get("seed", 0)),
            "algorithm": str(payload.get("algorithm", "spea2")),
        }

        def run(job: Job) -> Dict:
            row = run_design(
                params["design"],
                scale_generations=params["scale_generations"],
                seed=params["seed"],
                algorithm=params["algorithm"],
                jobs=self.engine_jobs,
                cache_dir=self.cache_dir,
                max_cache_mb=self.max_cache_mb,
            )
            return row.as_dict()

        return run, params

    def _campaign_checkpoint(
        self, fingerprint: str, seed: int, policy: str, plan
    ) -> Optional[str]:
        """Checkpoint path for one campaign identity, under the service
        cache directory.  The name only needs to be *stable* across
        resubmissions — the checkpoint header carries the full campaign
        key and a mismatch (new plan, new code version) invalidates the
        file — so a killed or cancelled campaign job resubmitted with
        the same payload resumes from its last completed block."""
        if self.cache_dir is None:
            return None
        material = json.dumps(
            {
                "fingerprint": fingerprint,
                "seed": seed,
                "policy": policy,
                "plan": plan.as_dict(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        name = hashlib.sha256(material.encode("utf-8")).hexdigest()[:24]
        directory = os.path.join(self.cache_dir, "campaigns")
        os.makedirs(directory, exist_ok=True)
        return os.path.join(directory, f"{name}.jsonl")

    def _prepare_campaign(self, payload: Dict) -> Tuple:
        from ..campaigns import plan_from_dict, run_campaign

        entry = self._get_entry(payload)
        seed = int(payload.get("seed", 0))
        policy = str(payload.get("policy", "max"))
        backend = str(payload.get("backend", "bitset"))
        chunk_lanes = int(payload.get("chunk_lanes", 64))
        raw_plan = payload.get("campaign")
        if not isinstance(raw_plan, dict):
            raise ReproError(
                "campaign jobs need a 'campaign' object (the plan in "
                "dict form, with a 'kind')"
            )
        plan = plan_from_dict(raw_plan)
        raw_mb = payload.get("max_lane_mb")
        max_lane_mb = None if raw_mb is None else float(raw_mb)
        resume = bool(payload.get("resume", True))
        checkpoint_path = self._campaign_checkpoint(
            entry.fingerprint, seed, policy, plan
        )
        params = {
            "fingerprint": entry.fingerprint,
            "network": entry.name,
            "seed": seed,
            "policy": policy,
            "backend": backend,
            "campaign": plan.kind,
            "plan": plan.as_dict(),
        }

        def run(job: Job) -> Dict:
            analysis, lock = self.registry.campaign_analysis(
                entry.fingerprint,
                seed=seed,
                policy=policy,
                backend=backend,
                chunk_lanes=chunk_lanes,
            )
            return run_campaign(
                analysis,
                plan,
                max_lane_mb=max_lane_mb,
                checkpoint_path=checkpoint_path,
                resume=resume,
                progress=job.set_progress,
                cancelled=job.cancelled,
                lock=lock,
            )

        return run, params

    def _prepare_sleep(self, payload: Dict) -> Tuple:
        """Diagnostics kind: hold a worker for ``seconds`` (used to probe
        liveness under an in-flight long job, and to test cancellation);
        cancels cooperatively at 50 ms granularity."""
        seconds = float(payload.get("seconds", 1.0))
        params = {"seconds": seconds}

        def run(job: Job) -> Dict:
            deadline = time.monotonic() + seconds
            while time.monotonic() < deadline:
                if job.cancelled():
                    return {"slept": seconds - (deadline - time.monotonic())}
                time.sleep(min(0.05, max(0.0, deadline - time.monotonic())))
            return {"slept": seconds}

        return run, params

    # -- coalesced fault queries ----------------------------------------
    def _pool_register(self, entry, seed: int) -> None:
        """Ship a registered network (and its seed's spec) to the pool —
        idempotent, the segment is packed once per fingerprint."""
        spec = self.registry.spec(entry.fingerprint, seed=seed)
        self.pool.register_network(entry.ir, spec=spec, seed=seed)

    def _damage_solver(self, entry, seed: int, policy: str) -> Callable:
        """The coalescer's solve callable for one (network, seed, policy),
        memoized: it takes the merged faults and returns a Future.

        Pool mode enqueues the merged batch on the owning shard.
        In-process mode submits the memoized solver's ``damage_vector``
        to the service's single solve thread — built there on first use
        too, so no kernel work runs in the submitting thread (the HTTP
        event loop) and each solver is only ever driven by one thread.
        Both modes route by regime through
        :func:`repro.service.solver.single_fault_solver`.
        """
        key = (entry.fingerprint, seed, policy)
        solve = self._solves.get(key)
        if solve is not None:
            return solve
        fingerprint = entry.fingerprint
        if self.pool is None:
            registry, executor = self.registry, self._solve_executor

            def run(merged):
                return registry.damage_solver(
                    fingerprint, seed=seed, policy=policy
                ).damage_vector(merged)

            def solve(merged):
                # Carry the dispatch span's context onto the solve
                # thread, so the solver's spans join the request trace.
                context = contextvars.copy_context()
                return executor.submit(context.run, run, merged)

        else:
            self._pool_register(entry, seed)
            pool = self.pool

            def solve(merged):
                return pool.damage(
                    fingerprint,
                    merged,
                    seed=seed,
                    policy=policy,
                    carrier=current_carrier(),
                )

        # A racing duplicate is equivalent; setdefault keeps one.
        return self._solves.setdefault(key, solve)

    def bind_loop(self, loop) -> None:
        """Run the worker pool's pipe I/O on ``loop`` (the calling
        thread's running loop), or on a private thread for ``None``.
        The HTTP front-end binds its loop while it serves."""
        if self.pool is not None:
            self.pool.bind_loop(loop)

    def damage_submit(self, payload: Dict):
        """Validate and park a damage query on the coalescer.

        Returns ``(meta, future, timeout)`` where ``future`` resolves to
        the damages list; the HTTP front-end calls this on its event
        loop and awaits the future there.  Nothing here blocks: an idle
        key's batch is handed to its solver before this returns.  Every
        fault is checked against the network's IR here, before any
        solver sees it, so a fault the network cannot have is a 400 in
        both service modes.  Concurrent calls targeting the
        same (fingerprint, seed, policy) group-commit into one solve;
        with a worker pool the solve runs on the shard that owns the
        fingerprint.
        """
        if not isinstance(payload, dict):
            raise ReproError("damage payload must be an object")
        entry = self._get_entry(payload)
        seed = int(payload.get("seed", 0))
        policy = str(payload.get("policy", "max"))
        raw_faults = payload.get("faults")
        if not isinstance(raw_faults, list):
            raise ReproError("'faults' must be a list of fault objects")
        faults = [fault_from_dict(f) for f in raw_faults]
        for fault in faults:
            _check_fault(entry.ir, fault)
        with span(
            "service.damage",
            fingerprint=entry.fingerprint[:16],
            faults=len(faults),
        ):
            future = self.coalescer.submit(
                (entry.fingerprint, seed, policy),
                self._damage_solver(entry, seed, policy),
                faults,
            )
        meta = {
            "fingerprint": entry.fingerprint,
            "seed": seed,
            "policy": policy,
        }
        return meta, future, float(payload.get("timeout", 60.0))

    # -- introspection ---------------------------------------------------
    def version(self) -> Dict:
        """Package + cache-key versions, so a client can correlate a
        trace with the exact analysis/IR semantics that produced it."""
        return {
            "version": __version__,
            "analysis_version": ANALYSIS_VERSION,
            "ir_version": IR_VERSION,
        }

    def trace(self, trace_id: str) -> Dict:
        """The collected spans of one trace as a Chrome trace_event
        document (load in ``chrome://tracing`` / Perfetto)."""
        collector = current_collector()
        if collector is None:
            raise NotFoundError(
                "tracing is disabled (start the service with --trace)"
            )
        events = chrome_trace_events(collector, trace_id)
        if not events:
            raise NotFoundError(f"no spans recorded for trace {trace_id!r}")
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def metrics_history(
        self,
        name: Optional[str] = None,
        points: Optional[int] = None,
    ) -> Dict:
        """Ring-buffer time series for ``GET /metrics/history``."""
        if self.history is None:
            raise NotFoundError(
                "metrics history is disabled "
                "(start the service with history_interval > 0)"
            )
        return self.history.as_dict(name=name, points=points)

    def logs(
        self,
        level: Optional[str] = None,
        trace_id: Optional[str] = None,
        logger: Optional[str] = None,
        limit: int = 200,
    ) -> Dict:
        """Filtered tail of the structured log ring (``GET /logs``)."""
        buffer = current_log_buffer()
        if buffer is None:
            raise NotFoundError("structured logging is not configured")
        records = buffer.records(
            level=level, trace_id=trace_id, logger=logger, limit=limit
        )
        return {
            "records": [record.as_dict() for record in records],
            "dropped": buffer.dropped,
            "retained": len(buffer),
        }

    def profile(self, payload: Optional[Dict] = None) -> Dict:
        """Run a sampling profile (``POST /profile``).

        With a worker pool and a ``fingerprint`` (or explicit
        ``worker``), the profiler runs *inside the worker process that
        owns the shard* — its main loop keeps solving batches while a
        background thread samples, and the folded stacks come home like
        span payloads.  Otherwise the serving process profiles itself.
        """
        payload = payload or {}
        seconds = float(payload.get("seconds", 0.5))
        if seconds <= 0:
            raise ReproError("profile 'seconds' must be positive")
        seconds = min(seconds, self.profile_max_seconds)
        interval = float(payload.get("interval", 0.005))
        if interval <= 0:
            raise ReproError("profile 'interval' must be positive")
        fingerprint = payload.get("fingerprint")
        worker = payload.get("worker")
        if self.pool is not None and (
            fingerprint or worker is not None
        ):
            if fingerprint:
                entry = self._get_entry({"fingerprint": fingerprint})
                self._pool_register(entry, int(payload.get("seed", 0)))
                future = self.pool.profile(
                    fingerprint=entry.fingerprint,
                    seconds=seconds,
                    interval=interval,
                    carrier=current_carrier(),
                )
            else:
                future = self.pool.profile(
                    worker_id=int(worker),
                    seconds=seconds,
                    interval=interval,
                    carrier=current_carrier(),
                )
            result = future.result(timeout=seconds + 30.0)
            return {**result, "target": "worker"}
        profiler = profile_for(seconds, interval=interval)
        return {**profiler.as_dict(), "target": "service"}

    # -- liveness --------------------------------------------------------
    def healthz(self) -> Dict:
        out = {
            "status": "ok",
            "version": __version__,
            "analysis_version": ANALYSIS_VERSION,
            "uptime_seconds": time.time() - self.started_at,
            "networks": len(self.registry),
            "jobs": self.queue.counts(),
            "queue_depth": self.queue.depth(),
            "cache_dir": self.cache_dir,
        }
        if self.pool is not None:
            pool = self.pool.describe()
            dead = [
                worker_id
                for worker_id, state in pool["workers"].items()
                if not state["alive"]
            ]
            if dead:
                out["status"] = "degraded"
            out["pool"] = pool
        return out

    def close(self, drain: bool = True, timeout: Optional[float] = None):
        """Graceful shutdown, in dependency order: flush parked batches
        (they may still dispatch to the pool), drain the job queue (jobs
        may still park on pool futures), then stop the workers.  A
        SIGTERM while requests are parked behind a running solve
        therefore resolves every parked future instead of abandoning
        it."""
        self.coalescer.close(timeout=timeout if drain else 0.0)
        self.queue.shutdown(drain=drain, timeout=timeout)
        if self.pool is not None:
            self.pool.close()
        if self._solve_executor is not None:
            self._solve_executor.shutdown(wait=drain)
        if self.history is not None:
            self.history.stop()
