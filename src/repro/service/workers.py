"""Sharded analysis worker processes: the multi-core service tier.

The coalescer recovers batch shape from concurrency, but with
``--workers 0`` every solve still executes under the front-end
process's GIL.  This module moves the CPU-bound work into a persistent
pool of worker *processes*, sharded by compiled-IR fingerprint:

* **shard map** — fingerprints hash onto a fixed number of shards;
  shards map onto workers through a consistent-hash ring
  (:class:`ShardMap`), so one network's kernels live in exactly one
  worker (cache affinity, no duplicate interning) and a worker's death
  moves only *its* shards, not the whole assignment;
* **per-shard work queues** — requests park in parent-side FIFO queues,
  one per shard; each worker has at most ``_MAX_INFLIGHT`` requests on
  its pipe, and a result arriving pumps its next one, so a rebalanced
  shard's backlog follows the shard to its new owner instead of dying
  with the old one;
* **one pipe per worker, one I/O loop** — each worker has one duplex
  pipe; the parent's end is non-blocking and every write, result read
  and crash detection runs as a callback on one asyncio loop (the HTTP
  front-end's under ``serve``, a private thread's otherwise), so the
  pool adds no thread to a serving front-end process;
* **zero-copy shipping** — a network is shipped to its worker once, as a
  :mod:`repro.ir.shm` shared-memory segment when available (the worker's
  kernel reads the parent's arrays in place) or a pickle otherwise;
* **crash recovery** — a dead worker shows up at once as EOF on its
  pipe or its process sentinel turning readable; its in-flight and
  queued requests are re-dispatched (bounded retries), the worker
  restarts in place up to ``max_restarts`` times, and beyond that it is
  removed from the ring so its shards rebalance onto the survivors;
* **observability** — requests carry the submitting thread's trace
  carrier across the process boundary; workers record their spans into a
  private collector and ship them home with each result, exactly like
  the engine's chunk workers.

Results are bit-identical to in-process evaluation: the worker routes
through the same :func:`repro.service.solver.single_fault_solver`
rule (the O(N) DP for series-parallel networks, the bitset kernel
otherwise) over the same IR and the same pickled spec, so every float
comes out of the same operation sequence (asserted end-to-end in
``tests/service``).
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
import os
import pickle
import struct
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import multiprocessing

from ..errors import ReproError
from ..ir.shm import receive, ship
from ..obs.log import LogBuffer, capturing, current_log_buffer, get_logger
from ..obs.trace import SpanCollector, collecting, current_collector, span, use_carrier

__all__ = [
    "PoolClosedError",
    "ShardMap",
    "WorkerCrashError",
    "WorkerPool",
    "report_payload",
]

#: Requests a worker has in flight at most; the rest wait in the shard
#: FIFOs, so a rebalanced shard's backlog moves with the shard.
_MAX_INFLIGHT = 8
#: ``multiprocessing.connection`` frame header: payload length.
_HEADER = struct.Struct("!i")
_READ_SIZE = 1 << 18


class WorkerCrashError(ReproError):
    """A request failed because its worker died (bounded retries spent)."""


class PoolClosedError(ReproError):
    """The pool is shut down (or has no live workers left)."""


def report_payload(report) -> Dict:
    """JSON form of a :class:`repro.analysis.DamageReport` — shared by
    the HTTP layer and the analyze-in-worker path, so both produce the
    same wire shape."""
    return {
        "network": report.network.name,
        "policy": report.policy,
        "total": report.total,
        "hardenable": report.hardenable,
        "unavoidable": report.unavoidable,
        "primitive_damage": report.primitive_damage,
        "unit_damage": report.unit_damage,
        "most_critical_units": report.most_critical_units(10),
    }


def _point(key: str) -> int:
    return int(hashlib.sha256(key.encode("utf-8")).hexdigest()[:16], 16)


class ShardMap:
    """Fingerprint → shard → worker, with consistent-hash rebalance.

    ``shard_of`` is a pure stable hash — a fingerprint's shard never
    changes.  ``worker_of`` walks a ring of ``replicas`` virtual points
    per worker, so removing one worker reassigns only the shards that
    hashed onto its points.  Both are memoized: the shard → worker
    assignment is rebuilt only when a worker joins or leaves the ring,
    so a lookup on the request path costs no hashing.
    """

    def __init__(self, shards: int, replicas: int = 32):
        if shards < 1:
            raise ReproError(f"shards must be >= 1, got {shards}")
        self.n_shards = int(shards)
        self.replicas = int(replicas)
        self._points: List[int] = []  # sorted ring positions
        self._owner: Dict[int, int] = {}  # ring position -> worker id
        self._workers: set = set()
        self._shard_memo: Dict[str, int] = {}  # fingerprint -> shard
        self._assignment: Dict[int, int] = {}  # shard -> worker id
        self._owned: Dict[int, List[int]] = {}  # worker id -> shards

    def add_worker(self, worker_id: int) -> None:
        if worker_id in self._workers:
            return
        self._workers.add(worker_id)
        for replica in range(self.replicas):
            point = _point(f"w{worker_id}:{replica}")
            # Ties are astronomically unlikely; lowest id wins for
            # determinism if they happen.
            if point in self._owner:
                self._owner[point] = min(self._owner[point], worker_id)
                continue
            bisect.insort(self._points, point)
            self._owner[point] = worker_id
        self._reassign()

    def remove_worker(self, worker_id: int) -> None:
        if worker_id not in self._workers:
            return
        self._workers.discard(worker_id)
        for replica in range(self.replicas):
            point = _point(f"w{worker_id}:{replica}")
            if self._owner.get(point) == worker_id:
                del self._owner[point]
                index = bisect.bisect_left(self._points, point)
                if (
                    index < len(self._points)
                    and self._points[index] == point
                ):
                    del self._points[index]
        self._reassign()

    def _walk(self, shard: int) -> int:
        """The ring walk: the owner of the first point after ``shard``."""
        index = bisect.bisect_right(self._points, _point(f"s{shard}"))
        if index == len(self._points):
            index = 0
        return self._owner[self._points[index]]

    def _reassign(self) -> None:
        self._assignment = (
            {shard: self._walk(shard) for shard in range(self.n_shards)}
            if self._points
            else {}
        )
        self._owned = {}
        for shard, owner in self._assignment.items():
            self._owned.setdefault(owner, []).append(shard)

    def workers(self) -> List[int]:
        return sorted(self._workers)

    def shard_of(self, fingerprint: str) -> int:
        shard = self._shard_memo.get(fingerprint)
        if shard is None:
            shard = _point(f"fp:{fingerprint}") % self.n_shards
            self._shard_memo[fingerprint] = shard
        return shard

    def worker_of(self, shard: int) -> int:
        if not self._assignment:
            raise PoolClosedError("no live workers on the ring")
        return self._assignment[shard]

    def assignment(self) -> Dict[int, int]:
        """shard id → owning worker id, for every shard."""
        if not self._assignment:
            raise PoolClosedError("no live workers on the ring")
        return dict(self._assignment)

    def shards_of(self, worker_id: int) -> List[int]:
        return list(self._owned.get(worker_id, ()))


# ---------------------------------------------------------------------------
# worker-process side
# ---------------------------------------------------------------------------
def _worker_main(worker_id: int, conn) -> None:
    """Entry point of one analysis worker process.

    ``conn`` is the worker's end of its duplex pipe to the parent:
    requests arrive on it in order and every reply goes back on it, from
    the message loop or the profiler thread, under one send lock.  Owns
    a partition of interned kernels: networks registered to it are
    attached (shared memory) or unpickled once, kernels are memoized per
    ``(fingerprint, seed, policy, chunk_lanes)``, and the dict-graph
    view needed by analyze jobs is rebuilt lazily per fingerprint.
    """
    import gc

    from ..analysis.engine import CriticalityEngine
    from ..ir.shm import detach
    from ..obs.profile import profile_for
    from .solver import single_fault_solver

    log = get_logger("worker")
    send_lock = threading.Lock()

    def reply(result) -> None:
        with send_lock:
            conn.send(result)

    networks: Dict[str, Tuple[object, object]] = {}  # fp -> (ir, shm|None)
    register_errors: Dict[str, str] = {}
    specs: Dict[Tuple[str, int], object] = {}
    kernels: Dict[Tuple[str, int, str, int], object] = {}
    dict_nets: Dict[str, object] = {}

    def _ir_of(fp: str):
        if fp in register_errors:
            raise ReproError(register_errors[fp])
        try:
            return networks[fp][0]
        except KeyError:
            raise ReproError(
                f"network {fp!r} is not registered on worker {worker_id}"
            ) from None

    def _spec_of(fp: str, seed: int):
        try:
            return specs[(fp, seed)]
        except KeyError:
            raise ReproError(
                f"no spec for ({fp!r}, seed {seed}) on worker {worker_id}"
            ) from None

    def _network_of(fp: str):
        net = dict_nets.get(fp)
        if net is None:
            # Interns straight to the received IR: no second compile.
            net = _ir_of(fp).to_network()
            dict_nets[fp] = net
        return net

    def _kernel_of(fp: str, seed: int, policy: str, chunk_lanes: int):
        key = (fp, seed, policy, chunk_lanes)
        kernel = kernels.get(key)
        if kernel is None:
            kernel = single_fault_solver(
                _network_of(fp), _spec_of(fp, seed), policy, chunk_lanes
            )
            kernels[key] = kernel
        return kernel

    def _run(handler, carrier):
        """Run one handler, recording spans and log records into private
        sinks when the request is traced; returns
        ``(payload, shipped spans, shipped log records)``."""
        if carrier is None:
            return handler(), [], []
        spans_local = SpanCollector()
        logs_local = LogBuffer(1_000)
        with collecting(spans_local), use_carrier(carrier), capturing(
            logs_local
        ):
            payload = handler()
        return (
            payload,
            [record.as_dict() for record in spans_local.spans()],
            [record.as_dict() for record in logs_local.records()],
        )

    while True:
        try:
            message = conn.recv()
        except EOFError:
            break  # the parent is gone
        kind = message[0]
        if kind == "stop":
            break
        if kind == "register":
            _, fp, transport, payload = message
            try:
                networks[fp] = receive(transport, payload)
                register_errors.pop(fp, None)
            except Exception as exc:
                register_errors[fp] = (
                    f"worker {worker_id} failed to receive network "
                    f"{fp!r}: {type(exc).__name__}: {exc}"
                )
            continue
        if kind == "spec":
            _, fp, seed, blob = message
            try:
                specs[(fp, seed)] = pickle.loads(blob)
            except Exception as exc:  # pragma: no cover - defensive
                register_errors[fp] = (
                    f"worker {worker_id} failed to load spec: {exc}"
                )
            continue
        req_id = message[1]
        try:
            if kind == "ping":
                reply(
                    (
                        req_id,
                        True,
                        {
                            "pid": os.getpid(),
                            "networks": len(networks),
                            "kernels": len(kernels),
                        },
                        [],
                        [],
                    )
                )
                continue
            if kind == "profile":
                _, _, seconds, interval, carrier = message

                def _profile(
                    req_id=req_id,
                    seconds=seconds,
                    interval=interval,
                    carrier=carrier,
                ):
                    try:
                        with use_carrier(carrier):
                            profiler = profile_for(
                                seconds, interval=interval
                            )
                        payload = profiler.as_dict()
                        payload["worker"] = worker_id
                        reply((req_id, True, payload, [], []))
                    except Exception as exc:  # pragma: no cover
                        reply(
                            (
                                req_id,
                                False,
                                f"{type(exc).__name__}: {exc}",
                                [],
                                [],
                            )
                        )

                # Off the message loop: the worker keeps solving damage
                # batches while the profiler samples them — that load is
                # exactly what should show up in the folded stacks.
                threading.Thread(
                    target=_profile,
                    name=f"repro-worker-{worker_id}-profiler",
                    daemon=True,
                ).start()
                continue
            if kind == "damage":
                _, _, fp, seed, policy, chunk_lanes, faults, carrier = (
                    message
                )

                def _solve():
                    damages = _kernel_of(
                        fp, seed, policy, chunk_lanes
                    ).damage_vector(
                        faults, worker=worker_id, fingerprint=fp[:16]
                    )
                    log.debug(
                        "damage batch solved",
                        worker=worker_id,
                        fingerprint=fp[:16],
                        lanes=len(faults),
                    )
                    return damages

                damages, spans, logs = _run(_solve, carrier)
                reply((req_id, True, damages, spans, logs))
                continue
            if kind == "analyze":
                _, _, fp, seed, params, carrier = message

                def _analyze():
                    with span(
                        "worker.analyze",
                        worker=worker_id,
                        fingerprint=fp[:16],
                    ):
                        engine = CriticalityEngine(
                            _network_of(fp),
                            _spec_of(fp, seed),
                            method=params.get("method", "fast"),
                            policy=params.get("policy", "max"),
                            jobs=0,
                            cache_dir=params.get("cache_dir"),
                            backend=params.get("backend", "ir"),
                            chunk_lanes=params.get("chunk_lanes", 64),
                            max_cache_mb=params.get("max_cache_mb"),
                        )
                        report = engine.report(
                            sites=params.get("sites", "all")
                        )
                        return {
                            "report": report_payload(report),
                            "stats": engine.stats.as_dict(),
                        }

                payload, spans, logs = _run(_analyze, carrier)
                reply((req_id, True, payload, spans, logs))
                continue
            raise ReproError(f"unknown worker message {kind!r}")
        except Exception as exc:
            reply((req_id, False, f"{type(exc).__name__}: {exc}", [], []))

    # Orderly detach: kernels hold numpy views into the shared pages, so
    # drop them (and any stragglers the GC owns) before releasing the
    # IR's own memoryviews and closing each segment.
    kernels.clear()
    dict_nets.clear()
    specs.clear()
    gc.collect()
    for ir, shm in networks.values():
        detach(ir, shm)
    networks.clear()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------
class _Request:
    __slots__ = (
        "req_id",
        "shard",
        "fingerprint",
        "seed",
        "kind",
        "tail",
        "future",
        "attempts",
        "submitted",
    )

    def __init__(self, req_id, shard, fingerprint, seed, kind, tail, future):
        self.req_id = req_id
        self.shard = shard
        self.fingerprint = fingerprint
        self.seed = seed
        self.kind = kind
        #: message fields after (kind, req_id, fingerprint) — pre-built
        #: so a re-dispatch after a crash sends exactly the same request.
        self.tail = tail
        self.future = future
        self.attempts = 0
        self.submitted = time.monotonic()


class _ShippedNetwork:
    """Parent-side record of one network's wire form."""

    __slots__ = ("fingerprint", "transport", "segment", "blob", "specs")

    def __init__(self, fingerprint, transport, segment, blob):
        self.fingerprint = fingerprint
        self.transport = transport  # "shm" | "pickle"
        self.segment = segment  # ShmSegment | None
        self.blob = blob  # pickled IR | None
        self.specs: Dict[int, bytes] = {}  # seed -> pickled spec

    def wire(self):
        if self.transport == "shm":
            return self.segment.name
        return self.blob


def _frame(message) -> bytes:
    """One message in :class:`multiprocessing.connection.Connection`'s
    wire format (``!i`` length, then the pickle), so the worker reads it
    with a plain ``Connection.recv()``."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload)) + payload


class _WorkerHandle:
    """One live worker process plus the parent's end of its pipe.

    The parent end is non-blocking and only ever touched from the
    pool's I/O loop: ``rbuf`` collects partial result frames, ``wbuf``
    the bytes a full pipe did not take yet.
    """

    def __init__(self, worker_id: int, ctx):
        self.worker_id = worker_id
        self.conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, child),
            name=f"repro-shard-worker-{worker_id}",
            daemon=True,
        )
        self.registered: set = set()  # fingerprints shipped
        self.specs: set = set()  # (fingerprint, seed) shipped
        self.inflight: Dict[int, _Request] = {}
        self.stopped = False
        self.process.start()
        # Only the worker holds the child end now, so its death is EOF.
        child.close()
        self.fd = self.conn.fileno()
        os.set_blocking(self.fd, False)
        self.rbuf = bytearray()
        self.wbuf = bytearray()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()


class WorkerPool:
    """Persistent sharded pool of analysis worker processes.

    ``submit``-style entry points (:meth:`damage`, :meth:`analyze`,
    :meth:`ping`, :meth:`profile`) return
    :class:`concurrent.futures.Future` and may be called from any
    thread; parking, shard routing, shipping and crash recovery are
    internal.

    Every pipe read and write, result resolution and crash recovery
    runs as a callback on one asyncio loop — the pool's *I/O loop*.  A
    new pool runs a private loop thread; :meth:`bind_loop` moves the
    I/O onto a running loop (the HTTP front-end's), so a ``/damage``
    submitted there is written to its worker, and its result read and
    resolved, without leaving that thread.  ``bind_loop(None)`` hands
    the I/O back to a private thread.  Each worker has at most
    ``_MAX_INFLIGHT`` requests in flight; the rest wait in the shard
    FIFOs, so a rebalanced shard's backlog follows the shard to its new
    owner.
    """

    def __init__(
        self,
        workers: int = 2,
        shards: Optional[int] = None,
        prefer_shm: bool = True,
        start_method: Optional[str] = None,
        max_restarts: int = 3,
        max_redispatch: int = 2,
        monitor_interval: Optional[float] = None,
        on_depth: Optional[Callable[[int, int], None]] = None,
        on_worker_event: Optional[Callable[[int, str], None]] = None,
    ):
        """``monitor_interval`` is accepted for existing callers and
        ignored: a worker's death is seen at once, as EOF on its pipe
        or its process sentinel turning readable."""
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        self.n_workers = int(workers)
        self.prefer_shm = bool(prefer_shm)
        self.max_restarts = max(0, int(max_restarts))
        self.max_redispatch = max(0, int(max_redispatch))
        self._on_depth = on_depth
        self._on_worker_event = on_worker_event
        if start_method is None:
            # forkserver children fork from a clean, single-threaded
            # server process — no inherited locks or pipe ends from this
            # (threaded) parent, and restarts after the first worker are
            # cheap.
            methods = multiprocessing.get_all_start_methods()
            start_method = (
                "forkserver" if "forkserver" in methods else "spawn"
            )
        self._ctx = multiprocessing.get_context(start_method)
        self.map = ShardMap(
            shards if shards is not None else 4 * self.n_workers
        )
        self._lock = threading.Lock()
        self._shard_queues: List[deque] = [
            deque() for _ in range(self.map.n_shards)
        ]
        self._shipped: Dict[str, _ShippedNetwork] = {}
        self._handles: Dict[int, _WorkerHandle] = {}
        self._restarts: Dict[int, int] = {}
        self._req_ids = itertools.count(1)
        self._closed = False
        for worker_id in range(self.n_workers):
            self.map.add_worker(worker_id)
            self._handles[worker_id] = _WorkerHandle(worker_id, self._ctx)
            self._restarts[worker_id] = 0
        # The I/O loop and the ident of the thread running it.  Loop
        # callbacks check the ident, so one that was queued just before
        # the I/O moved forwards itself instead of racing the new owner.
        self._loop, self._loop_tid, self._private = self._private_loop()
        self._call_on_loop(self._watch_all)

    # -- the I/O loop -------------------------------------------------------
    @staticmethod
    def _private_loop():
        loop = asyncio.new_event_loop()
        started = threading.Event()
        thread = threading.Thread(
            target=_run_loop,
            args=(loop, started),
            name="repro-pool-io",
            daemon=True,
        )
        thread.start()
        started.wait()
        return loop, thread.ident, thread

    def bind_loop(self, loop: Optional[asyncio.AbstractEventLoop]) -> None:
        """Move the pool's I/O onto ``loop``, which must be the running
        loop of the calling thread; ``None`` moves it back onto a new
        private loop thread.  Requests in flight survive the move: a
        result the old loop did not read waits in the pipe."""
        with self._lock:
            if self._closed or loop is self._loop:
                return
        if loop is None:
            target, tid, private = self._private_loop()
        else:
            target, tid, private = loop, threading.get_ident(), None
        old_loop, old_private = self._loop, self._private

        def hand_over():
            for handle in self._live_handles():
                self._unwatch(handle)
            with self._lock:
                self._loop, self._loop_tid = target, tid
                self._private = private

        self._call_on_loop(hand_over)
        self._call_on_loop(self._watch_all)
        if old_private is not None:
            _stop_loop_thread(old_private, old_loop)

    def _on_loop(self) -> bool:
        return threading.get_ident() == self._loop_tid

    def _call_on_loop(self, fn, *args, timeout: float = 10.0) -> bool:
        """Run ``fn(*args)`` on the I/O loop and wait for it; ``False``
        if the loop did not get to it within ``timeout``."""
        if self._on_loop():
            fn(*args)
            return True
        done = threading.Event()

        def run():
            if not self._on_loop():  # the I/O moved meanwhile
                self._call_soon(run)
                return
            try:
                fn(*args)
            finally:
                done.set()

        self._call_soon(run)
        return done.wait(timeout)

    def _call_soon(self, fn, *args) -> None:
        """Schedule ``fn(*args)`` on the I/O loop from any thread.

        Under the lock, so a move of the I/O cannot slip in between
        reading the loop and scheduling on it: the callback lands either
        on the new loop, or on the old one ahead of its stop (and then
        forwards itself)."""
        with self._lock:
            try:
                self._loop.call_soon_threadsafe(fn, *args)
            except RuntimeError:
                pass  # the loop is closed: the pool is shutting down

    def _live_handles(self) -> List[_WorkerHandle]:
        with self._lock:
            return [h for h in self._handles.values() if not h.stopped]

    def _watch(self, handle: _WorkerHandle) -> None:
        self._loop.add_reader(handle.fd, self._on_readable, handle)
        self._loop.add_reader(
            handle.process.sentinel, self._on_exit, handle
        )
        if handle.wbuf:
            self._loop.add_writer(handle.fd, self._on_writable, handle)

    def _unwatch(self, handle: _WorkerHandle) -> None:
        self._loop.remove_reader(handle.fd)
        self._loop.remove_reader(handle.process.sentinel)
        self._loop.remove_writer(handle.fd)

    def _watch_all(self) -> None:
        for handle in self._live_handles():
            self._watch(handle)
            self._pump(handle)

    # -- registration ----------------------------------------------------
    def register_network(self, ir, spec=None, seed: int = 0) -> None:
        """Make ``ir`` shippable (packed once); optionally attach the
        spec for ``seed``.  Idempotent per fingerprint / seed."""
        with self._lock:
            shipped = self._shipped.get(ir.fingerprint)
            if shipped is None:
                transport, payload = ship(ir, prefer_shm=self.prefer_shm)
                if transport == "shm":
                    shipped = _ShippedNetwork(
                        ir.fingerprint, "shm", payload, None
                    )
                else:
                    shipped = _ShippedNetwork(
                        ir.fingerprint, "pickle", None, payload
                    )
                self._shipped[ir.fingerprint] = shipped
            if spec is not None and int(seed) not in shipped.specs:
                shipped.specs[int(seed)] = pickle.dumps(
                    spec, protocol=pickle.HIGHEST_PROTOCOL
                )

    def ensure_spec(self, fingerprint: str, seed: int, spec) -> None:
        with self._lock:
            shipped = self._shipped.get(fingerprint)
            if shipped is None:
                raise ReproError(
                    f"network {fingerprint!r} not registered with the pool"
                )
            if int(seed) not in shipped.specs:
                shipped.specs[int(seed)] = pickle.dumps(
                    spec, protocol=pickle.HIGHEST_PROTOCOL
                )

    # -- request entry points --------------------------------------------
    def damage(
        self,
        fingerprint: str,
        faults: Sequence,
        seed: int = 0,
        policy: str = "max",
        chunk_lanes: int = 64,
        carrier: Optional[Dict] = None,
    ) -> "Future[List[float]]":
        """Damage of each fault, evaluated on the owning shard's worker."""
        tail = (
            int(seed),
            str(policy),
            int(chunk_lanes),
            list(faults),
            carrier,
        )
        return self._submit("damage", fingerprint, int(seed), tail)

    def analyze(
        self,
        fingerprint: str,
        seed: int = 0,
        params: Optional[Dict] = None,
        carrier: Optional[Dict] = None,
    ) -> "Future[Dict]":
        """A full criticality report computed inside the shard worker."""
        return self._submit(
            "analyze",
            fingerprint,
            int(seed),
            (int(seed), dict(params or {}), carrier),
        )

    def ping(self, worker_id: int) -> "Future[Dict]":
        """Round-trip liveness probe of one specific worker."""
        return self._submit_to(worker_id, None, "ping", ())

    def profile(
        self,
        fingerprint: Optional[str] = None,
        worker_id: Optional[int] = None,
        seconds: float = 0.5,
        interval: float = 0.005,
        carrier: Optional[Dict] = None,
    ) -> "Future[Dict]":
        """Sample the worker owning ``fingerprint``'s shard (or a
        specific ``worker_id``) for ``seconds`` of wall time.

        Worker-addressed like :meth:`ping` — the profiler must land on
        one specific process — but non-blocking inside the worker: the
        sampling runs on a worker-side thread while the message loop
        keeps solving, so concurrent load shows up in the stacks.
        """
        if worker_id is None:
            if fingerprint is None:
                raise ReproError("profile needs a fingerprint or a worker id")
            with self._lock:
                if fingerprint not in self._shipped:
                    raise ReproError(
                        f"network {fingerprint!r} not registered with "
                        "the pool"
                    )
                worker_id = self.map.worker_of(self.map.shard_of(fingerprint))
        return self._submit_to(
            worker_id,
            fingerprint,
            "profile",
            (float(seconds), float(interval), carrier),
        )

    def _submit_to(self, worker_id, fingerprint, kind, tail) -> Future:
        """Send one request to a specific worker, past the shard FIFOs
        and the in-flight bound; it dies with that worker."""
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise PoolClosedError("worker pool is closed")
            handle = self._handles.get(worker_id)
            if handle is None:
                raise ReproError(f"no worker {worker_id}")
            req = _Request(
                next(self._req_ids), -1, fingerprint, 0, kind, tail, future
            )
            handle.inflight[req.req_id] = req
        self._send_to(handle, [(kind, req.req_id) + tail])
        return future

    def _submit(self, kind, fingerprint, seed, tail) -> Future:
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise PoolClosedError("worker pool is closed")
            if fingerprint not in self._shipped:
                raise ReproError(
                    f"network {fingerprint!r} not registered with the pool"
                )
            shard = self.map.shard_of(fingerprint)
            owner = self._handles.get(self.map.worker_of(shard))
            req = _Request(
                next(self._req_ids),
                shard,
                fingerprint,
                seed,
                kind,
                tail,
                future,
            )
            self._shard_queues[shard].append(req)
            depth = len(self._shard_queues[shard])
        self._report_depth(shard, depth)
        if owner is not None:
            self._pump(owner)
        return future

    # -- writing ----------------------------------------------------------
    def _owned_request(self, worker_id: int) -> Optional[_Request]:
        """Pop the next request from a shard owned by ``worker_id``.

        Caller holds the lock.  Oldest-first across owned shards keeps
        FIFO fairness under rebalance.
        """
        best_shard = None
        best_when = None
        for shard in self.map.shards_of(worker_id):
            queue = self._shard_queues[shard]
            if queue and (
                best_when is None or queue[0].submitted < best_when
            ):
                best_when = queue[0].submitted
                best_shard = shard
        if best_shard is None:
            return None
        req = self._shard_queues[best_shard].popleft()
        self._report_depth_locked(best_shard)
        return req

    def _pump(self, handle: _WorkerHandle) -> None:
        """Move queued requests of ``handle``'s shards onto its pipe,
        up to the in-flight bound.  Called off the I/O loop, it
        reschedules itself there."""
        if not self._on_loop():
            self._call_soon(self._pump, handle)
            return
        messages: List[Tuple] = []
        with self._lock:
            if handle.stopped or self._closed:
                return
            while len(handle.inflight) < _MAX_INFLIGHT:
                req = self._owned_request(handle.worker_id)
                if req is None:
                    break
                messages.extend(self._messages_for(handle, req))
                handle.inflight[req.req_id] = req
        if messages:
            self._write(handle, messages)

    def _send_to(self, handle: _WorkerHandle, messages: List[Tuple]) -> None:
        if not self._on_loop():
            self._call_soon(self._send_to, handle, messages)
        elif not handle.stopped:
            self._write(handle, messages)

    def _messages_for(
        self, handle: _WorkerHandle, req: _Request
    ) -> List[Tuple]:
        """The wire messages for one request, prefixed with any missing
        registration / spec shipments for its worker.  Caller holds the
        lock."""
        messages: List[Tuple] = []
        shipped = self._shipped[req.fingerprint]
        if req.fingerprint not in handle.registered:
            if shipped.transport == "shm":
                shipped.segment.acquire()
            messages.append(
                (
                    "register",
                    req.fingerprint,
                    shipped.transport,
                    shipped.wire(),
                )
            )
            handle.registered.add(req.fingerprint)
        spec_key = (req.fingerprint, req.seed)
        if spec_key not in handle.specs:
            blob = shipped.specs.get(req.seed)
            if blob is not None:
                messages.append(
                    ("spec", req.fingerprint, req.seed, blob)
                )
                handle.specs.add(spec_key)
        messages.append(
            (req.kind, req.req_id, req.fingerprint) + req.tail
        )
        return messages

    def _write(self, handle: _WorkerHandle, messages: List[Tuple]) -> None:
        """Frame and write ``messages``; whatever a full pipe does not
        take is buffered and written when the pipe drains — the loop
        never blocks on a worker."""
        data = b"".join(_frame(message) for message in messages)
        if handle.wbuf:
            handle.wbuf += data
            return
        try:
            sent = os.write(handle.fd, data)
        except BlockingIOError:
            sent = 0
        except OSError:
            return  # the worker is dead; EOF / its sentinel recovers it
        if sent < len(data):
            handle.wbuf += data[sent:]
            self._loop.add_writer(handle.fd, self._on_writable, handle)

    def _on_writable(self, handle: _WorkerHandle) -> None:
        try:
            sent = os.write(handle.fd, handle.wbuf)
        except BlockingIOError:
            return
        except OSError:
            sent = len(handle.wbuf)
        del handle.wbuf[:sent]
        if not handle.wbuf:
            self._loop.remove_writer(handle.fd)

    # -- reading ----------------------------------------------------------
    def _on_readable(self, handle: _WorkerHandle) -> None:
        if self._read(handle) is False:
            self._recover_worker(handle.worker_id, handle)
            return
        self._pump(handle)

    def _read(self, handle: _WorkerHandle) -> Optional[bool]:
        """Read once and resolve every complete result frame: ``True``
        if data came, ``None`` if the pipe was empty, ``False`` on EOF
        (the worker is gone)."""
        try:
            chunk = os.read(handle.fd, _READ_SIZE)
        except BlockingIOError:
            return None
        except OSError:
            chunk = b""
        if not chunk:
            return False
        buf = handle.rbuf
        buf += chunk
        results = []
        offset = 0
        while len(buf) - offset >= _HEADER.size:
            (size,) = _HEADER.unpack_from(buf, offset)
            end = offset + _HEADER.size + size
            if len(buf) < end:
                break
            results.append(pickle.loads(buf[offset + _HEADER.size : end]))
            offset = end
        del buf[:offset]
        for result in results:
            self._resolve(handle, *result)
        return True

    def _resolve(self, handle, req_id, ok, payload, spans, logs) -> None:
        with self._lock:
            request = handle.inflight.pop(req_id, None)
        if request is None:
            return  # stale result from a recovered request
        if spans:
            collector = current_collector()
            if collector is not None:
                collector.ingest(spans)
        if logs:
            buffer = current_log_buffer()
            if buffer is not None:
                buffer.ingest(logs)
        if request.future.cancelled():
            return
        if ok:
            request.future.set_result(payload)
        else:
            request.future.set_exception(ReproError(str(payload)))

    # -- crash recovery ---------------------------------------------------
    def _on_exit(self, handle: _WorkerHandle) -> None:
        """The worker process ended: take the results it wrote before
        dying, then recover."""
        if handle.stopped:
            return
        while self._read(handle):
            pass
        self._recover_worker(handle.worker_id, handle)

    def _recover_worker(self, worker_id: int, handle: _WorkerHandle) -> None:
        if handle.stopped:
            return  # already recovered
        self._unwatch(handle)
        with self._lock:
            if self._closed:
                return  # close() stops and reaps every worker
            handle.stopped = True
            orphans = list(handle.inflight.values())
            handle.inflight.clear()
            # A dead worker's attachments are gone: release its refs so
            # segments don't outlive the networks they serve.
            for fingerprint in handle.registered:
                shipped = self._shipped.get(fingerprint)
                if shipped is not None and shipped.transport == "shm":
                    shipped.segment.release()
            restarts = self._restarts[worker_id] + 1
            self._restarts[worker_id] = restarts
            if restarts <= self.max_restarts:
                self._handles[worker_id] = _WorkerHandle(
                    worker_id, self._ctx
                )
                event = "restarted"
            else:
                del self._handles[worker_id]
                self.map.remove_worker(worker_id)
                event = "removed"
            failures: List[_Request] = []
            for req in orphans:
                req.attempts += 1
                if req.shard < 0 or req.attempts > self.max_redispatch:
                    # Pings and profiles are worker-addressed, not
                    # shard-addressed: they die with their worker.
                    failures.append(req)
                else:
                    self._shard_queues[req.shard].appendleft(req)
            still_routable = bool(self.map.workers())
        handle.conn.close()
        handle.fd = -1
        if event == "restarted":
            self._watch(self._handles[worker_id])
        self._emit_worker(worker_id, "died")
        self._emit_worker(worker_id, event)
        for req in failures:
            if not req.future.cancelled():
                req.future.set_exception(
                    WorkerCrashError(
                        f"{req.kind} request lost to {req.attempts} "
                        f"worker crash(es)"
                    )
                )
        if not still_routable:
            self._fail_all_pending(
                WorkerCrashError("all workers are gone")
            )
        for survivor in self._live_handles():
            self._pump(survivor)

    def _fail_all_pending(self, exc: Exception) -> None:
        with self._lock:
            pending: List[_Request] = []
            for queue in self._shard_queues:
                pending.extend(queue)
                queue.clear()
        for req in pending:
            if not req.future.cancelled():
                req.future.set_exception(exc)

    # -- introspection ----------------------------------------------------
    def depths(self) -> Dict[int, int]:
        with self._lock:
            return {
                shard: len(queue)
                for shard, queue in enumerate(self._shard_queues)
            }

    def describe(self) -> Dict:
        """Liveness + topology snapshot (feeds ``/healthz``)."""
        with self._lock:
            try:
                assignment = self.map.assignment()
            except PoolClosedError:
                assignment = {}
            shards = {
                str(shard): {
                    "worker": assignment.get(shard),
                    "depth": len(self._shard_queues[shard]),
                }
                for shard in range(self.map.n_shards)
            }
            workers = {
                str(worker_id): {
                    "alive": handle.alive(),
                    "pid": handle.pid,
                    "restarts": self._restarts.get(worker_id, 0),
                    "networks": len(handle.registered),
                    "inflight": len(handle.inflight),
                }
                for worker_id, handle in self._handles.items()
            }
        return {
            "shards": shards,
            "workers": workers,
            "n_shards": self.map.n_shards,
            "transport": "shm" if self.prefer_shm else "pickle",
        }

    def inflight(self) -> int:
        with self._lock:
            return sum(
                len(handle.inflight) for handle in self._handles.values()
            )

    # -- lifecycle ---------------------------------------------------------
    def kill_worker(self, worker_id: int) -> Optional[int]:
        """Hard-kill one worker process (crash-recovery tests)."""
        with self._lock:
            handle = self._handles.get(worker_id)
            pid = handle.pid if handle is not None else None
        if handle is not None and handle.alive():
            handle.process.kill()
        return pid

    def close(self, timeout: float = 10.0) -> None:
        """Stop intake, fail queued work, stop workers, free segments."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles.values())
            pending: List[_Request] = []
            for queue in self._shard_queues:
                pending.extend(queue)
                queue.clear()
            for handle in handles:
                pending.extend(handle.inflight.values())
                handle.inflight.clear()
        for req in pending:
            if not req.future.cancelled():
                req.future.set_exception(
                    PoolClosedError("worker pool is closed")
                )

        def stop_workers():
            for handle in handles:
                if handle.stopped:
                    continue
                handle.stopped = True
                self._unwatch(handle)
                if handle.wbuf:
                    # A frame is half-written: no stop message can
                    # follow it, and the work behind it is failed.
                    handle.process.kill()
                else:
                    self._write(handle, [("stop",)])

        # A loop that is no longer running cannot deliver the stop
        # message; the workers are then killed below.
        self._call_on_loop(stop_workers, timeout=min(timeout, 5.0))
        deadline = time.monotonic() + timeout
        for handle in handles:
            remaining = max(0.0, deadline - time.monotonic())
            handle.process.join(remaining)
            if handle.alive():
                handle.process.kill()
                handle.process.join(1.0)
            handle.conn.close()
        if self._private is not None:
            _stop_loop_thread(self._private, self._loop)
            self._private = None
        with self._lock:
            shipped = list(self._shipped.values())
            self._shipped.clear()
        for record in shipped:
            if record.transport == "shm" and record.segment is not None:
                record.segment.unlink()

    # -- metric hooks ------------------------------------------------------
    def _report_depth(self, shard: int, depth: int) -> None:
        if self._on_depth is not None:
            try:
                self._on_depth(shard, depth)
            except Exception:
                pass

    def _report_depth_locked(self, shard: int) -> None:
        self._report_depth(shard, len(self._shard_queues[shard]))

    def _emit_worker(self, worker_id: int, event: str) -> None:
        if self._on_worker_event is not None:
            try:
                self._on_worker_event(worker_id, event)
            except Exception:
                pass


def _run_loop(loop: asyncio.AbstractEventLoop, started) -> None:
    asyncio.set_event_loop(loop)
    loop.call_soon(started.set)
    try:
        loop.run_forever()
    finally:
        loop.close()


def _stop_loop_thread(thread: threading.Thread, loop) -> None:
    try:
        loop.call_soon_threadsafe(loop.stop)
    except RuntimeError:
        pass  # already closed
    if thread is not threading.current_thread():
        thread.join(timeout=10.0)
