"""Micro-batching coalescer: many concurrent fault queries, one solve.

A request (``key``, list of faults) parks on a
:class:`concurrent.futures.Future`.  Requests sharing a key (same
network fingerprint / seed / policy, i.e. the same solver instance) are
merged into one fault list, solved by a **single** ``damage_vector``
call, and the per-request slices are scattered back to their futures.
Since ``damage_vector`` evaluates each fault independently, the
coalesced result is bit-identical to per-request evaluation (asserted
end-to-end in ``tests/service``).

Batches form by **group commit**, not by a timer:

* a key with no batch in flight dispatches its request at once — an
  idle service adds no batching latency at all;
* requests for a key whose solve is still running park, and dispatch
  together as the next batch the moment that solve completes (sync or
  async, success or failure);
* a parked batch that reaches ``max_faults`` lanes dispatches early,
  without waiting for the running solve.

So batch occupancy (requests per dispatch, exposed as a histogram via
``on_batch``) follows load by itself: it is 1 while the solver keeps up
and grows exactly as fast as requests queue behind a running solve.

Dispatch runs on one dedicated thread per coalescer; synchronous solves
therefore run single-threaded, which is the thread-safety contract of
the in-process solvers
(:func:`repro.service.solver.single_fault_solver`).

A ``solve`` callable may also return a :class:`~concurrent.futures.
Future` of the damages instead of the damages themselves — that is how
the sharded worker tier plugs in: the dispatcher thread hands the merged
batch to the shard queue and moves straight on to the next key, so
batches for different shards solve concurrently while each solver still
sees in-order batches.  The scatter then runs from the future's
done-callback, which also releases the key.  :meth:`drain` flushes
parked batches *and* waits for those in-flight asynchronous solves,
which is what graceful shutdown calls before tearing the worker pool
down.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from concurrent.futures import wait as _futures_wait
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..obs.trace import current_carrier, span, use_carrier

__all__ = ["BatchCoalescer"]


class _PendingBatch:
    """Requests parked for one key, waiting for the key's solve slot."""

    __slots__ = ("key", "solve", "requests", "n_faults", "opened")

    def __init__(self, key, solve):
        self.key = key
        self.solve = solve
        #: (faults, future, submitting thread's trace carrier or None)
        self.requests: List[Tuple[Sequence, Future, Optional[Dict]]] = []
        self.n_faults = 0
        self.opened = time.monotonic()


class BatchCoalescer:
    """Merge concurrent per-key requests into single batched solves."""

    def __init__(
        self,
        max_faults: int = 4096,
        on_batch: Optional[Callable[[int, int, float], None]] = None,
    ):
        """``max_faults`` — lane budget that dispatches a parked batch
        without waiting for its key's running solve;
        ``on_batch(occupancy, lanes, age)`` — metrics hook per dispatch.
        """
        if max_faults < 1:
            raise ReproError(f"max_faults must be >= 1, got {max_faults}")
        self.max_faults = int(max_faults)
        self._on_batch = on_batch
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._pending: Dict[Hashable, _PendingBatch] = {}
        self._busy: Dict[Hashable, int] = {}  # key -> solves in flight
        self._inflight: set = set()  # Futures of async solves
        self._closed = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name="repro-batch-dispatcher",
            daemon=True,
        )
        self._dispatcher.start()

    # -- request side ----------------------------------------------------
    def submit(
        self,
        key: Hashable,
        solve: Callable[[List], Sequence[float]],
        faults: Sequence,
    ) -> "Future[List[float]]":
        """Park ``faults`` on ``key``'s next batch; resolve to the list
        of damages for exactly these faults, in order.

        ``solve`` must be the same callable for every request sharing a
        key (it is the memoized solver's ``damage_vector``); the batch
        keeps the first one it sees.
        """
        future: "Future[List[float]]" = Future()
        if not faults:
            future.set_result([])
            return future
        with self._lock:
            if self._closed:
                raise ReproError("coalescer is closed")
            batch = self._pending.get(key)
            if batch is None:
                batch = _PendingBatch(key, solve)
                self._pending[key] = batch
            batch.requests.append(
                (list(faults), future, current_carrier())
            )
            batch.n_faults += len(faults)
            if self._ready(key, batch):
                self._wakeup.notify()
        return future

    def flush(self) -> None:
        """Dispatch every pending batch now (synchronously), whether or
        not its key has a solve in flight."""
        with self._lock:
            batches = list(self._pending.values())
            self._pending.clear()
            for batch in batches:
                self._acquire(batch.key)
        for batch in batches:
            self._dispatch(batch)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Dispatch every parked batch and wait for in-flight solves.

        Synchronous solves finish inside :meth:`flush`; asynchronous
        (future-returning) solves are awaited here up to ``timeout``.
        Returns ``True`` when nothing is left in flight.
        """
        self.flush()
        with self._lock:
            waiting = [f for f in self._inflight if not f.done()]
        if not waiting:
            return True
        _, not_done = _futures_wait(waiting, timeout=timeout)
        return not not_done

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Stop accepting requests, flush the backlog, join the thread.

        Parked batches are dispatched, not abandoned — a request
        accepted before close resolves (or fails with its solver's
        error), never hangs.  ``timeout`` bounds the wait for
        asynchronous solves already handed to a worker tier.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wakeup.notify()
        self._dispatcher.join()
        self.drain(timeout=timeout)

    # -- dispatch side ---------------------------------------------------
    def _ready(self, key: Hashable, batch: _PendingBatch) -> bool:
        """Group commit: a parked batch goes when its key is idle, or
        early once it holds ``max_faults`` lanes.  Caller holds the
        lock."""
        return key not in self._busy or batch.n_faults >= self.max_faults

    def _acquire(self, key: Hashable) -> None:
        self._busy[key] = self._busy.get(key, 0) + 1

    def _release(self, key: Hashable) -> None:
        """A solve of ``key`` finished: its parked batch may go now."""
        with self._lock:
            count = self._busy.pop(key, 1) - 1
            if count:
                self._busy[key] = count
            elif key in self._pending:
                self._wakeup.notify()

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while True:
                    if self._closed:
                        return
                    batches = [
                        batch
                        for key, batch in self._pending.items()
                        if self._ready(key, batch)
                    ]
                    if batches:
                        break
                    self._wakeup.wait()
                for batch in batches:
                    del self._pending[batch.key]
                    self._acquire(batch.key)
            for batch in batches:
                self._dispatch(batch)

    def _dispatch(self, batch: _PendingBatch) -> None:
        merged: List = []
        carrier = None
        for faults, _, request_carrier in batch.requests:
            merged.extend(faults)
            if carrier is None:
                carrier = request_carrier
        age = time.monotonic() - batch.opened
        try:
            # The dispatcher thread adopts the first traced request's
            # context, so the kernel spans of a shared pass land in that
            # request's trace (a batch serves many traces but the sweep
            # runs once — it can only hang off one of them).
            with use_carrier(carrier):
                with span(
                    "coalescer.dispatch",
                    occupancy=len(batch.requests),
                    lanes=len(merged),
                    wait_seconds=round(age, 6),
                ):
                    damages = batch.solve(merged)
        except BaseException as exc:
            self._release(batch.key)
            self._fail(batch, exc)
            return
        if isinstance(damages, Future):
            # Async solver (the shard worker tier): don't block the
            # dispatcher — other keys' batches can dispatch to other
            # shards while this one computes.  The key stays busy, and
            # the scatter runs, on completion.
            with self._lock:
                self._inflight.add(damages)
            damages.add_done_callback(
                lambda fut, batch=batch, merged=merged, age=age: (
                    self._async_done(batch, merged, age, fut)
                )
            )
            return
        self._release(batch.key)
        self._scatter(batch, merged, damages, age)

    def _async_done(
        self, batch: _PendingBatch, merged: List, age: float, fut: Future
    ) -> None:
        with self._lock:
            self._inflight.discard(fut)
        self._release(batch.key)
        try:
            damages = fut.result()
        except BaseException as exc:
            self._fail(batch, exc)
            return
        self._scatter(batch, merged, damages, age)

    def _fail(self, batch: _PendingBatch, exc: BaseException) -> None:
        for _, future, _ in batch.requests:
            if not future.cancelled():
                future.set_exception(exc)

    def _scatter(
        self, batch: _PendingBatch, merged: List, damages, age: float
    ) -> None:
        if len(damages) != len(merged):
            self._fail(
                batch,
                ReproError(
                    f"batch solver returned {len(damages)} damages for "
                    f"{len(merged)} faults"
                ),
            )
            return
        offset = 0
        for faults, future, _ in batch.requests:
            slice_ = [float(d) for d in damages[offset : offset + len(faults)]]
            offset += len(faults)
            if not future.cancelled():
                future.set_result(slice_)
        if self._on_batch is not None:
            try:
                self._on_batch(len(batch.requests), len(merged), age)
            except Exception:
                pass  # metrics must never break dispatch
