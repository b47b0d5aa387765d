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

* a key with no batch in flight dispatches its request at once, in the
  submitting thread — an idle service adds no batching latency at all;
* requests for a key whose solve is still running park, and go together
  as the next batch from that solve's done-callback, right after the
  callback has scattered the finished batch (success or failure);
* a parked batch that reaches ``max_faults`` lanes dispatches early,
  without waiting for the running solve.

So batch occupancy (requests per dispatch, exposed as a histogram via
``on_batch``) follows load by itself: it is 1 while the solver keeps up
and grows exactly as fast as requests queue behind a running solve.

The coalescer owns no thread.  ``solve`` has one contract: it takes the
merged fault list and returns a :class:`~concurrent.futures.Future` of
the damages without blocking — the shard worker tier's
:meth:`~repro.service.workers.WorkerPool.damage`, or, in-process, a
submit to the service's single-thread solve executor, which is what
keeps the (not thread-safe) in-process solvers single-threaded.  So
under the HTTP front-end a ``/damage`` is parked *and* dispatched on the
event loop, and batches for different keys solve concurrently while
each solver still sees in-order batches.  :meth:`drain` flushes parked
batches and waits for the in-flight solves, which is what graceful
shutdown calls before tearing the worker pool down.
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
        self._pending: Dict[Hashable, _PendingBatch] = {}
        self._busy: Dict[Hashable, int] = {}  # key -> solves in flight
        self._inflight: set = set()  # Futures of dispatched solves
        self._closed = False

    # -- request side ----------------------------------------------------
    def submit(
        self,
        key: Hashable,
        solve: Callable[[List], "Future[Sequence[float]]"],
        faults: Sequence,
    ) -> "Future[List[float]]":
        """Park ``faults`` on ``key``'s next batch; resolve to the list
        of damages for exactly these faults, in order.  An idle key's
        batch is dispatched before this returns.

        ``solve`` must be the same callable for every request sharing a
        key (the memoized solver's submit); the batch keeps the first
        one it sees.
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
            ready = self._take_ready(key)
        if ready is not None:
            self._dispatch(ready)
        return future

    def flush(self) -> None:
        """Dispatch every pending batch now, whether or not its key has
        a solve in flight."""
        with self._lock:
            batches = list(self._pending.values())
            self._pending.clear()
            for batch in batches:
                self._acquire(batch.key)
        for batch in batches:
            self._dispatch(batch)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Dispatch every parked batch and wait for in-flight solves.

        Waits up to ``timeout``; returns ``True`` when nothing is left
        in flight.
        """
        self.flush()
        with self._lock:
            waiting = [f for f in self._inflight if not f.done()]
        if not waiting:
            return True
        _, not_done = _futures_wait(waiting, timeout=timeout)
        return not not_done

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Stop accepting requests and flush the backlog.

        Parked batches are dispatched, not abandoned — a request
        accepted before close resolves (or fails with its solver's
        error), never hangs.  ``timeout`` bounds the wait for solves
        already in flight.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.drain(timeout=timeout)

    # -- dispatch side ---------------------------------------------------
    def _take_ready(self, key: Hashable) -> Optional[_PendingBatch]:
        """Group commit: ``key``'s parked batch goes when the key is
        idle, or early once it holds ``max_faults`` lanes.  Pops it and
        marks the key busy.  Caller holds the lock."""
        batch = self._pending.get(key)
        if batch is None or (
            key in self._busy and batch.n_faults < self.max_faults
        ):
            return None
        del self._pending[key]
        self._acquire(key)
        return batch

    def _acquire(self, key: Hashable) -> None:
        self._busy[key] = self._busy.get(key, 0) + 1

    def _release(self, key: Hashable) -> Optional[_PendingBatch]:
        """A solve of ``key`` finished: returns its parked batch if that
        may go now (already taken and marked busy)."""
        with self._lock:
            count = self._busy.pop(key, 1) - 1
            if count:
                self._busy[key] = count
            return self._take_ready(key)

    def _dispatch(self, batch: _PendingBatch) -> None:
        merged: List = []
        carrier = None
        for faults, _, request_carrier in batch.requests:
            merged.extend(faults)
            if carrier is None:
                carrier = request_carrier
        age = time.monotonic() - batch.opened
        try:
            # Adopt the first traced request's context, so the solve's
            # spans land in that request's trace (a batch serves many
            # traces but the solve runs once — it can only hang off one
            # of them).
            with use_carrier(carrier):
                with span(
                    "coalescer.dispatch",
                    occupancy=len(batch.requests),
                    lanes=len(merged),
                    wait_seconds=round(age, 6),
                ):
                    solving = batch.solve(merged)
        except BaseException as exc:
            self._fail(batch, exc)
            self._dispatch_next(batch.key)
            return
        with self._lock:
            self._inflight.add(solving)
        solving.add_done_callback(
            lambda fut, batch=batch, merged=merged, age=age: (
                self._solved(batch, merged, age, fut)
            )
        )

    def _solved(
        self, batch: _PendingBatch, merged: List, age: float, fut: Future
    ) -> None:
        """Done-callback of a solve: scatter its own batch first, then
        hand the key's parked batch (if any) to the solver."""
        with self._lock:
            self._inflight.discard(fut)
        try:
            damages = fut.result()
        except BaseException as exc:
            self._fail(batch, exc)
        else:
            self._scatter(batch, merged, damages, age)
        self._dispatch_next(batch.key)

    def _dispatch_next(self, key: Hashable) -> None:
        parked = self._release(key)
        if parked is not None:
            self._dispatch(parked)

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
