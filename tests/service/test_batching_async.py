"""Future-returning solvers in the coalescer (the shard-pool plug-in).

`BatchCoalescer._dispatch` must not block the dispatcher thread when a
solver hands back a :class:`~concurrent.futures.Future`: the scatter
runs from the done-callback, `drain` waits for in-flight solves, and
`close` still guarantees every accepted request resolves.
"""

import sys
import threading
import time
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from repro.errors import ReproError
from repro.service import BatchCoalescer


class ManualSolver:
    """Records each dispatched batch; the test resolves it by hand."""

    def __init__(self):
        self.calls = []
        self._ready = threading.Event()

    def __call__(self, faults):
        future = Future()
        self.calls.append((list(faults), future))
        self._ready.set()
        return future

    def wait_called(self, n=1, timeout=5.0):
        deadline = time.monotonic() + timeout
        while len(self.calls) < n:
            if time.monotonic() >= deadline:
                raise AssertionError(
                    f"solver called {len(self.calls)} times, wanted {n}"
                )
            time.sleep(0.005)


def test_scatter_runs_from_done_callback():
    coalescer = BatchCoalescer()
    solver = ManualSolver()
    try:
        first = coalescer.submit("k", solver, ["a", "b"])
        solver.wait_called(1)
        # Parked behind the in-flight solve: nothing dispatches until
        # that future resolves.
        second = coalescer.submit("k", solver, ["c"])
        third = coalescer.submit("k", solver, ["d"])
        merged, batch_future = solver.calls[0]
        assert merged == ["a", "b"]
        assert not first.done() and not second.done()
        batch_future.set_result([1.0, 2.0])
        assert first.result(timeout=5.0) == [1.0, 2.0]
        # The done-callback released the key: the parked requests go
        # as one batch.
        solver.wait_called(2)
        merged, batch_future = solver.calls[1]
        assert merged == ["c", "d"]
        assert not second.done()
        batch_future.set_result([3.0, 4.0])
        assert second.result(timeout=5.0) == [3.0]
        assert third.result(timeout=5.0) == [4.0]
        assert len(solver.calls) == 2
    finally:
        coalescer.close(timeout=1.0)


def test_busy_key_parks_until_solve_completes():
    coalescer = BatchCoalescer()
    solver, probe = ManualSolver(), ManualSolver()
    try:
        coalescer.submit("k", solver, ["a"])
        solver.wait_called(1)
        parked = coalescer.submit("k", solver, ["b"])
        # An idle key submitted later dispatches in the same dispatcher
        # pass that would have taken "k"'s batch, had it been ready.
        coalescer.submit("probe", probe, ["p"])
        probe.wait_called(1)
        assert len(solver.calls) == 1 and not parked.done()
        solver.calls[0][1].set_result([1.0])
        solver.wait_called(2)
        assert solver.calls[1][0] == ["b"]
        solver.calls[1][1].set_result([2.0])
        assert parked.result(timeout=5.0) == [2.0]
    finally:
        for _, future in solver.calls + probe.calls:
            if not future.done():
                future.set_result([0.0])
        coalescer.close(timeout=1.0)


def test_dispatcher_not_blocked_by_unresolved_future():
    # Two keys, two shards: the second batch must dispatch while the
    # first one's future is still pending — the old synchronous
    # dispatcher would have sat in solve() and serialized them.
    coalescer = BatchCoalescer()
    slow, fast = ManualSolver(), ManualSolver()
    try:
        slow_future = coalescer.submit("slow", slow, ["x"])
        fast_future = coalescer.submit("fast", fast, ["y"])
        fast.wait_called(1)
        slow.wait_called(1)
        assert not slow.calls[0][1].done()
        fast.calls[0][1].set_result([7.0])
        assert fast_future.result(timeout=5.0) == [7.0]
        assert not slow_future.done()
        slow.calls[0][1].set_result([9.0])
        assert slow_future.result(timeout=5.0) == [9.0]
    finally:
        coalescer.close(timeout=1.0)


def test_drain_waits_for_inflight_solves():
    coalescer = BatchCoalescer()
    solver = ManualSolver()
    try:
        request = coalescer.submit("k", solver, ["a"])
        # The request dispatched at once, but the async solve is still
        # pending: a bounded drain reports the leftover truthfully.
        assert coalescer.drain(timeout=0.05) is False
        solver.wait_called(1)
        resolver = threading.Timer(
            0.05, solver.calls[0][1].set_result, args=([4.0],)
        )
        resolver.start()
        assert coalescer.drain(timeout=5.0) is True
        assert request.result(timeout=1.0) == [4.0]
    finally:
        coalescer.close(timeout=1.0)


def test_async_solver_error_fails_every_request():
    coalescer = BatchCoalescer()
    solver = ManualSolver()
    try:
        futures = [coalescer.submit("k", solver, ["f0"])]
        solver.wait_called(1)
        futures += [coalescer.submit("k", solver, [f"f{i}"]) for i in (1, 2)]
        solver.calls[0][1].set_exception(ReproError("worker crashed"))
        # A failed solve releases its key like a successful one.
        solver.wait_called(2)
        assert solver.calls[1][0] == ["f1", "f2"]
        solver.calls[1][1].set_exception(ReproError("worker crashed"))
        for future in futures:
            with pytest.raises(ReproError, match="worker crashed"):
                future.result(timeout=5.0)
        # ... so the key does not wedge.
        later = coalescer.submit("k", solver, ["f3"])
        solver.wait_called(3)
        solver.calls[2][1].set_result([3.0])
        assert later.result(timeout=5.0) == [3.0]
    finally:
        coalescer.close(timeout=1.0)


def test_raising_solve_releases_key():
    coalescer = BatchCoalescer()
    solver = ManualSolver()
    try:
        blocker = coalescer.submit("k", solver, ["a"])
        solver.wait_called(1)

        def refuse(faults):
            raise ReproError("shard queue refused the batch")

        parked = coalescer.submit("k", refuse, ["b"])
        solver.calls[0][1].set_result([1.0])
        assert blocker.result(timeout=5.0) == [1.0]
        with pytest.raises(ReproError, match="refused"):
            parked.result(timeout=5.0)
        # The solve raised before returning a future; the key is free.
        later = coalescer.submit("k", solver, ["c"])
        solver.wait_called(2)
        solver.calls[1][1].set_result([2.0])
        assert later.result(timeout=5.0) == [2.0]
    finally:
        coalescer.close(timeout=1.0)


def test_async_length_mismatch_fails_requests():
    coalescer = BatchCoalescer()
    solver = ManualSolver()
    try:
        request = coalescer.submit("k", solver, ["a", "b"])
        solver.wait_called(1)
        solver.calls[0][1].set_result([1.0])  # 1 damage for 2 faults
        with pytest.raises(ReproError, match="returned 1 damages"):
            request.result(timeout=5.0)
    finally:
        coalescer.close(timeout=1.0)


def test_close_resolves_parked_async_batches():
    coalescer = BatchCoalescer()
    solver = ManualSolver()
    inflight = coalescer.submit("k", solver, ["a"])
    solver.wait_called(1)
    parked = coalescer.submit("k", solver, ["b"])
    closer = threading.Thread(
        target=coalescer.close, kwargs={"timeout": 5.0}
    )
    closer.start()
    # close flushes the parked batch to the solver, then waits for both
    # async solves.
    solver.wait_called(2)
    solver.calls[0][1].set_result([1.0])
    solver.calls[1][1].set_result([2.0])
    closer.join(timeout=5.0)
    assert not closer.is_alive()
    assert inflight.result(timeout=1.0) == [1.0]
    assert parked.result(timeout=1.0) == [2.0]


def test_group_commit_stress_never_overlaps_a_key():
    """More submitting threads than cores hammer three keys while the
    solves resolve on other threads: every request gets its own answer,
    no key ever has two solves in flight, and nothing is left busy or
    parked (a lost update to the per-key state would break one of
    these)."""
    inflight, overlaps = Counter(), []
    lock = threading.Lock()
    resolver = ThreadPoolExecutor(max_workers=4)

    def solver_for(key):
        def solve(faults):
            with lock:
                inflight[key] += 1
                if inflight[key] > 1:
                    overlaps.append(key)
            future = Future()

            def finish():
                with lock:
                    inflight[key] -= 1
                future.set_result([float(f) * 2.0 for f in faults])

            resolver.submit(finish)
            return future

        return solve

    solvers = {key: solver_for(key) for key in range(3)}
    coalescer = BatchCoalescer()
    results = {}

    def client(worker):
        for index in range(150):
            value = worker * 1000 + index
            key = value % 3
            future = coalescer.submit(key, solvers[key], [value])
            results[value] = future.result(timeout=10.0)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=client, args=(worker,))
            for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch)
        coalescer.close(timeout=5.0)
        resolver.shutdown(wait=True)
    assert len(results) == 8 * 150
    assert all(got == [float(v) * 2.0] for v, got in results.items())
    assert overlaps == []
    assert coalescer._busy == {} and coalescer._pending == {}

