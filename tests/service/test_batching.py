"""Micro-batching coalescer: group commit, scatter ordering, error fan-out.

Batch formation is driven by solve completion, not by a clock.  A solve
returns a Future; these tests run it on an executor thread (as the
in-process service does) and hold a key busy with a gated solve (a
``threading.Event``), parking requests behind it; nothing here depends
on timing.
"""

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from repro.analysis import BatchFaultAnalysis, GraphDamageAnalysis
from repro.analysis.faults import iter_all_faults
from repro.bench import build_design
from repro.spec import spec_for_network
from repro.errors import ReproError
from repro.service.batching import BatchCoalescer


def _doubler(faults):
    return [float(f) * 2.0 for f in faults]


@pytest.fixture
def executor():
    pool = ThreadPoolExecutor(max_workers=1)
    yield pool
    pool.shutdown(wait=True)


def on(executor, fn):
    """The solve contract: run ``fn`` on ``executor``, return its Future."""
    return lambda faults: executor.submit(fn, list(faults))


class GatedExecutor:
    """Doubling solve on its own executor threads whose first batch
    blocks on ``gate``; records every batch handed to it."""

    def __init__(self, fn=_doubler, threads=1):
        self.fn = fn
        self.calls = []
        self.started = threading.Event()
        self.gate = threading.Event()
        self._pool = ThreadPoolExecutor(max_workers=threads)

    def __call__(self, faults):
        self.calls.append(list(faults))
        return self._pool.submit(
            self._run, list(faults), len(self.calls) == 1
        )

    def _run(self, faults, first):
        if first:
            self.started.set()
            assert self.gate.wait(timeout=10.0), "gate never opened"
        return self.fn(faults)

    def hold(self, coalescer, key="k"):
        """Occupy ``key`` with an in-flight solve; returns its future."""
        future = coalescer.submit(key, self, [0])
        assert self.started.wait(timeout=5.0), "idle key did not dispatch"
        return future

    def close(self):
        self.gate.set()
        self._pool.shutdown(wait=True)


@pytest.fixture
def solver():
    gated = GatedExecutor()
    yield gated
    gated.close()


def test_single_request_round_trips(executor):
    coalescer = BatchCoalescer()
    try:
        future = coalescer.submit("k", on(executor, _doubler), [1, 2, 3])
        assert future.result(timeout=5.0) == [2.0, 4.0, 6.0]
    finally:
        coalescer.close()


def test_empty_fault_list_resolves_immediately(executor):
    coalescer = BatchCoalescer()
    try:
        future = coalescer.submit("k", on(executor, _doubler), [])
        assert future.result(timeout=0.1) == []
    finally:
        coalescer.close()


def test_idle_key_dispatches_without_waiting(solver):
    batches = []
    coalescer = BatchCoalescer(
        on_batch=lambda occupancy, lanes, age: batches.append(
            (occupancy, lanes)
        )
    )
    try:
        # No flush, no close, nothing else queued: the solve starts on
        # its own because the key had nothing in flight.
        future = solver.hold(coalescer)
        solver.gate.set()
        assert future.result(timeout=5.0) == [0.0]
        assert solver.calls == [[0]]
        assert batches == [(1, 1)]
    finally:
        solver.gate.set()
        coalescer.close()


def test_concurrent_requests_share_one_solve(solver):
    batches = []
    coalescer = BatchCoalescer(
        on_batch=lambda occupancy, lanes, age: batches.append(
            (occupancy, lanes)
        ),
    )
    try:
        blocker = solver.hold(coalescer)
        futures = [coalescer.submit("k", solver, [i]) for i in range(1, 17)]
        solver.gate.set()
        assert blocker.result(timeout=5.0) == [0.0]
        results = [f.result(timeout=5.0) for f in futures]
        assert results == [[float(i * 2)] for i in range(1, 17)]
        # All 16 requests that arrived while the first solve ran were
        # merged into exactly one next kernel call.
        assert solver.calls == [[0], list(range(1, 17))]
        assert batches == [(1, 1), (16, 16)]
    finally:
        solver.gate.set()
        coalescer.close()


def test_scatter_preserves_per_request_order(solver):
    coalescer = BatchCoalescer()
    try:
        solver.hold(coalescer)
        first = coalescer.submit("k", solver, [5, 1])
        second = coalescer.submit("k", solver, [3])
        third = coalescer.submit("k", solver, [9, 7, 8])
        solver.gate.set()
        assert first.result(timeout=5.0) == [10.0, 2.0]
        assert second.result(timeout=5.0) == [6.0]
        assert third.result(timeout=5.0) == [18.0, 14.0, 16.0]
        assert solver.calls[1] == [5, 1, 3, 9, 7, 8]
    finally:
        solver.gate.set()
        coalescer.close()


def test_distinct_keys_do_not_share_batches(executor):
    calls = []

    def solve(faults):
        calls.append(list(faults))
        return _doubler(faults)

    coalescer = BatchCoalescer()
    try:
        a = coalescer.submit("a", on(executor, solve), [1])
        b = coalescer.submit("b", on(executor, solve), [2])
        a.result(timeout=5.0)
        b.result(timeout=5.0)
        assert sorted(calls) == [[1], [2]]
    finally:
        coalescer.close()


def test_max_faults_triggers_early_dispatch():
    calls = []
    inflight = []

    def solve(faults):
        calls.append(list(faults))
        future = Future()
        inflight.append(future)
        return future

    coalescer = BatchCoalescer(max_faults=4)
    try:
        blocker = coalescer.submit("k", solve, [9])
        _wait_for(lambda: len(calls) == 1)
        # 4 lanes parked behind the unresolved blocker >= max_faults:
        # the batch dispatches without waiting for the key to go idle.
        parked = [coalescer.submit("k", solve, [i, i]) for i in range(2)]
        _wait_for(lambda: len(calls) == 2)
        assert calls[1] == [0, 0, 1, 1]
        # A full batch on its own also splits off at once.
        full = coalescer.submit("k", solve, [2, 2, 2, 2])
        _wait_for(lambda: len(calls) == 3)
        assert calls[2] == [2, 2, 2, 2]
        for future, faults in zip(inflight, calls):
            future.set_result(_doubler(faults))
        assert blocker.result(timeout=5.0) == [18.0]
        for i, future in enumerate(parked):
            assert future.result(timeout=5.0) == [float(i * 2)] * 2
        assert full.result(timeout=5.0) == [4.0] * 4
    finally:
        for future in inflight:
            if not future.done():
                future.set_result([])
        coalescer.close(timeout=1.0)


def test_solver_exception_fans_out_to_all_futures(executor):
    def explode(faults):
        raise RuntimeError("kernel died")

    solver = GatedExecutor(fn=explode)
    coalescer = BatchCoalescer()
    try:
        futures = [solver.hold(coalescer)]
        futures += [coalescer.submit("k", solver, [i]) for i in (1, 2)]
        solver.gate.set()
        for future in futures:
            with pytest.raises(RuntimeError, match="kernel died"):
                future.result(timeout=5.0)
        # The raising solve released its key: it still serves.
        assert coalescer.submit(
            "k", on(executor, _doubler), [3]
        ).result(timeout=5.0) == [6.0]
    finally:
        solver.close()
        coalescer.close()


def test_length_mismatch_is_an_error(executor):
    coalescer = BatchCoalescer()
    try:
        future = coalescer.submit(
            "k", on(executor, lambda faults: [1.0, 2.0]), [7]
        )
        with pytest.raises(ReproError, match="2 damages for 1 faults"):
            future.result(timeout=5.0)
    finally:
        coalescer.close()


def test_flush_dispatches_parked_batch_immediately():
    coalescer = BatchCoalescer()
    # Two solve threads: the flushed batch can finish while the first
    # one is still held at the gate.
    solver = GatedExecutor(threads=2)
    try:
        blocker = solver.hold(coalescer)
        future = coalescer.submit("k", solver, [4])
        assert solver.calls == [[0]]
        # flush hands the parked batch to the solver now, without
        # waiting for the key's running solve.
        coalescer.flush()
        assert solver.calls == [[0], [4]]
        assert future.result(timeout=5.0) == [8.0]
        assert not blocker.done()
    finally:
        solver.close()
        coalescer.close()


def test_close_flushes_backlog_and_rejects_new_requests(executor, solver):
    coalescer = BatchCoalescer()
    blocker = solver.hold(coalescer)
    parked = coalescer.submit("k", solver, [1])
    closer = threading.Thread(target=coalescer.close)
    closer.start()
    solver.gate.set()
    closer.join(timeout=10.0)
    assert not closer.is_alive()
    assert blocker.result(timeout=1.0) == [0.0]
    assert parked.result(timeout=1.0) == [2.0]
    with pytest.raises(ReproError, match="closed"):
        coalescer.submit("k", on(executor, _doubler), [2])
    coalescer.close()  # idempotent


def test_rejects_bad_parameters():
    with pytest.raises(ReproError):
        BatchCoalescer(max_faults=0)


def test_coalesced_kernel_results_bit_identical_to_direct(executor):
    """The acceptance property at the coalescer level: concurrent
    single-fault submissions against the real bitset kernel resolve to
    exactly the damages the graph analysis computes fault-by-fault."""
    network = build_design("TreeFlat")
    spec = spec_for_network(network, seed=0)
    batch = BatchFaultAnalysis(network, spec, policy="max")
    graph = GraphDamageAnalysis(network, spec, policy="max")
    faults = list(iter_all_faults(network))
    solve = on(executor, batch.damage_vector)

    coalescer = BatchCoalescer()
    try:
        results = [None] * len(faults)
        barrier = threading.Barrier(len(faults[:24]) + 1)

        def query(index, fault):
            barrier.wait(timeout=10.0)
            future = coalescer.submit("tree", solve, [fault])
            results[index] = future.result(timeout=10.0)[0]

        threads = [
            threading.Thread(target=query, args=(i, fault))
            for i, fault in enumerate(faults[:24])
        ]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=10.0)
        for thread in threads:
            thread.join(timeout=15.0)
        for i, fault in enumerate(faults[:24]):
            assert results[i] == graph.damage_of_fault(fault)
    finally:
        coalescer.close()


def _wait_for(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() >= deadline:
            raise AssertionError("condition not reached")
        time.sleep(0.005)
