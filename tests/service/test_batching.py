"""Micro-batching coalescer: group commit, scatter ordering, error fan-out.

Batch formation is driven by solve completion, not by a clock, so these
tests hold a key busy with a gated solve (a ``threading.Event``) and
park requests behind it; nothing here depends on timing.
"""

import threading
import time
from concurrent.futures import Future

import pytest

from repro.analysis import BatchFaultAnalysis, GraphDamageAnalysis
from repro.analysis.faults import iter_all_faults
from repro.bench import build_design
from repro.spec import spec_for_network
from repro.errors import ReproError
from repro.service.batching import BatchCoalescer


def _doubler(faults):
    return [float(f) * 2.0 for f in faults]


class GatedSolver:
    """Synchronous doubling solve whose first call blocks on ``gate``;
    records every batch it sees."""

    def __init__(self):
        self.calls = []
        self.started = threading.Event()
        self.gate = threading.Event()

    def __call__(self, faults):
        self.calls.append(list(faults))
        if len(self.calls) == 1:
            self.started.set()
            assert self.gate.wait(timeout=10.0), "gate never opened"
        return _doubler(faults)

    def hold(self, coalescer, key="k"):
        """Occupy ``key`` with an in-flight solve; returns its future."""
        future = coalescer.submit(key, self, [0])
        assert self.started.wait(timeout=5.0), "idle key did not dispatch"
        return future


def test_single_request_round_trips():
    coalescer = BatchCoalescer()
    try:
        future = coalescer.submit("k", _doubler, [1, 2, 3])
        assert future.result(timeout=5.0) == [2.0, 4.0, 6.0]
    finally:
        coalescer.close()


def test_empty_fault_list_resolves_immediately():
    coalescer = BatchCoalescer()
    try:
        future = coalescer.submit("k", _doubler, [])
        assert future.result(timeout=0.1) == []
    finally:
        coalescer.close()


def test_idle_key_dispatches_without_waiting():
    batches = []
    coalescer = BatchCoalescer(
        on_batch=lambda occupancy, lanes, age: batches.append(
            (occupancy, lanes)
        )
    )
    solver = GatedSolver()
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


def test_concurrent_requests_share_one_solve():
    batches = []
    coalescer = BatchCoalescer(
        on_batch=lambda occupancy, lanes, age: batches.append(
            (occupancy, lanes)
        ),
    )
    solver = GatedSolver()
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


def test_scatter_preserves_per_request_order():
    coalescer = BatchCoalescer()
    solver = GatedSolver()
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


def test_distinct_keys_do_not_share_batches():
    calls = []

    def solve(faults):
        calls.append(list(faults))
        return _doubler(faults)

    coalescer = BatchCoalescer()
    try:
        a = coalescer.submit("a", solve, [1])
        b = coalescer.submit("b", solve, [2])
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


def test_solver_exception_fans_out_to_all_futures():
    gate = threading.Event()
    started = threading.Event()

    def explode(faults):
        started.set()
        assert gate.wait(timeout=10.0)
        raise RuntimeError("kernel died")

    coalescer = BatchCoalescer()
    try:
        futures = [coalescer.submit("k", explode, [0])]
        assert started.wait(timeout=5.0)
        futures += [coalescer.submit("k", explode, [i]) for i in (1, 2)]
        gate.set()
        for future in futures:
            with pytest.raises(RuntimeError, match="kernel died"):
                future.result(timeout=5.0)
        # The raising solve released its key: it still serves.
        assert coalescer.submit("k", _doubler, [3]).result(timeout=5.0) == [
            6.0
        ]
    finally:
        gate.set()
        coalescer.close()


def test_length_mismatch_is_an_error():
    coalescer = BatchCoalescer()
    try:
        future = coalescer.submit("k", lambda faults: [1.0, 2.0], [7])
        with pytest.raises(ReproError, match="2 damages for 1 faults"):
            future.result(timeout=5.0)
    finally:
        coalescer.close()


def test_flush_dispatches_parked_batch_immediately():
    coalescer = BatchCoalescer()
    solver = GatedSolver()
    try:
        solver.hold(coalescer)
        future = coalescer.submit("k", solver, [4])
        # flush runs the parked batch on this thread, without waiting
        # for the key's running solve.
        coalescer.flush()
        assert future.done()
        assert future.result() == [8.0]
        assert solver.calls == [[0], [4]]
    finally:
        solver.gate.set()
        coalescer.close()


def test_close_flushes_backlog_and_rejects_new_requests():
    coalescer = BatchCoalescer()
    solver = GatedSolver()
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
        coalescer.submit("k", _doubler, [2])
    coalescer.close()  # idempotent


def test_rejects_bad_parameters():
    with pytest.raises(ReproError):
        BatchCoalescer(max_faults=0)


def test_coalesced_kernel_results_bit_identical_to_direct():
    """The acceptance property at the coalescer level: concurrent
    single-fault submissions against the real bitset kernel resolve to
    exactly the damages the graph analysis computes fault-by-fault."""
    network = build_design("TreeFlat")
    spec = spec_for_network(network, seed=0)
    batch = BatchFaultAnalysis(network, spec, policy="max")
    graph = GraphDamageAnalysis(network, spec, policy="max")
    faults = list(iter_all_faults(network))

    coalescer = BatchCoalescer()
    try:
        results = [None] * len(faults)
        barrier = threading.Barrier(len(faults[:24]) + 1)

        def query(index, fault):
            barrier.wait(timeout=10.0)
            future = coalescer.submit(
                "tree", batch.damage_vector, [fault]
            )
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
