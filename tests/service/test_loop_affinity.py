"""Which thread runs what, for one ``/damage`` in the front-end process.

With a worker pool, a request stays on the event loop from HTTP parse to
pipe write and from pipe read to response, and the front-end runs no
dispatcher, feeder, collector or monitor thread.  With ``--workers 0`` no solve ever runs on the loop, and two
solves of one key never overlap, even when ``max_faults`` dispatches a
full batch while the key is still busy.
"""

import asyncio
import sys
import threading
import time

import pytest

from repro.analysis import GraphDamageAnalysis
from repro.analysis.faults import fault_to_dict, iter_all_faults
from repro.bench import build_design
from repro.errors import ReproError
from repro.ir import intern
from repro.obs import current_collector, disable_tracing, enable_tracing
from repro.service import (
    AnalysisService,
    AsyncServerThread,
    ServiceClient,
    WorkerPool,
)
from repro.spec import spec_for_network

_GONE_THREADS = (
    "repro-batch-dispatcher",
    "repro-pool-feeder-",
    "repro-pool-collector",
    "repro-pool-monitor",
    "QueueFeederThread",
    # The pool's private I/O thread: while a server runs, the pool's
    # pipes are read and written on the server's loop instead.
    "repro-pool-io",
)


@pytest.fixture(scope="module")
def tree_flat():
    network = build_design("TreeFlat")
    faults = list(iter_all_faults(network))
    direct = GraphDamageAnalysis(
        network, spec_for_network(network, seed=0)
    ).damage_vector(faults)
    return faults, [float(d) for d in direct]


@pytest.fixture
def tree_pool():
    """A pool with TreeFlat (seed 0) registered; the factory takes the
    pool's keyword arguments and closes what it made."""
    network = build_design("TreeFlat")
    ir = intern(network)
    pools = []

    def make(**kwargs):
        pool = WorkerPool(**kwargs)
        pools.append(pool)
        pool.register_network(
            ir, spec=spec_for_network(network, seed=0), seed=0
        )
        return pool, ir.fingerprint

    yield make
    for pool in pools:
        pool.close()


def test_traced_damage_stays_on_the_loop_thread(tree_flat):
    faults, direct = tree_flat
    saved = current_collector()
    service = AnalysisService(
        no_cache=True,
        workers=1,
        shard_workers=2,
        shards=8,
        tracing=True,
        history_interval=0,
    )
    server = AsyncServerThread(service)
    try:
        client = ServiceClient(server.url, timeout=120.0)
        fingerprint = client.upload_network(design="TreeFlat")["fingerprint"]
        assert client.damage(
            fingerprint, faults[:4], trace_id="loop-affinity-0001"
        ) == direct[:4]
        events = [
            e
            for e in client.trace("loop-affinity-0001")["traceEvents"]
            if e["ph"] == "X"
        ]
        tids = {
            e["name"]: e["tid"]
            for e in events
            if e["name"]
            in ("http.request", "service.damage", "coalescer.dispatch")
        }
        loop_tid = server._thread.ident
        assert tids == {
            "http.request": loop_tid,
            "service.damage": loop_tid,
            "coalescer.dispatch": loop_tid,
        }
        names = [thread.name for thread in threading.enumerate()]
        assert not [
            name
            for name in names
            if any(name.startswith(gone) for gone in _GONE_THREADS)
        ], names
    finally:
        server.stop()
        service.close(drain=False, timeout=10.0)
        disable_tracing()
        if saved is not None:
            enable_tracing(saved)


class _Recording:
    """Stands in for the registry's solver: records the thread and the
    concurrency of every solve, holding each one briefly so an overlap
    would show."""

    def __init__(self, solver):
        self._solver = solver
        self._lock = threading.Lock()
        self.active = 0
        self.overlaps = 0
        self.threads = set()

    def damage_vector(self, faults):
        with self._lock:
            self.active += 1
            self.overlaps += self.active > 1
            self.threads.add(threading.get_ident())
        try:
            time.sleep(0.002)
            return self._solver.damage_vector(faults)
        finally:
            with self._lock:
                self.active -= 1


def _in_process_service(**kwargs):
    service = AnalysisService(
        no_cache=True,
        workers=1,
        shard_workers=0,
        history_interval=0,
        **kwargs,
    )
    fingerprint = service.upload({"design": "TreeFlat"})["fingerprint"]
    recording = _Recording(
        service.registry.damage_solver(fingerprint, seed=0, policy="max")
    )
    service.registry.damage_solver = lambda *args, **kwargs: recording
    return service, fingerprint, recording


def test_in_process_solves_never_run_on_the_loop(tree_flat):
    faults, direct = tree_flat
    service, fingerprint, recording = _in_process_service()
    server = AsyncServerThread(service)
    try:
        clients = [ServiceClient(server.url, timeout=60.0) for _ in range(4)]
        results = {}

        def load(slot):
            for index in range(slot, len(faults), 4):
                results[index] = clients[slot].damage(
                    fingerprint, [faults[index]]
                )

        threads = [
            threading.Thread(target=load, args=(slot,)) for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert [results[i] for i in range(len(faults))] == [
            [d] for d in direct
        ]
        assert recording.threads
        assert server._thread.ident not in recording.threads
        assert len(recording.threads) == 1
    finally:
        server.stop()
        service.close(drain=False, timeout=10.0)


def test_solves_of_one_key_never_overlap(tree_flat):
    faults, direct = tree_flat
    # Every 2-fault request fills a batch on its own, so it dispatches
    # early even while the key's previous solve is still running.
    service, fingerprint, recording = _in_process_service(
        batch_max_faults=2
    )
    coalescer = service.coalescer
    early = []
    take_ready = coalescer._take_ready

    def spy(key):
        batch = take_ready(key)
        if batch is not None and coalescer._busy[key] > 1:
            early.append(key)
        return batch

    coalescer._take_ready = spy
    results = {}

    def load(slot):
        for index in range(slot * 2, len(faults) - 1, 16):
            _, future, _ = service.damage_submit(
                {
                    "fingerprint": fingerprint,
                    "faults": [
                        fault_to_dict(fault)
                        for fault in faults[index : index + 2]
                    ],
                }
            )
            results[index] = future.result(timeout=60.0)

    try:
        threads = [
            threading.Thread(target=load, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert results and all(
            got == direct[index : index + 2]
            for index, got in results.items()
        )
        assert early, "no batch was dispatched early on max_faults"
        assert recording.overlaps == 0
    finally:
        service.close(drain=False, timeout=10.0)


def test_graceful_drain_resolves_parked_batches_through_the_pool(tree_flat):
    """``serve``'s shutdown order: the server stops (the pool's I/O
    moves off its loop), then ``close(drain=True)`` flushes the parked
    batch to the pool and waits for it — the pool must keep reading
    results until the drain is done."""
    faults, direct = tree_flat
    service = AnalysisService(
        no_cache=True, workers=1, shard_workers=2, history_interval=0
    )
    server = AsyncServerThread(service)
    fingerprint = service.upload({"design": "TreeFlat"})["fingerprint"]
    payload = {
        "fingerprint": fingerprint,
        "faults": [fault_to_dict(fault) for fault in faults] * 50,
    }
    try:
        _, running, _ = service.damage_submit(payload)
        _, parked, _ = service.damage_submit(payload)
        server.stop()
        service.close(drain=True, timeout=60.0)
        assert running.result(timeout=0) == direct * 50
        assert parked.result(timeout=0) == direct * 50
    finally:
        server.stop()
        service.close(drain=False, timeout=10.0)


def test_full_pipe_is_buffered_not_blocking(tree_pool):
    """A request larger than the pipe's buffer is written as far as the
    pipe takes it and the rest when it drains: the submitting loop
    returns at once and keeps running."""
    pool, fingerprint = tree_pool(workers=1, shards=2)
    plain = pool.analyze(fingerprint, seed=0, params={"cache_dir": None})
    loop = asyncio.new_event_loop()
    try:

        async def run():
            pool.bind_loop(asyncio.get_running_loop())
            future = pool.analyze(
                fingerprint,
                seed=0,
                # Ignored by the worker; makes the message ~4 MB.
                params={"cache_dir": None, "padding": "x" * (4 << 20)},
            )
            buffered = len(pool._handles[0].wbuf)
            payload = await asyncio.wrap_future(future)
            pool.bind_loop(None)
            return buffered, payload

        buffered, payload = loop.run_until_complete(run())
        assert buffered > 0
        assert payload["report"] == plain.result(timeout=60.0)["report"]
    finally:
        loop.close()


def test_pool_io_moves_between_loops_under_load(tree_flat, tree_pool):
    """More submitting threads than cores, a 10 µs switch interval, and
    the pool's I/O moved back and forth between a served loop and its
    private thread the whole time: every request resolves to its own
    answer and nothing is left queued or in flight (a request lost in a
    move would hang, a mis-routed result would answer the wrong one)."""
    faults, direct = tree_flat
    pool, fingerprint = tree_pool(workers=2, shards=8)
    served = asyncio.new_event_loop()
    serving = threading.Thread(target=served.run_forever, daemon=True)
    serving.start()

    async def bind_served():
        pool.bind_loop(asyncio.get_running_loop())

    results = {}

    def client(worker):
        for index in range(40):
            i = (worker * 40 + index) % len(faults)
            future = pool.damage(fingerprint, [faults[i]], seed=0)
            results[(worker, index)] = (i, future.result(timeout=30.0))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=client, args=(worker,))
            for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        while any(thread.is_alive() for thread in threads):
            asyncio.run_coroutine_threadsafe(bind_served(), served).result(
                timeout=10.0
            )
            pool.bind_loop(None)
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert pool.inflight() == 0
        assert not any(pool.depths().values())
    finally:
        sys.setswitchinterval(switch)
        pool.close()  # before its loop stops
        served.call_soon_threadsafe(served.stop)
        serving.join(timeout=10.0)
        served.close()
    assert len(results) == 8 * 40
    assert all(got == [direct[i]] for i, got in results.values())


def test_reply_written_just_before_a_worker_exits_is_kept():
    """A worker that answers and then exits makes its pipe readable, hit
    EOF and its process sentinel readable at once: whichever the loop
    sees first, the answer already written must resolve its request
    rather than die with the worker."""
    pool = WorkerPool(workers=1, shards=2, max_restarts=10)
    try:
        for _ in range(5):
            handle = pool._handles[0]
            ping = pool.ping(0)
            pool._call_on_loop(pool._write, handle, [("stop",)])
            assert ping.result(timeout=30.0)["pid"] == handle.pid
            deadline = time.monotonic() + 30.0
            while pool._handles[0] is handle:
                assert time.monotonic() < deadline, "worker not restarted"
                time.sleep(0.01)
    finally:
        pool.close()


def test_requests_beyond_the_inflight_bound_wait_in_their_shard(
    tree_flat, tree_pool
):
    """A worker holds at most 8 requests on its pipe; the rest wait in
    the shard FIFO (where a rebalance can move them) until results come
    back and pump them."""
    faults, direct = tree_flat
    pool, fingerprint = tree_pool(workers=1, shards=2)
    slow = pool.damage(fingerprint, faults * 500, seed=0)
    quick = [
        pool.damage(fingerprint, [faults[i]], seed=0) for i in range(20)
    ]
    # Submits from this thread pump on the pool's loop; let it run them
    # (callbacks run in order) before looking.
    pool._call_on_loop(lambda: None)
    waiting = sum(pool.depths().values())
    assert pool.inflight() <= 8
    assert waiting >= 21 - 8 - sum(f.done() for f in [slow] + quick)
    assert slow.result(timeout=60.0) == direct * 500
    assert [f.result(timeout=60.0) for f in quick] == [
        [direct[i]] for i in range(20)
    ]
    assert pool.inflight() == 0 and not any(pool.depths().values())


def test_close_with_a_half_written_frame_does_not_wait_for_the_worker(
    tree_pool,
):
    """A worker whose pipe still holds part of a frame cannot be sent a
    stop message; close kills it instead of waiting out its timeout."""
    pool, fingerprint = tree_pool(workers=1, shards=2)
    loop = asyncio.new_event_loop()
    try:

        async def run():
            pool.bind_loop(asyncio.get_running_loop())
            future = pool.analyze(
                fingerprint,
                seed=0,
                params={"cache_dir": None, "padding": "x" * (8 << 20)},
            )
            assert pool._handles[0].wbuf, "the pipe took the whole frame"
            started = time.monotonic()
            pool.close(timeout=3.0)
            return future, time.monotonic() - started

        future, elapsed = loop.run_until_complete(run())
        assert elapsed < 2.0
        with pytest.raises(ReproError, match="closed"):
            future.result(timeout=0)
    finally:
        loop.close()
