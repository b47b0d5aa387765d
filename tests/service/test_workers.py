"""Sharded worker-process pool (`repro.service.workers`).

Shard-map determinism and rebalance locality, damage/analyze parity of
the cross-process path against direct in-process evaluation (the
bit-identical acceptance criterion), and worker-crash recovery: requeue
of in-flight work, restart in place, and removal from the ring once
restarts are exhausted.
"""

import time

import pytest

from repro.analysis import GraphDamageAnalysis
from repro.analysis.faults import iter_all_faults
from repro.bench import build_design
from repro.errors import ReproError
from repro.ir import intern
from repro.service.workers import (
    PoolClosedError,
    ShardMap,
    WorkerPool,
)
from repro.spec import spec_for_network

DESIGN_NAMES = ("TreeFlat", "TreeUnbalanced")


class TestShardMap:
    def test_shard_of_is_stable(self):
        a = ShardMap(shards=16)
        b = ShardMap(shards=16)
        for key in ("abc", "def", "0123", "f" * 64):
            assert a.shard_of(key) == b.shard_of(key)
            assert 0 <= a.shard_of(key) < 16

    def test_every_shard_has_an_owner(self):
        shard_map = ShardMap(shards=32)
        for worker_id in range(4):
            shard_map.add_worker(worker_id)
        assignment = shard_map.assignment()
        assert set(assignment) == set(range(32))
        assert set(assignment.values()) <= {0, 1, 2, 3}

    def test_removal_moves_only_the_dead_workers_shards(self):
        shard_map = ShardMap(shards=64)
        for worker_id in range(4):
            shard_map.add_worker(worker_id)
        before = shard_map.assignment()
        shard_map.remove_worker(2)
        after = shard_map.assignment()
        for shard, owner in before.items():
            if owner != 2:
                assert after[shard] == owner, (
                    f"shard {shard} moved although its owner survived"
                )
            else:
                assert after[shard] != 2
        assert 2 not in shard_map.workers()

    def test_no_workers_raises(self):
        shard_map = ShardMap(shards=4)
        with pytest.raises(PoolClosedError):
            shard_map.worker_of(0)

    def test_invalid_shard_count(self):
        with pytest.raises(ReproError):
            ShardMap(shards=0)


@pytest.fixture(scope="module")
def designs():
    out = {}
    for name in DESIGN_NAMES:
        network = build_design(name)
        spec = spec_for_network(network, seed=0)
        faults = list(iter_all_faults(network))
        direct = GraphDamageAnalysis(network, spec).damage_vector(faults)
        out[name] = {
            "ir": intern(network),
            "spec": spec,
            "faults": faults,
            "direct": [float(d) for d in direct],
        }
    return out


@pytest.fixture(scope="module")
def pool(designs):
    pool = WorkerPool(workers=2, shards=8)
    for entry in designs.values():
        pool.register_network(entry["ir"], spec=entry["spec"], seed=0)
    yield pool
    pool.close()


class TestPoolParity:
    def test_damage_bit_identical_across_networks(self, pool, designs):
        futures = {
            name: pool.damage(
                entry["ir"].fingerprint, entry["faults"], seed=0
            )
            for name, entry in designs.items()
        }
        for name, future in futures.items():
            assert future.result(timeout=60.0) == designs[name]["direct"], (
                f"cross-process damage diverged on {name}"
            )

    def test_analyze_matches_direct_report(self, pool, designs):
        entry = designs["TreeFlat"]
        payload = pool.analyze(
            entry["ir"].fingerprint,
            seed=0,
            params={"cache_dir": None},
        ).result(timeout=60.0)
        direct = GraphDamageAnalysis(
            build_design("TreeFlat"), entry["spec"]
        ).report()
        assert payload["report"]["total"] == direct.total
        assert (
            payload["report"]["primitive_damage"]
            == direct.primitive_damage
        )

    def test_unregistered_fingerprint_raises(self, pool):
        with pytest.raises(ReproError):
            pool.damage("f" * 64, [], seed=0)

    def test_ping_round_trip(self, pool):
        for worker_id in pool.map.workers():
            info = pool.ping(worker_id).result(timeout=30.0)
            assert info["pid"] is not None

    def test_describe_reports_topology(self, pool):
        described = pool.describe()
        assert described["n_shards"] == 8
        assert len(described["shards"]) == 8
        for state in described["workers"].values():
            assert state["alive"]

    def test_worker_error_propagates(self, pool, designs):
        entry = designs["TreeFlat"]
        future = pool.analyze(
            entry["ir"].fingerprint,
            seed=0,
            params={"policy": "no-such-policy", "cache_dir": None},
        )
        with pytest.raises(ReproError):
            future.result(timeout=60.0)


class TestPickleTransport:
    def test_parity_without_shared_memory(self, designs):
        pool = WorkerPool(workers=1, shards=2, prefer_shm=False)
        try:
            entry = designs["TreeFlat"]
            pool.register_network(entry["ir"], spec=entry["spec"], seed=0)
            result = pool.damage(
                entry["ir"].fingerprint, entry["faults"], seed=0
            ).result(timeout=60.0)
            assert result == entry["direct"]
            assert pool.describe()["transport"] == "pickle"
        finally:
            pool.close()


class TestCrashRecovery:
    def _wait_for(self, predicate, timeout=15.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.05)
        return False

    def test_restart_in_place_and_requeue(self, designs):
        events = []
        pool = WorkerPool(
            workers=2,
            shards=8,
            on_worker_event=lambda wid, event: events.append((wid, event)),
        )
        try:
            for entry in designs.values():
                pool.register_network(
                    entry["ir"], spec=entry["spec"], seed=0
                )
            entry = designs["TreeFlat"]
            victim = pool.map.worker_of(
                pool.map.shard_of(entry["ir"].fingerprint)
            )
            # A request in flight (or queued) when its worker dies must
            # still resolve, bit-identically, via requeue + restart.
            future = pool.damage(
                entry["ir"].fingerprint, entry["faults"], seed=0
            )
            pool.kill_worker(victim)
            assert future.result(timeout=60.0) == entry["direct"]
            assert self._wait_for(
                lambda: (victim, "restarted") in events
            ), f"no restart event, saw {events}"
            # The restarted worker serves its shards again.
            after = pool.damage(
                entry["ir"].fingerprint, entry["faults"], seed=0
            )
            assert after.result(timeout=60.0) == entry["direct"]
            state = pool.describe()["workers"][str(victim)]
            assert state["restarts"] == 1
        finally:
            pool.close()

    def test_exhausted_restarts_rebalance_shards(self, designs):
        events = []
        pool = WorkerPool(
            workers=2,
            shards=8,
            max_restarts=0,
            on_worker_event=lambda wid, event: events.append((wid, event)),
        )
        try:
            for entry in designs.values():
                pool.register_network(
                    entry["ir"], spec=entry["spec"], seed=0
                )
            entry = designs["TreeUnbalanced"]
            victim = pool.map.worker_of(
                pool.map.shard_of(entry["ir"].fingerprint)
            )
            survivor = next(
                w for w in pool.map.workers() if w != victim
            )
            pool.kill_worker(victim)
            assert self._wait_for(
                lambda: (victim, "removed") in events
            ), f"worker never removed, saw {events}"
            # Every shard — including the dead worker's — now routes to
            # the survivor, and requests still come back bit-identical.
            assert set(pool.map.assignment().values()) == {survivor}
            result = pool.damage(
                entry["ir"].fingerprint, entry["faults"], seed=0
            ).result(timeout=60.0)
            assert result == entry["direct"]
        finally:
            pool.close()

    def test_closed_pool_rejects_submissions(self, designs):
        pool = WorkerPool(workers=1, shards=2)
        entry = designs["TreeFlat"]
        pool.register_network(entry["ir"], spec=entry["spec"], seed=0)
        pool.close()
        with pytest.raises(PoolClosedError):
            pool.damage(entry["ir"].fingerprint, entry["faults"], seed=0)
