"""`ShardMap` memoizes routing: the shard → worker assignment is rebuilt
only when a worker joins or leaves the ring, so it must always equal a
fresh walk of the ring."""

from repro.service.workers import ShardMap


def _fresh_walk(shard_map):
    return {
        shard: shard_map._walk(shard) for shard in range(shard_map.n_shards)
    }


def test_cached_assignment_equals_a_fresh_ring_walk():
    shard_map = ShardMap(shards=64)
    for worker_id in range(5):
        shard_map.add_worker(worker_id)
        assert shard_map.assignment() == _fresh_walk(shard_map)
    for worker_id in (3, 0, 4):
        shard_map.remove_worker(worker_id)
        assert shard_map.assignment() == _fresh_walk(shard_map)
        assert worker_id not in shard_map.assignment().values()
    shard_map.add_worker(3)
    assignment = shard_map.assignment()
    assert assignment == _fresh_walk(shard_map)
    # A fresh map over the same workers routes identically.
    fresh = ShardMap(shards=64)
    for worker_id in shard_map.workers():
        fresh.add_worker(worker_id)
    assert fresh.assignment() == assignment
    for worker_id in shard_map.workers():
        assert shard_map.shards_of(worker_id) == sorted(
            shard for shard, owner in assignment.items() if owner == worker_id
        )
        for shard in shard_map.shards_of(worker_id):
            assert shard_map.worker_of(shard) == worker_id


def test_shard_of_is_memoized_and_stable():
    shard_map = ShardMap(shards=16)
    first = shard_map.shard_of("abc")
    assert shard_map._shard_memo == {"abc": first}
    assert shard_map.shard_of("abc") == first == ShardMap(16).shard_of("abc")
