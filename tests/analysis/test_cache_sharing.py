"""Engine disk cache under sharing and a size cap.

The cache directory is a shared resource: worker threads of the service
and independent processes all read/write the same files, relying on the
atomic ``os.replace`` store.  The LRU cap (``max_cache_mb``) prunes the
directory oldest-first after each store.
"""

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.analysis.engine import CriticalityEngine
from repro.bench import build_design
from repro.errors import ReproError
from repro.spec import spec_for_network

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)


def _engine(cache_dir, seed=0, design="TreeFlat", **kwargs):
    network = build_design(design)
    spec = spec_for_network(network, seed=seed)
    return CriticalityEngine(
        network, spec, cache_dir=str(cache_dir), **kwargs
    )


def test_threads_sharing_cache_dir_agree_bit_identically(tmp_path):
    """8 threads, each with its own engine on the same cache_dir: every
    report is bit-identical and at least one run is served from disk."""
    reports = [None] * 8
    stats = [None] * 8
    barrier = threading.Barrier(8)

    def run(index):
        engine = _engine(tmp_path)
        barrier.wait(timeout=10.0)
        reports[index] = engine.report()
        stats[index] = engine.stats

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)

    reference = reports[0]
    assert reference is not None
    for report in reports[1:]:
        assert report.primitive_damage == reference.primitive_damage
        assert report.unit_damage == reference.unit_damage
        assert report.total == reference.total
    outcomes = {s.cache for s in stats}
    assert outcomes <= {"hit", "miss"}
    # A fresh dir means somebody missed; a later run must then hit.
    follow_up = _engine(tmp_path)
    follow_up.report()
    assert follow_up.stats.cache == "hit"


def test_second_process_hits_cache_written_here(tmp_path):
    """A separate interpreter on the same cache_dir reproduces the exact
    report from disk — the cross-process contract behind ``serve``."""
    engine = _engine(tmp_path)
    report = engine.report()
    assert engine.stats.cache == "miss"

    script = """
import json, sys
from repro.analysis.engine import CriticalityEngine
from repro.bench import build_design
from repro.spec import spec_for_network

network = build_design("TreeFlat")
engine = CriticalityEngine(
    network, spec_for_network(network, seed=0), cache_dir=sys.argv[1]
)
report = engine.report()
json.dump(
    {
        "cache": engine.stats.cache,
        "total": report.total,
        "primitive_damage": report.primitive_damage,
    },
    sys.stdout,
)
"""
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": REPO_SRC},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    import json

    payload = json.loads(result.stdout)
    assert payload["cache"] == "hit"
    assert payload["total"] == report.total
    assert payload["primitive_damage"] == report.primitive_damage


def test_concurrent_writers_leave_no_partial_files(tmp_path):
    """Concurrent stores of different keys (atomic ``os.replace``): every
    surviving cache file is complete, valid JSON."""
    import json

    def run(seed):
        _engine(tmp_path, seed=seed).report()

    threads = [
        threading.Thread(target=run, args=(seed,)) for seed in range(6)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)

    files = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
    assert len(files) == 6  # one entry per distinct spec seed
    for name in files:
        with open(os.path.join(tmp_path, name)) as handle:
            payload = json.load(handle)
        assert "primitive_damage" in payload


# -- LRU size cap ---------------------------------------------------------


def test_max_cache_mb_rejects_non_positive():
    network = build_design("TreeFlat")
    spec = spec_for_network(network, seed=0)
    with pytest.raises(ReproError):
        CriticalityEngine(network, spec, max_cache_mb=0)
    with pytest.raises(ReproError):
        CriticalityEngine(network, spec, max_cache_mb=-1.5)


def test_lru_prunes_oldest_entries_beyond_budget(tmp_path):
    """With a budget that holds roughly one report, older entries are
    evicted oldest-first as new seeds are analyzed."""
    sizes = []
    for seed in range(3):
        engine = _engine(tmp_path, seed=seed)
        engine.report()
        path = engine._cache_path(engine.stats.cache_key)
        sizes.append(os.path.getsize(path))
        # mtime-ordered eviction needs distinguishable stamps.
        stamp = time.time() - 100 + seed
        os.utime(path, (stamp, stamp))
    assert len(os.listdir(tmp_path)) == 3

    budget_mb = (max(sizes) + 1) / (1024 * 1024)
    engine = _engine(tmp_path, seed=3, max_cache_mb=budget_mb)
    engine.report()
    assert engine.stats.cache == "miss"
    assert engine.stats.cache_evictions >= 2
    survivors = os.listdir(tmp_path)
    # The just-stored entry always survives its own pruning pass.
    assert engine._cache_path(engine.stats.cache_key) in [
        os.path.join(str(tmp_path), name) for name in survivors
    ]
    total = sum(
        os.path.getsize(os.path.join(tmp_path, name))
        for name in survivors
    )
    assert total <= budget_mb * 1024 * 1024


def test_cache_hit_refreshes_lru_position(tmp_path):
    """A hit touches the entry's mtime, protecting it from eviction."""
    first = _engine(tmp_path, seed=0)
    first.report()
    first_path = first._cache_path(first.stats.cache_key)
    old = time.time() - 1000
    os.utime(first_path, (old, old))

    second = _engine(tmp_path, seed=1)
    second.report()
    second_path = second._cache_path(second.stats.cache_key)
    stale = time.time() - 500
    os.utime(second_path, (stale, stale))

    # Hit on the first entry refreshes its mtime past the second's.
    refreshed = _engine(tmp_path, seed=0)
    refreshed.report()
    assert refreshed.stats.cache == "hit"
    assert os.path.getmtime(first_path) > os.path.getmtime(second_path)

    # Now a capped store evicts the *second* entry (oldest), not the
    # recently-hit first one.  Budget holds ~2.5 entries: storing the
    # third forces exactly one eviction.
    largest = max(
        os.path.getsize(first_path), os.path.getsize(second_path)
    )
    budget_mb = 2.5 * largest / (1024 * 1024)
    capped = _engine(tmp_path, seed=2, max_cache_mb=budget_mb)
    capped.report()
    assert os.path.exists(first_path)
    assert not os.path.exists(second_path)


def test_evictions_reported_in_stats_and_format(tmp_path):
    for seed in range(2):
        engine = _engine(tmp_path, seed=seed)
        engine.report()
        path = engine._cache_path(engine.stats.cache_key)
        stamp = time.time() - 50 + seed
        os.utime(path, (stamp, stamp))
    tiny = 1.0 / 1024  # 1 KiB: evicts everything but the new entry
    engine = _engine(tmp_path, seed=9, max_cache_mb=tiny)
    engine.report()
    stats = engine.stats
    assert stats.cache_evictions == 2
    assert "evicted" in stats.format()
    assert stats.as_dict()["cache_evictions"] == 2


def test_uncapped_engine_never_evicts(tmp_path):
    for seed in range(4):
        engine = _engine(tmp_path, seed=seed)
        engine.report()
        assert engine.stats.cache_evictions == 0
    assert len(os.listdir(tmp_path)) == 4
