"""The parallel + cached criticality engine.

Contracts under test:

* the engine (serial and parallel) is bit-identical to
  :func:`repro.analysis.analyze_damage` and to every reference
  implementation, for every site filter;
* the disk cache round-trips reports and is invalidated by any change to
  the network, the spec, the policy/sites or the analysis version;
* an unavailable worker pool degrades gracefully to the serial path;
* the stats instrumentation reports what actually happened.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import (
    ExplicitDamageAnalysis,
    FastDamageAnalysis,
    GraphDamageAnalysis,
    analyze_damage,
)
from repro.analysis import engine as engine_mod
from repro.analysis.engine import (
    CriticalityEngine,
    analysis_fingerprint,
    analyze_damage_cached,
    default_cache_dir,
)
from repro.bench import build_design
from repro.errors import ReproError
from repro.spec import spec_for_network

PARITY_DESIGNS = ["TreeFlat", "q12710", "MBIST_1_5_5"]

#: The reference implementations the routed engine must reproduce.
REFERENCES = {
    "fast": FastDamageAnalysis,
    "explicit": ExplicitDamageAnalysis,
    "graph": GraphDamageAnalysis,
}


def _setup(design, seed=0):
    network = build_design(design)
    spec = spec_for_network(network, seed=seed)
    return network, spec


# ---------------------------------------------------------------------------
# serial / parallel parity
# ---------------------------------------------------------------------------
class TestParity:
    @pytest.mark.parametrize("design", PARITY_DESIGNS)
    def test_serial_engine_matches_reference(self, design):
        network, spec = _setup(design)
        reference = analyze_damage(network, spec)
        report = CriticalityEngine(network, spec).report()
        assert report.primitive_damage == reference.primitive_damage
        assert report.unit_damage == reference.unit_damage
        assert report.total == reference.total

    @pytest.mark.parametrize("design", PARITY_DESIGNS)
    def test_parallel_engine_bit_identical(self, design):
        network, spec = _setup(design)
        serial = CriticalityEngine(network, spec).report()
        engine = CriticalityEngine(
            network, spec, jobs=2, min_parallel_primitives=1
        )
        parallel = engine.report()
        assert engine.stats.workers == 2
        assert engine.stats.parallel_fallback is None
        assert parallel.primitive_damage == serial.primitive_damage
        assert parallel.unit_damage == serial.unit_damage

    @pytest.mark.parametrize("sites", ["all", "control", "mux"])
    def test_site_filters_match_reference(self, sites):
        network, spec = _setup("q12710")
        reference = analyze_damage(network, spec, sites=sites)
        engine = CriticalityEngine(
            network, spec, jobs=2, min_parallel_primitives=1
        )
        assert (
            engine.report(sites=sites).primitive_damage
            == reference.primitive_damage
        )

    @pytest.mark.parametrize("method", sorted(REFERENCES))
    def test_methods_match_reference(self, method):
        network, spec = _setup("TreeFlat")
        reference = REFERENCES[method](network, spec).report()
        engine = CriticalityEngine(network, spec)
        report = engine.report()
        assert engine.stats.route == "dp"
        assert report.primitive_damage == reference.primitive_damage

    def test_unknown_method_rejected(self):
        """No method selector: the engine routes by regime, and a caller
        still passing ``method=`` fails loudly."""
        network, spec = _setup("TreeFlat")
        with pytest.raises(TypeError):
            CriticalityEngine(network, spec, method="bogus")

    def test_convenience_wrapper(self):
        network, spec = _setup("TreeFlat")
        report, stats = analyze_damage_cached(network, spec)
        assert report.total == analyze_damage(network, spec).total
        assert stats.cache == "disabled"


# ---------------------------------------------------------------------------
# persistent cache
# ---------------------------------------------------------------------------
class TestDiskCache:
    def test_roundtrip_hit(self, tmp_path):
        network, spec = _setup("TreeFlat")
        first = CriticalityEngine(network, spec, cache_dir=str(tmp_path))
        report = first.report()
        assert first.stats.cache == "miss"
        second = CriticalityEngine(network, spec, cache_dir=str(tmp_path))
        cached = second.report()
        assert second.stats.cache == "hit"
        assert cached.primitive_damage == report.primitive_damage
        assert cached.unit_damage == report.unit_damage
        assert cached.total == report.total

    def test_entry_is_one_shot_json(self, tmp_path):
        """Entries are written with one ``json.dumps`` (C encoder): the
        bytes equal ``json.dumps`` of the payload, which is also what the
        streaming ``json.dump`` writes, and still load as a hit."""
        import io

        network, spec = _setup("TreeFlat")
        first = CriticalityEngine(network, spec, cache_dir=str(tmp_path))
        report = first.report()
        payload = {
            "fingerprint": first.stats.cache_key,
            "analysis_version": engine_mod.ANALYSIS_VERSION,
            "network": network.name,
            "route": "dp",
            "policy": first.policy,
            "primitive_damage": report.primitive_damage,
            "unit_damage": report.unit_damage,
        }
        path = tmp_path / f"{first.stats.cache_key}.json"
        assert path.read_bytes() == json.dumps(payload).encode("utf-8")
        streamed = io.StringIO()
        json.dump(payload, streamed)
        assert streamed.getvalue() == path.read_text(encoding="utf-8")
        second = CriticalityEngine(network, spec, cache_dir=str(tmp_path))
        assert second.report().primitive_damage == report.primitive_damage
        assert second.stats.cache == "hit"

    def test_spec_change_invalidates(self, tmp_path):
        network = build_design("TreeFlat")
        spec0 = spec_for_network(network, seed=0)
        spec1 = spec_for_network(network, seed=1)
        CriticalityEngine(network, spec0, cache_dir=str(tmp_path)).report()
        engine = CriticalityEngine(
            network, spec1, cache_dir=str(tmp_path)
        )
        report = engine.report()
        assert engine.stats.cache == "miss"
        assert report.total == analyze_damage(network, spec1).total

    def test_network_change_invalidates(self, tmp_path):
        network, spec = _setup("TreeFlat")
        key_before = analysis_fingerprint(network, spec)
        CriticalityEngine(network, spec, cache_dir=str(tmp_path)).report()
        # grow the network: a new data segment on the main scan path
        other = build_design("TreeBalanced")
        other_spec = spec_for_network(other, seed=0)
        assert analysis_fingerprint(other, other_spec) != key_before
        engine = CriticalityEngine(
            other, other_spec, cache_dir=str(tmp_path)
        )
        engine.report()
        assert engine.stats.cache == "miss"

    def test_parameters_partition_the_cache(self):
        network, spec = _setup("TreeFlat")
        base = analysis_fingerprint(network, spec)
        assert analysis_fingerprint(network, spec, policy="sum") != base
        assert analysis_fingerprint(network, spec, sites="mux") != base
        # deterministic: rebuilding the same design reproduces the key
        network2, spec2 = _setup("TreeFlat")
        assert analysis_fingerprint(network2, spec2) == base

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        network, spec = _setup("TreeFlat")
        CriticalityEngine(network, spec, cache_dir=str(tmp_path)).report()
        monkeypatch.setattr(engine_mod, "ANALYSIS_VERSION", "999-test")
        engine = CriticalityEngine(network, spec, cache_dir=str(tmp_path))
        engine.report()
        assert engine.stats.cache == "miss"

    def test_corrupt_entry_recomputed(self, tmp_path):
        network, spec = _setup("TreeFlat")
        first = CriticalityEngine(network, spec, cache_dir=str(tmp_path))
        expected = first.report()
        key = first.stats.cache_key
        path = tmp_path / f"{key}.json"
        path.write_text("{not json")
        engine = CriticalityEngine(network, spec, cache_dir=str(tmp_path))
        report = engine.report()
        assert engine.stats.cache == "miss"
        assert report.primitive_damage == expected.primitive_damage
        # and the corrupt entry was repaired
        assert json.loads(path.read_text())["fingerprint"] == key

    def test_unwritable_cache_dir_does_not_fail(self, tmp_path):
        network, spec = _setup("TreeFlat")
        blocked = tmp_path / "file-not-dir"
        blocked.write_text("")
        engine = CriticalityEngine(
            network, spec, cache_dir=str(blocked / "sub")
        )
        report = engine.report()
        assert report.total == analyze_damage(network, spec).total

    def test_default_cache_dir_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/custom-rsn-cache")
        assert default_cache_dir() == "/tmp/custom-rsn-cache"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache_dir().endswith(
            os.path.join(".cache", "repro-rsn")
        )


# ---------------------------------------------------------------------------
# spawn-mode worker payload
# ---------------------------------------------------------------------------
class TestSpawnPayload:
    """The spawn fallback ships the compiled IR, not the dict network,
    and workers rebuilt from it reproduce the serial damages exactly."""

    def test_payload_carries_compiled_ir(self):
        import pickle

        from repro.ir import CompiledNetwork, intern
        from repro.rsn.network import RsnNetwork

        network, spec = _setup("q12710")
        payload = engine_mod._spawn_payload(intern(network), spec, "max")
        ir, spec_out, policy, chunk_lanes = pickle.loads(payload)
        assert isinstance(ir, CompiledNetwork)
        assert not isinstance(ir, RsnNetwork)
        assert ir.fingerprint == intern(network).fingerprint
        assert (policy, chunk_lanes) == ("max", 64)
        assert spec_out.to_dict() == spec.to_dict()
        # the IR payload is the smaller wire format
        dict_payload = pickle.dumps((network, spec, "max"))
        assert len(payload) < len(dict_payload)

    @staticmethod
    def _spawned_damages(network, spec, names):
        """``(route, damages)`` of a worker rebuilt from the payload."""
        from repro.ir import intern

        payload = engine_mod._spawn_payload(intern(network), spec, "max")
        previous = engine_mod._WORKER_ANALYSIS
        try:
            engine_mod._worker_init(payload)
            route = engine_mod._WORKER_ANALYSIS.route
            _, _, _, damages, spans = engine_mod._worker_chunk(names)
            assert spans == []  # no carrier shipped: no span payloads
        finally:
            engine_mod._WORKER_ANALYSIS = previous
        return route, dict(zip(names, damages))

    @pytest.mark.parametrize("method", sorted(REFERENCES))
    def test_spawn_worker_reproduces_serial_damages(self, method):
        network, spec = _setup("TreeFlat")
        serial = REFERENCES[method](network, spec).report()
        route, damages = self._spawned_damages(
            network, spec, list(serial.primitive_damage)
        )
        assert route == "dp"
        assert damages == serial.primitive_damage

    def test_spawn_worker_routes_non_sp_to_bitset(self):
        from _nonsp_networks import stem_bridge_network
        from _reference_reach import ReferenceGraphAnalysis

        network = stem_bridge_network(2)
        spec = spec_for_network(network, seed=0)
        serial = ReferenceGraphAnalysis(network, spec).report()
        route, damages = self._spawned_damages(
            network, spec, list(serial.primitive_damage)
        )
        assert route == "bitset"
        assert damages == serial.primitive_damage


# ---------------------------------------------------------------------------
# graceful degradation
# ---------------------------------------------------------------------------
class TestDegradation:
    def test_pool_unavailable_falls_back_to_serial(self, monkeypatch):
        network, spec = _setup("q12710")

        def broken_pool(*args, **kwargs):
            raise OSError("no process pool on this host")

        monkeypatch.setattr(engine_mod, "_EXECUTOR_FACTORY", broken_pool)
        engine = CriticalityEngine(
            network, spec, jobs=4, min_parallel_primitives=1
        )
        report = engine.report()
        assert engine.stats.parallel_fallback is not None
        assert "no process pool" in engine.stats.parallel_fallback
        assert engine.stats.workers == 0
        assert (
            report.primitive_damage
            == analyze_damage(network, spec).primitive_damage
        )

    def test_small_network_skips_the_pool(self):
        network, spec = _setup("TreeFlat")
        engine = CriticalityEngine(
            network, spec, jobs=2, min_parallel_primitives=10_000
        )
        report = engine.report()
        assert engine.stats.workers == 0
        assert "too small" in engine.stats.parallel_fallback
        assert report.total == analyze_damage(network, spec).total

    def test_serial_jobs_values(self):
        network, spec = _setup("TreeFlat")
        for jobs in (None, 0, 1):
            engine = CriticalityEngine(network, spec, jobs=jobs)
            engine.report()
            assert engine.stats.workers == 0

    def test_negative_jobs_rejected(self):
        network, spec = _setup("TreeFlat")
        with pytest.raises(ReproError):
            CriticalityEngine(network, spec, jobs=-2)


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------
class TestStats:
    def test_serial_stats_record_work(self):
        network, spec = _setup("q12710")
        engine = CriticalityEngine(network, spec)
        engine.report()
        stats = engine.stats
        assert stats.primitives_evaluated > 0
        # every mux contributes one fault per port, segments one each
        assert stats.faults_evaluated > stats.primitives_evaluated
        assert stats.elapsed_seconds > 0
        assert stats.faults_per_second > 0
        assert stats.cache == "disabled"
        # the memoization layer saw repeated dead-interval queries
        assert stats.memo["dead_misses"] > 0
        assert stats.memo_hit_rate > 0
        assert "faults/s" in stats.format()

    def test_parallel_stats_record_pool(self):
        network, spec = _setup("MBIST_1_5_5")
        engine = CriticalityEngine(
            network, spec, jobs=2, min_parallel_primitives=1
        )
        engine.report()
        stats = engine.stats
        assert stats.workers == 2
        assert stats.chunks >= 2
        assert stats.distinct_workers >= 1
        assert 0.0 <= stats.worker_utilization <= 1.0
        assert "workers" in stats.format()

    def test_stats_as_dict_is_json_safe(self):
        network, spec = _setup("TreeFlat")
        engine = CriticalityEngine(network, spec)
        engine.report()
        payload = json.dumps(engine.stats.as_dict())
        assert "faults_per_second" in payload


class TestCumulativeStats:
    """`engine.stats` is per-call; `engine.cumulative` survives across
    calls so long-lived holders can read hit-rates and throughput."""

    def test_accumulates_across_reports(self, tmp_path):
        network, spec = _setup("TreeFlat")
        engine = CriticalityEngine(
            network, spec, cache_dir=str(tmp_path)
        )
        first = engine.report()
        miss_faults = engine.stats.faults_evaluated
        second = engine.report()
        assert second.primitive_damage == first.primitive_damage
        cumulative = engine.cumulative
        assert cumulative.reports == 2
        assert cumulative.cache_misses == 1
        assert cumulative.cache_hits == 1
        assert cumulative.cache_hit_rate == 0.5
        # The hit re-served the cached result: faults counted once.
        assert cumulative.faults_evaluated == miss_faults
        assert cumulative.elapsed_seconds > 0
        assert cumulative.faults_per_second > 0

    def test_per_call_stats_stay_per_call(self, tmp_path):
        network, spec = _setup("TreeFlat")
        engine = CriticalityEngine(
            network, spec, cache_dir=str(tmp_path)
        )
        engine.report()
        miss_faults = engine.stats.faults_evaluated
        engine.report()
        assert engine.stats.cache == "hit"
        assert miss_faults > 0

    def test_as_dict_is_json_safe(self):
        network, spec = _setup("TreeFlat")
        engine = CriticalityEngine(network, spec)
        engine.report()
        payload = json.loads(json.dumps(engine.cumulative.as_dict()))
        assert payload["reports"] == 1
        assert payload["cache_hits"] == 0
        assert payload["parallel_fallbacks"] == 0

    def test_fresh_engine_starts_at_zero(self):
        network, spec = _setup("TreeFlat")
        engine = CriticalityEngine(network, spec)
        assert engine.cumulative.reports == 0
        assert engine.cumulative.cache_hit_rate == 0.0
        assert engine.cumulative.faults_per_second == 0.0
