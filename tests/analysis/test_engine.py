"""The cached criticality engine.

Contracts under test:

* the engine is bit-identical to :func:`repro.analysis.analyze_damage`
  and to every reference implementation, for every site filter;
* it has no evaluation-strategy knobs: a caller passing one fails;
* the disk cache round-trips reports and is invalidated by any change to
  the network, the spec, the policy/sites or the analysis version;
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
    default_cache_dir,
)
from repro.bench import build_design
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
# parity
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

    @pytest.mark.parametrize("sites", ["all", "control", "mux"])
    def test_site_filters_match_reference(self, sites):
        network, spec = _setup("q12710")
        reference = analyze_damage(network, spec, sites=sites)
        engine = CriticalityEngine(network, spec)
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

    @pytest.mark.parametrize(
        "option", ["jobs", "chunk_size", "min_parallel_primitives"]
    )
    def test_pool_options_rejected(self, option):
        """One in-process executor: the engine takes no worker-pool
        options, and a caller still passing one fails loudly."""
        network, spec = _setup("TreeFlat")
        with pytest.raises(TypeError):
            CriticalityEngine(network, spec, **{option: 2})

    def test_convenience_wrapper(self):
        """The one-shot use: build an engine, read ``report()`` and the
        per-call ``stats``."""
        network, spec = _setup("TreeFlat")
        engine = CriticalityEngine(network, spec)
        report = engine.report()
        assert report.total == analyze_damage(network, spec).total
        assert engine.stats.cache == "disabled"


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

    def test_fresh_engine_starts_at_zero(self):
        network, spec = _setup("TreeFlat")
        engine = CriticalityEngine(network, spec)
        assert engine.cumulative.reports == 0
        assert engine.cumulative.cache_hit_rate == 0.0
        assert engine.cumulative.faults_per_second == 0.0
