"""Non-series-parallel networks through every public analysis entry point.

Every entry point routes by :func:`repro.analysis.route_analysis`, so a
network without a decomposition tree must come back as the bitset
kernel's report — ``==`` the per-fault BFS oracle of ``_reference_reach``
— whether it is asked for through the engine, ``analyze_damage``,
hardening, the CLI or an ``/analyze`` job (in-process and in a 2-worker
shard pool).
"""

import pytest
from _nonsp_networks import bridge_network, stem_bridge_network
from _reference_reach import ReferenceGraphAnalysis

import repro.cli as cli
from repro.analysis import CriticalityEngine, analyze_damage
from repro.core import SelectiveHardening
from repro.obs import disable_tracing
from repro.service import AnalysisService, AsyncServerThread, ServiceClient
from repro.spec import spec_for_network

NETWORKS = {
    "bridge": bridge_network,
    "stem_bridge_2": lambda: stem_bridge_network(2),
}


@pytest.fixture(params=sorted(NETWORKS))
def case(request):
    """``(network, spec, oracle report)``; the spec is the service's and
    the CLI's default draw (seed 0)."""
    network = NETWORKS[request.param]()
    spec = spec_for_network(network, seed=0)
    return network, spec, ReferenceGraphAnalysis(network, spec).report()


def _assert_same(report, oracle):
    assert report.primitive_damage == oracle.primitive_damage
    assert report.unit_damage == oracle.unit_damage
    assert report.total == oracle.total


def test_engine_report(case):
    network, spec, oracle = case
    engine = CriticalityEngine(network, spec)
    _assert_same(engine.report(), oracle)
    assert engine.stats.route == "bitset"


def test_analyze_damage(case):
    network, spec, oracle = case
    _assert_same(analyze_damage(network, spec), oracle)


def test_selective_hardening_report(case):
    network, spec, oracle = case
    synthesis = SelectiveHardening(network, spec=spec)
    _assert_same(synthesis.report, oracle)
    assert synthesis.analysis_stats.route == "bitset"


def test_cli_analyze(case, monkeypatch, capsys):
    """``repro-rsn analyze`` on a non-SP network.  The textual network
    format is hierarchical (it only describes series-parallel
    networks), so the network enters at the CLI's loader."""
    network, _, oracle = case
    monkeypatch.setattr(cli, "_load_network", lambda path: network)
    assert cli.main(
        ["analyze", "bridge.icl", "--no-cache", "--stats"]
    ) == 0
    out = capsys.readouterr().out
    assert f"total damage     : {oracle.total:,.0f}" in out
    for name, damage in oracle.most_critical_units(10):
        assert f"  {name:24s} {damage:>14,.0f}" in out
    assert "[bitset/max/all]" in out


@pytest.fixture(scope="module", params=[0, 2], ids=["workers0", "pool2"])
def service(request):
    """An HTTP service solving in-process (``--workers 0``) or in a
    2-worker shard pool."""
    svc = AnalysisService(
        no_cache=True,
        workers=1,
        shard_workers=request.param,
        history_interval=0,
    )
    server = AsyncServerThread(svc)
    yield svc, ServiceClient(server.url, timeout=120.0)
    server.stop()
    svc.close(drain=False, timeout=10.0)
    disable_tracing()


def test_analyze_job(case, service):
    network, _, oracle = case
    svc, client = service
    entry = svc.registry.add_network(network)
    record = client.analyze(entry.fingerprint, seed=0, timeout=120.0)
    report = record["result"]["report"]
    assert report["primitive_damage"] == oracle.primitive_damage
    assert report["unit_damage"] == oracle.unit_damage
    assert report["total"] == oracle.total
    assert record["result"]["stats"]["route"] == "bitset"
