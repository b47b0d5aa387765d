"""Unit tests for the Eq. 2 damage-site accounting variants."""

import pytest

from repro.analysis import GraphDamageAnalysis, analyze_damage
from repro.core import SelectiveHardening
from repro.errors import ReproError
from repro.spec import spec_for_network


@pytest.fixture
def setup(fig1_network):
    spec = spec_for_network(fig1_network, seed=5)
    return fig1_network, spec


class TestSiteAccounting:
    def test_all_is_default_and_largest(self, setup):
        network, spec = setup
        full = analyze_damage(network, spec)
        control = analyze_damage(network, spec, sites="control")
        mux_only = analyze_damage(network, spec, sites="mux")
        assert full.total >= control.total >= mux_only.total
        assert mux_only.total > 0

    def test_control_zeroes_data_segments(self, setup):
        network, spec = setup
        report = analyze_damage(network, spec, sites="control")
        for segment in network.data_segments():
            assert report.primitive_damage[segment.name] == 0.0
        # control cells keep their damage
        cells = [s.name for s in network.control_segments()]
        assert any(report.primitive_damage[c] > 0 for c in cells)

    def test_mux_zeroes_every_segment(self, setup):
        network, spec = setup
        report = analyze_damage(network, spec, sites="mux")
        for segment in network.segments():
            assert report.primitive_damage[segment.name] == 0.0
        muxes = [m.name for m in network.muxes()]
        assert all(report.primitive_damage[m] > 0 for m in muxes)

    def test_mux_damage_identical_across_modes(self, setup):
        network, spec = setup
        full = analyze_damage(network, spec)
        mux_only = analyze_damage(network, spec, sites="mux")
        for mux in network.muxes():
            assert full.primitive_damage[mux.name] == pytest.approx(
                mux_only.primitive_damage[mux.name]
            )

    def test_unknown_site_filter_rejected(self, setup):
        network, spec = setup
        with pytest.raises(ReproError):
            analyze_damage(network, spec, sites="bogus")

    def test_graph_method_supports_sites(self, setup):
        network, spec = setup
        tree_based = analyze_damage(network, spec, sites="mux")
        graph_based = GraphDamageAnalysis(network, spec).report(sites="mux")
        assert tree_based.total == pytest.approx(graph_based.total)


class TestSynthesisIntegration:
    def test_damage_sites_flows_through(self, setup):
        network, spec = setup
        full = SelectiveHardening(network, spec=spec, seed=0)
        narrow = SelectiveHardening(
            network,
            spec=spec,
            seed=0,
            hardenable="control",
            damage_sites="mux",
        )
        assert narrow.max_damage < full.max_damage
        result = narrow.optimize(generations=30, population_size=16)
        assert len(result.objectives) >= 1

    def test_mux_accounting_floor_is_zero_with_control_hardening(
        self, setup
    ):
        network, spec = setup
        narrow = SelectiveHardening(
            network,
            spec=spec,
            seed=0,
            hardenable="control",
            damage_sites="mux",
        )
        # every counted fault sits in a mux, and every mux belongs to a
        # hardenable unit -> hardening everything removes all damage
        assert narrow.problem.floor_damage == pytest.approx(0.0)


class TestCliFlags:
    def test_table1_damage_sites_flag(self, tmp_path, capsys):
        from repro.cli import main

        json_path = tmp_path / "rows.json"
        code = main(
            [
                "table1",
                "--designs",
                "TreeFlat",
                "--scale-generations",
                "0.05",
                "--damage-sites",
                "mux",
                "--hardenable",
                "control",
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        import json

        rows = json.loads(json_path.read_text())
        assert rows[0]["max_damage"] > 0
