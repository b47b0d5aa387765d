"""Unit tests for the damage analyses (Eq. 1 / Eq. 2)."""

import pytest

from repro.analysis import analyze_damage
from repro.analysis.damage import (
    ExplicitDamageAnalysis,
    FastDamageAnalysis,
    _maximal_intervals,
)
from repro.analysis.faults import ControlCellBreak, MuxStuck, SegmentBreak
from repro.errors import ReproError
from repro.spec import CriticalitySpec, uniform_spec


class TestFastAnalysisFaults:
    def test_chain_break_damage(self, chain_network):
        spec = CriticalitySpec({"a": (1, 2), "b": (4, 8), "c": (16, 32)})
        analysis = FastDamageAnalysis(chain_network, spec)
        # break s2 (hosts b): unobservable {s1,s2} -> do(a)+do(b);
        # unsettable {s2,s3} -> ds(b)+ds(c)
        assert analysis.damage_of_fault(SegmentBreak("s2")) == (
            1 + 4 + 8 + 32
        )

    def test_mux_stuck_damage(self, fig1_network, fig1_spec):
        analysis = FastDamageAnalysis(fig1_network, fig1_spec)
        # stuck-at-1 kills i1,i2,i3: sum of do+ds
        expected = (1 + 11) + (2 + 12) + (3 + 13)
        assert analysis.damage_of_fault(MuxStuck("m0", 1)) == expected

    def test_stuck_damage_per_port_differs(self, fig1_network, fig1_spec):
        analysis = FastDamageAnalysis(fig1_network, fig1_spec)
        kill_branch0 = analysis.damage_of_fault(MuxStuck("m0", 1))
        kill_branch1 = analysis.damage_of_fault(MuxStuck("m0", 0))
        assert kill_branch1 == 4 + 14  # i4 only
        assert kill_branch0 != kill_branch1

    def test_unknown_port_rejected(self, fig1_network, fig1_spec):
        analysis = FastDamageAnalysis(fig1_network, fig1_spec)
        with pytest.raises(ReproError):
            analysis.damage_of_fault(MuxStuck("m0", 5))

    def test_cell_break_at_least_break_damage(self, sib_network):
        spec = uniform_spec(sib_network.instrument_names())
        analysis = FastDamageAnalysis(sib_network, spec)
        cell = analysis.damage_of_fault(ControlCellBreak("sib0.bit"))
        # the bit break costs the settability of in1+in2 (2.0) and the
        # observability of 'pre' upstream on the trunk (1.0); pinning the
        # mux at bypass adds the hosted chain's observability (2.0)
        assert cell == 5.0

    def test_worst_stuck_port(self, fig1_network, fig1_spec):
        analysis = FastDamageAnalysis(fig1_network, fig1_spec)
        assert analysis.worst_stuck_port("m0") == 1  # killing i1-i3 is worse

    def test_policies(self, fig1_network, fig1_spec):
        values = {}
        for policy in ("max", "sum", "mean"):
            report = analyze_damage(fig1_network, fig1_spec, policy=policy)
            values[policy] = report.primitive_damage["m0"]
        assert values["max"] >= values["mean"]
        assert values["sum"] == pytest.approx(
            values["mean"] * 2
        )  # two ports
        assert values["sum"] >= values["max"]

    def test_bad_policy_rejected(self, fig1_network, fig1_spec):
        with pytest.raises(ReproError):
            FastDamageAnalysis(fig1_network, fig1_spec, policy="median")

    def test_bad_method_rejected(self, fig1_network, fig1_spec):
        """``analyze_damage`` routes by regime; a ``method=`` selector
        fails loudly instead of being ignored."""
        with pytest.raises(TypeError):
            analyze_damage(fig1_network, fig1_spec, method="magic")


class TestDamageReport:
    def test_report_totals(self, fig1_network, fig1_spec):
        report = analyze_damage(fig1_network, fig1_spec)
        assert report.total == pytest.approx(
            sum(report.primitive_damage.values())
        )
        assert report.hardenable == pytest.approx(
            sum(report.unit_damage.values())
        )
        assert report.unavoidable == pytest.approx(
            report.total - report.hardenable
        )

    def test_all_damages_nonnegative(self, fig1_network, fig1_spec):
        report = analyze_damage(fig1_network, fig1_spec)
        assert all(v >= 0 for v in report.primitive_damage.values())

    def test_residual_monotone(self, fig1_network, fig1_spec):
        report = analyze_damage(fig1_network, fig1_spec)
        units = sorted(report.unit_damage)
        previous = report.total
        hardened = []
        for unit in units:
            hardened.append(unit)
            current = report.residual(hardened)
            assert current <= previous + 1e-9
            previous = current

    def test_residual_all_hardened_is_unavoidable(
        self, fig1_network, fig1_spec
    ):
        report = analyze_damage(fig1_network, fig1_spec)
        assert report.residual(report.unit_damage.keys()) == pytest.approx(
            report.unavoidable
        )

    def test_residual_unknown_unit_rejected(self, fig1_network, fig1_spec):
        report = analyze_damage(fig1_network, fig1_spec)
        with pytest.raises(ReproError):
            report.residual(["ghost"])

    def test_unit_damage_vector_alignment(self, fig1_network, fig1_spec):
        report = analyze_damage(fig1_network, fig1_spec)
        names = sorted(report.unit_damage)
        vector = report.unit_damage_vector(names)
        for value, name in zip(vector, names):
            assert value == report.unit_damage[name]

    def test_most_critical_units_sorted(self, fig1_network, fig1_spec):
        report = analyze_damage(fig1_network, fig1_spec)
        ranked = report.most_critical_units(10)
        damages = [damage for _, damage in ranked]
        assert damages == sorted(damages, reverse=True)

    def test_outer_mux_most_critical(self, fig1_network, fig1_spec):
        """m2 can cut off the larger side of the network — its unit must
        rank highest."""
        report = analyze_damage(fig1_network, fig1_spec)
        top_unit, _ = report.most_critical_units(1)[0]
        assert top_unit == "unit.m2.sel"


class TestExplicitAnalysis:
    def test_same_interface(self, fig1_network, fig1_spec):
        analysis = ExplicitDamageAnalysis(fig1_network, fig1_spec)
        assert analysis.damage_of_fault(MuxStuck("m0", 0)) == 4 + 14

    def test_zero_weight_spec_zero_damage(self, fig1_network):
        spec = CriticalitySpec({})
        report = ExplicitDamageAnalysis(fig1_network, spec).report()
        assert report.total == 0.0


class TestSharedCells:
    def test_shared_cell_break_covers_both_muxes(self, shared_cell_network):
        spec = uniform_spec(shared_cell_network.instrument_names())
        fast = FastDamageAnalysis(shared_cell_network, spec)
        explicit = ExplicitDamageAnalysis(shared_cell_network, spec)
        fault = ControlCellBreak("sel")
        assert fast.damage_of_fault(fault) == pytest.approx(
            explicit.damage_of_fault(fault)
        )
        # the break loses settability of all four instrument segments and
        # each pinned mux kills one branch in addition
        assert fast.damage_of_fault(fault) >= 4.0

    def test_cell_stuck_ports_consistent(self, shared_cell_network):
        spec = uniform_spec(shared_cell_network.instrument_names())
        fast = FastDamageAnalysis(shared_cell_network, spec)
        explicit = ExplicitDamageAnalysis(shared_cell_network, spec)
        assert fast.cell_stuck_ports("sel") == explicit.cell_stuck_ports(
            "sel"
        )


class TestMarginalRule:
    def test_ds_heavy_branch_not_chosen(self):
        """A branch whose weight is all settability is already lost to the
        cell break; the worst stuck value must kill the do-heavy branch."""
        from repro.rsn import RsnBuilder

        builder = RsnBuilder("marginal")
        with builder.mux("m") as mux:
            with mux.branch():
                builder.segment("s1", instrument="x1")
            with mux.branch():
                builder.segment("s2", instrument="x2")
        network = builder.build()
        spec = CriticalitySpec({"x1": (0, 100), "x2": (10, 0)})
        for cls in (FastDamageAnalysis, ExplicitDamageAnalysis):
            analysis = cls(network, spec)
            ports = analysis.cell_stuck_ports("m.sel")
            # stuck at port 0 keeps s1 -> kills s2 (do 10 marginal);
            # stuck at port 1 kills s1 (do 0 marginal)
            assert ports == {"m": 0}
            assert analysis.damage_of_fault(
                ControlCellBreak("m.sel")
            ) == pytest.approx(110.0)


class TestMaximalIntervals:
    def test_nested_dropped(self):
        assert _maximal_intervals([(2, 10), (3, 5), (12, 13)]) == [
            (2, 10),
            (12, 13),
        ]

    def test_duplicates_dropped(self):
        assert _maximal_intervals([(1, 4), (1, 4)]) == [(1, 4)]

    def test_empty(self):
        assert _maximal_intervals([]) == []
