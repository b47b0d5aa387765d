"""Unit tests for the exception hierarchy."""

import pytest

from repro import errors


class TestHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in (
            "NetworkError",
            "ValidationError",
            "DuplicateNameError",
            "UnknownNodeError",
            "BuilderError",
            "IclFormatError",
            "NotSeriesParallelError",
            "SpecificationError",
            "SimulationError",
            "RetargetingError",
            "OptimizationError",
            "BenchmarkError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError), name

    def test_retargeting_is_simulation_error(self):
        assert issubclass(errors.RetargetingError, errors.SimulationError)

    def test_validation_is_network_error(self):
        assert issubclass(errors.ValidationError, errors.NetworkError)


class TestPayloads:
    def test_validation_error_collects_problems(self):
        exc = errors.ValidationError(["a broke", "b broke"])
        assert exc.problems == ["a broke", "b broke"]
        assert "a broke; b broke" in str(exc)

    def test_icl_error_line_prefix(self):
        exc = errors.IclFormatError("bad token", line=17)
        assert exc.line == 17
        assert str(exc).startswith("line 17:")

    def test_icl_error_without_line(self):
        exc = errors.IclFormatError("bad token")
        assert exc.line is None
        assert str(exc) == "bad token"

    def test_not_sp_error_blocked_edges(self):
        exc = errors.NotSeriesParallelError("stuck", [("a", "b")])
        assert exc.blocked_edges == [("a", "b")]

    def test_single_catch_at_api_boundary(self, fig1_network):
        from repro.analysis import analyze_damage
        from repro.spec import uniform_spec

        with pytest.raises(errors.ReproError):
            analyze_damage(
                fig1_network,
                uniform_spec(fig1_network.instrument_names()),
                policy="nope",
            )
