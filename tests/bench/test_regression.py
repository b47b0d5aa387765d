"""The bench-regression gate: baseline parsing, comparison, exit codes.

Synthetic baselines over a tiny generated design keep the re-measure
step fast; regression/pass outcomes are forced through the recorded
baseline seconds (a near-zero baseline must regress, an enormous one
must pass) so the gate's verdict — not the machine's speed — is what
the assertions pin down.
"""

import json
from pathlib import Path

import pytest

from repro.bench.regression import (
    BenchComparison,
    HotPath,
    RegressionParseError,
    compare_baseline,
    load_hot_paths,
    measure_hot_path,
)
from repro.cli import main

#: Small enough that one cold population sweep is milliseconds.
TINY = {"n_segments": 24, "n_muxes": 3}


def _ea_baseline(eval_seconds: float) -> dict:
    return {
        "benchmark": "ea-population",
        "designs": [
            {
                "design": "mbist_24_3",
                "population": 16,
                "batched_eval_seconds": eval_seconds,
                **TINY,
            }
        ],
    }


def _telemetry_baseline(
    disabled_seconds: float, tolerance: float = 0.05
) -> dict:
    return {
        "benchmark": "telemetry-overhead",
        "designs": [
            {
                "design": "mbist_24_3",
                "disabled_seconds": disabled_seconds,
                "history_interval": 0.01,
                "tolerance": tolerance,
                **TINY,
            }
        ],
    }


def _write(tmp_path, payload, name="baseline.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestParsing:
    def test_missing_file_is_a_parse_error(self):
        with pytest.raises(RegressionParseError):
            load_hot_paths("/no/such/baseline.json")

    def test_invalid_json_is_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(RegressionParseError):
            load_hot_paths(str(path))

    def test_unknown_benchmark_kind_is_a_parse_error(self, tmp_path):
        payload = _ea_baseline(1.0)
        payload["benchmark"] = "who-knows"
        with pytest.raises(RegressionParseError, match="who-knows"):
            load_hot_paths(_write(tmp_path, payload))

    def test_missing_row_key_is_a_parse_error(self, tmp_path):
        payload = _ea_baseline(1.0)
        del payload["designs"][0]["population"]
        with pytest.raises(RegressionParseError, match="population"):
            load_hot_paths(_write(tmp_path, payload))

    def test_missing_timing_is_a_parse_error(self, tmp_path):
        payload = _ea_baseline(1.0)
        del payload["designs"][0]["batched_eval_seconds"]
        with pytest.raises(
            RegressionParseError, match="batched_eval_seconds"
        ):
            load_hot_paths(_write(tmp_path, payload))

    def test_empty_designs_is_a_parse_error(self, tmp_path):
        with pytest.raises(RegressionParseError, match="designs"):
            load_hot_paths(
                _write(tmp_path, {"benchmark": "ea-population"})
            )

    def test_hot_paths_carry_metric_and_params(self, tmp_path):
        path = _write(tmp_path, _ea_baseline(0.5))
        benchmark, (hot_path,) = load_hot_paths(path)
        assert benchmark == "ea-population"
        assert hot_path.label == "mbist_24_3/ea_batched_eval"
        assert hot_path.baseline_seconds == 0.5
        assert hot_path.params == {"population": 16}

    def test_telemetry_rows_parse_with_per_path_tolerance(self, tmp_path):
        path = _write(tmp_path, _telemetry_baseline(1.0, tolerance=0.07))
        benchmark, (hot_path,) = load_hot_paths(path)
        assert benchmark == "telemetry-overhead"
        assert hot_path.metric == "telemetry_overhead"
        assert hot_path.tolerance == 0.07
        assert hot_path.params["history_interval"] == 0.01

    def test_telemetry_tolerance_defaults_to_five_percent(self, tmp_path):
        payload = _telemetry_baseline(1.0)
        del payload["designs"][0]["tolerance"]
        _, (hot_path,) = load_hot_paths(_write(tmp_path, payload))
        assert hot_path.tolerance == 0.05

    def test_other_kinds_carry_no_tolerance_override(self, tmp_path):
        _, (hot_path,) = load_hot_paths(
            _write(tmp_path, _ea_baseline(1.0))
        )
        assert hot_path.tolerance is None

    def test_real_baselines_parse(self):
        results = Path(__file__).resolve().parents[2] / "results"
        for name in ("ea", "ea_lowering", "service", "campaigns", "telemetry"):
            benchmark, hot_paths = load_hot_paths(
                str(results / f"BENCH_{name}.json")
            )
            assert hot_paths, benchmark


class TestComparison:
    def test_huge_baseline_passes(self, tmp_path):
        path = _write(tmp_path, _ea_baseline(1e6))
        report = compare_baseline(path, repeats=1)
        assert report.ok
        (comparison,) = report.comparisons
        assert comparison.ratio < 1.0
        assert not comparison.regressed(0.2)

    def test_tiny_baseline_regresses(self, tmp_path):
        path = _write(tmp_path, _ea_baseline(1e-9))
        report = compare_baseline(path, repeats=1)
        assert not report.ok
        (comparison,) = report.comparisons
        assert comparison.regressed(0.2)
        assert "REGRESSED" in report.format()

    def test_max_segments_skips_loudly(self, tmp_path):
        payload = _ea_baseline(1e6)
        payload["designs"].append(
            {
                "design": "mbist_99999_9",
                "population": 16,
                "n_segments": 99999,
                "n_muxes": 9,
                "batched_eval_seconds": 1.0,
            }
        )
        path = _write(tmp_path, payload)
        report = compare_baseline(path, repeats=1, max_segments=100)
        assert len(report.comparisons) == 1
        assert len(report.skipped) == 1
        assert "mbist_99999_9" in report.skipped[0]
        assert "skipped" in report.format()

    def test_zero_baseline_counts_as_regression(self, tmp_path):
        path = _write(tmp_path, _ea_baseline(0.0))
        report = compare_baseline(path, repeats=1)
        (comparison,) = report.comparisons
        assert comparison.ratio == float("inf")
        assert not report.ok

    def test_as_dict_is_json_serializable(self, tmp_path):
        path = _write(tmp_path, _ea_baseline(1e6))
        report = compare_baseline(path, repeats=1)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ok"] is True
        assert payload["comparisons"][0]["label"] == (
            "mbist_24_3/ea_batched_eval"
        )

    def test_measure_uses_the_best_of_repeats(self, tmp_path):
        path = _write(tmp_path, _ea_baseline(1e6))
        _, (hot_path,) = load_hot_paths(path)
        single = measure_hot_path(hot_path, repeats=1)
        best = measure_hot_path(hot_path, repeats=3)
        assert single > 0 and best > 0

    def test_per_path_tolerance_overrides_gate_tolerance(self):
        hot_path = HotPath(
            design="d",
            metric="telemetry_overhead",
            n_segments=1,
            n_muxes=1,
            baseline_seconds=1.0,
            tolerance=0.05,
        )
        comparison = BenchComparison(hot_path=hot_path, fresh_seconds=1.1)
        # 10% over: within the gate-wide 20% but over the per-path 5%
        assert comparison.regressed(0.2)
        hot_path.tolerance = None
        assert not comparison.regressed(0.2)

    def test_telemetry_measure_overwrites_recorded_baseline(self, tmp_path):
        # The recorded disabled timing is informational: the gate
        # re-measures both sides fresh, so an absurd recorded value must
        # not sway the ratio.
        path = _write(tmp_path, _telemetry_baseline(1e6, tolerance=2.0))
        _, (hot_path,) = load_hot_paths(path)
        enabled = measure_hot_path(hot_path, repeats=1)
        assert enabled > 0
        assert hot_path.baseline_seconds < 1e3  # fresh, not the recorded 1e6

    def test_telemetry_comparison_is_overhead_ratio(self, tmp_path):
        # A generous per-row tolerance keeps this deterministic on noisy
        # machines while still driving the full compare path.
        path = _write(tmp_path, _telemetry_baseline(1e6, tolerance=25.0))
        report = compare_baseline(path, repeats=2)
        assert report.ok, report.format()
        (comparison,) = report.comparisons
        assert comparison.ratio < 26.0


class TestCliExitCodes:
    def test_ok_run_exits_zero(self, tmp_path):
        path = _write(tmp_path, _ea_baseline(1e6))
        assert main(["bench-diff", path, "--repeats", "1"]) == 0

    def test_regression_exits_one(self, tmp_path):
        path = _write(tmp_path, _ea_baseline(1e-9))
        assert main(["bench-diff", path, "--repeats", "1"]) == 1

    def test_soft_mode_reports_but_passes(self, tmp_path, capsys):
        path = _write(tmp_path, _ea_baseline(1e-9))
        assert (
            main(["bench-diff", path, "--repeats", "1", "--soft"]) == 0
        )
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "--soft" in out

    def test_parse_error_exits_two_even_soft(self, tmp_path):
        path = str(tmp_path / "missing.json")
        assert main(["bench-diff", path, "--soft"]) == 2

    def test_multiple_baselines_worst_exit_wins(self, tmp_path):
        good = _write(tmp_path, _ea_baseline(1e6), "good.json")
        bad = _write(tmp_path, _ea_baseline(1e-9), "bad.json")
        assert main(["bench-diff", good, bad, "--repeats", "1"]) == 1
