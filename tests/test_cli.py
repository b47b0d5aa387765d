"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestDesigns:
    def test_lists_registry(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        assert "TreeFlat" in out
        assert "MBIST_5_100_100" in out


class TestExample:
    def test_walkthrough(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "stuck-at-1 fault of m0" in out
        assert "['i1', 'i2', 'i3']" in out


class TestAnalyze:
    def test_registry_design(self, capsys):
        assert main(["analyze", "TreeFlat"]) == 0
        out = capsys.readouterr().out
        assert "total damage" in out
        assert "24 / 24" in out

    def test_network_file(self, tmp_path, capsys):
        path = tmp_path / "net.rsn"
        path.write_text(
            "network filetest\n"
            "  segment s length=4 instrument=temp\n"
            "  sib s0\n"
            "    segment t length=2 instrument=core\n"
        )
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "filetest" in out


class TestHarden:
    def test_harden_small_design(self, capsys):
        assert main(
            ["harden", "TreeFlat", "--generations", "30"]
        ) == 0
        out = capsys.readouterr().out
        assert "min damage @ cost<=10%" in out

    def test_harden_with_spots(self, capsys):
        assert main(
            [
                "harden",
                "TreeFlat",
                "--generations",
                "30",
                "--show-spots",
                "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "harden " in out


class TestTable1:
    def test_single_design_json(self, tmp_path, capsys):
        json_path = tmp_path / "rows.json"
        code = main(
            [
                "table1",
                "--designs",
                "TreeFlat",
                "--scale-generations",
                "0.1",
                "--compare",
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        rows = json.loads(json_path.read_text())
        assert rows[0]["design"] == "TreeFlat"
        out = capsys.readouterr().out
        assert "cost%@dmg<=10% paper" in out

    def test_unknown_design_rejected(self, capsys):
        assert main(["table1", "--designs", "Ghost"]) == 2
        assert "unknown designs" in capsys.readouterr().err


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


class TestStats:
    def test_stats_command(self, capsys):
        assert main(["stats", "TreeBalanced"]) == 0
        out = capsys.readouterr().out
        assert "kill_concentration" in out
        assert "hierarchy_depth" in out


class TestExport:
    def test_export_roundtrip(self, tmp_path, capsys):
        from repro.bench import get_design
        from repro.rsn import icl

        out = tmp_path / "tree_flat.rsn"
        assert main(["export", "TreeFlat", str(out)]) == 0
        assert icl.load(out) == get_design("TreeFlat").generate()


class TestHardenVariants:
    def test_nsga2_algorithm(self, capsys):
        assert main(
            [
                "harden",
                "TreeFlat",
                "--generations",
                "20",
                "--algorithm",
                "nsga2",
            ]
        ) == 0
        assert "front" in capsys.readouterr().out

    def test_analyze_top_parameter(self, capsys):
        assert main(["analyze", "TreeFlat", "--top", "3", "--no-cache"]) == 0
        out = capsys.readouterr().out
        # exactly three unit lines under the header
        lines = out.splitlines()
        header = lines.index("most critical hardening units:")
        assert len(lines) - header - 1 == 3


class TestEngineCli:
    def test_analyze_stats_block(self, capsys):
        assert main(["analyze", "TreeFlat", "--no-cache", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "engine stats" in out
        assert "faults/s" in out
        assert "result cache   : disabled" in out

    def test_analyze_cache_hit_on_second_run(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["analyze", "TreeFlat", "--stats"]) == 0
        first = capsys.readouterr().out
        assert "result cache   : miss" in first
        assert main(["analyze", "TreeFlat", "--stats"]) == 0
        second = capsys.readouterr().out
        assert "result cache   : hit" in second
        # the cached report prints the same numbers
        assert (
            first.split("engine stats")[0]
            == second.split("engine stats")[0]
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "TreeFlat", "--no-cache"],
            ["harden", "TreeFlat", "--no-cache"],
            ["table1", "--designs", "TreeFlat"],
            ["serve", "--port", "0"],
        ],
        ids=["analyze", "harden", "table1", "serve"],
    )
    def test_jobs_flag_rejected(self, argv, capsys):
        """The engine evaluates in-process: no command has ``--jobs``."""
        with pytest.raises(SystemExit) as exited:
            main(argv + ["--jobs", "2"])
        assert exited.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_analyze_explicit_method(self, capsys):
        """``analyze`` routes by regime and has no ``--method`` flag."""
        with pytest.raises(SystemExit) as exited:
            main(["analyze", "TreeFlat", "--no-cache", "--method", "explicit"])
        assert exited.value.code == 2
        assert "--method" in capsys.readouterr().err

    def test_table1_stats_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(
            [
                "table1",
                "--designs",
                "TreeFlat",
                "--scale-generations",
                "0.05",
                "--stats",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "analysis" in out
        assert "cache miss" in out


class TestCampaign:
    def test_montecarlo_table(self, capsys):
        assert main(
            [
                "campaign", "montecarlo", "TreeFlat",
                "--rates", "0.01,0.05", "--samples", "60",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "campaign         : montecarlo" in out
        assert "0.05000" in out
        assert "completed" in out

    def test_montecarlo_json_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "mc.json"
        assert main(
            [
                "campaign", "montecarlo", "TreeFlat",
                "--rates", "0.02", "--samples", "40",
                "--output", str(artifact),
            ]
        ) == 0
        payload = json.loads(artifact.read_text())
        assert payload["kind"] == "montecarlo"
        assert payload["records"][0]["complete"]
        assert "wrote" in capsys.readouterr().out

    def test_montecarlo_checkpoint_resume(self, tmp_path, capsys):
        checkpoint = tmp_path / "mc.jsonl"
        argv = [
            "campaign", "montecarlo", "TreeFlat",
            "--rates", "0.02", "--samples", "64",
            "--block-lanes", "16",
            "--checkpoint", str(checkpoint),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "(4 resumed)" in capsys.readouterr().out

    def test_kfault_summary(self, capsys):
        assert main(
            ["campaign", "kfault", "TreeFlat", "-k", "2", "--top", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "campaign         : kfault" in out
        assert "worst combinations:" in out

    def test_kfault_budget_truncates(self, capsys):
        assert main(
            [
                "campaign", "kfault", "TreeFlat",
                "-k", "2", "--max-combinations", "50",
            ]
        ) == 0
        assert "(truncated)" in capsys.readouterr().out

    def test_diagnose_summary(self, capsys):
        assert main(
            [
                "campaign", "diagnose", "TreeFlat",
                "--observations", "50",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "campaign         : diagnosis" in out
        assert "rank-1 accuracy" in out
        assert "resolution" in out

    def test_scalar_sampler_flag(self, capsys):
        assert main(
            [
                "campaign", "montecarlo", "TreeFlat",
                "--rates", "0.05", "--samples", "30",
                "--sampler", "scalar", "--bootstrap", "0",
            ]
        ) == 0
        assert "montecarlo" in capsys.readouterr().out

    def test_bad_rates_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "campaign", "montecarlo", "TreeFlat",
                    "--rates", "not-a-rate",
                ]
            )


class TestTop:
    @pytest.fixture()
    def live_url(self):
        from repro.service import AnalysisService, AsyncServerThread

        service = AnalysisService(no_cache=True, history_interval=0.05)
        server = AsyncServerThread(service)
        # let the sampler tick at least once so the frame has data
        service.history.sample_once()
        yield server.url
        service.close(drain=False, timeout=10.0)
        server.stop()

    def test_once_renders_single_frame(self, live_url, capsys):
        assert main(["top", "--once", "--url", live_url]) == 0
        out = capsys.readouterr().out
        assert "repro-rsn top" in out
        assert "requests/s" in out
        assert "job queue" in out
        assert "\x1b[2J" not in out  # no clear escape on a single frame

    def test_iterations_renders_n_frames(self, live_url, capsys):
        assert main(
            [
                "top", "--url", live_url,
                "--iterations", "2", "--interval", "0.05",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("repro-rsn top") == 2
        assert "\x1b[2J" in out  # frames after the first clear the screen

    def test_unreachable_service_exits_one(self, capsys):
        assert (
            main(
                [
                    "top", "--once",
                    "--url", "http://127.0.0.1:1",
                    "--timeout", "0.5",
                ]
            )
            == 1
        )
        assert "top:" in capsys.readouterr().err

    def test_top_rejects_bad_flags(self):
        with pytest.raises(SystemExit):
            main(["top", "--interval", "0"])
        with pytest.raises(SystemExit):
            main(["top", "--log-lines", "-1"])


class TestServeTelemetryFlags:
    def test_serve_flags_reach_the_service(self, monkeypatch):
        import repro.service as service_module

        captured = {}

        def fake_serve(**kwargs):
            captured.update(kwargs)
            return 0

        monkeypatch.setattr(service_module, "serve", fake_serve)
        assert (
            main(
                [
                    "serve",
                    "--history-interval", "0.25",
                    "--history-window", "64",
                    "--log-level", "warning",
                    "--log-json", "/tmp/svc.jsonl",
                ]
            )
            == 0
        )
        assert captured["history_interval"] == 0.25
        assert captured["history_window"] == 64
        assert captured["log_level"] == "warning"
        assert captured["log_jsonl"] == "/tmp/svc.jsonl"
        # One HTTP front-end: no serve option starts with "--front", so
        # argparse rejects even a prefix of the old selector.
        with pytest.raises(SystemExit):
            main(["serve", "--front", "thread"])

    def test_history_interval_zero_allowed_negative_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--history-interval", "-1"])
        with pytest.raises(SystemExit):
            main(["serve", "--history-window", "0"])
        with pytest.raises(SystemExit):
            main(["serve", "--log-level", "verbose"])
