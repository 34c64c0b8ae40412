"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_parses_overrides(self):
        args = build_parser().parse_args(["run", "fig9", "--rounds", "5", "--ratio", "3.0"])
        assert args.experiment == "fig9"
        assert args.rounds == 5
        assert args.ratio == 3.0

    def test_campaign_validates_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--controller", "dqn"])


class TestCommands:
    def test_list_shows_all_artifacts(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for artifact in ("fig2", "fig9", "fig12", "tab3", "abl_guardian"):
            assert artifact in out

    def test_run_static_experiment(self, capsys):
        assert main(["run", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "AGX" in out and "TX2" in out

    def test_run_campaign_experiment_with_overrides(self, capsys):
        assert main(["run", "tab1"]) == 0
        assert "2100" in capsys.readouterr().out

    def test_run_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "fig99"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_campaign_summary(self, capsys):
        code = main(
            ["campaign", "--controller", "performant", "--rounds", "2", "--task", "lstm"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "training energy" in out
        assert "missed rounds" in out


class TestCacheCommand:
    @pytest.fixture(autouse=True)
    def _isolate_global_cache(self):
        from repro.sim import install_persistent_cache
        from repro.sim.runner import clear_campaign_cache

        clear_campaign_cache()
        yield
        clear_campaign_cache()
        install_persistent_cache(None)

    def test_stats_on_empty_directory(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "c")]) == 0
        assert "0" in capsys.readouterr().out

    def test_clear_on_empty_directory(self, tmp_path, capsys):
        assert main(["cache", "clear", "--cache-dir", str(tmp_path / "c")]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_stats_after_a_cached_campaign(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        args = [
            "campaign", "--controller", "performant", "--rounds", "2",
            "--task", "lstm", "--cache-dir", cache_dir,
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "1" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_action_is_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "nuke"])


class TestTraceCommand:
    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        """Record a small BoFL campaign trace through the real CLI path."""
        path = tmp_path_factory.mktemp("cli_trace") / "t.jsonl"
        code = main(
            ["campaign", "--controller", "bofl", "--task", "vit",
             "--rounds", "6", "--trace", str(path)]
        )
        assert code == 0
        return path

    def test_campaign_trace_records_events(self, trace_file, capsys):
        assert trace_file.exists()
        first = trace_file.read_text().splitlines()[0]
        assert "trace.header" in first

    def test_summary_view(self, trace_file, capsys):
        assert main(["trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "Event counts" in out
        assert "agx/vit/bofl" in out

    def test_tab3_view(self, trace_file, capsys):
        assert main(["trace", str(trace_file), "--view", "tab3"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "# Pareto" in out

    def test_fig13_view(self, trace_file, capsys):
        assert main(["trace", str(trace_file), "--view", "fig13"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 13a" in out
        assert "MBO energy share" in out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_trace_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "ok"}\n{broken\n')
        assert main(["trace", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_view_is_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "t.jsonl", "--view", "fig1"])

    def test_tab3_view_needs_a_bofl_campaign(self, tmp_path, capsys):
        path = tmp_path / "perf.jsonl"
        code = main(
            ["campaign", "--controller", "performant", "--rounds", "2",
             "--task", "lstm", "--trace", str(path)]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["trace", str(path), "--view", "tab3"]) == 1
        assert "no bofl campaign" in capsys.readouterr().err


class TestFleetCommand:
    #: Performant-only, two archetypes: two fast campaigns total.
    FAST = [
        "--clients", "6", "--rounds", "2", "--archetypes", "2",
        "--controllers", "performant", "--workers", "1",
    ]

    def test_run_parses_fleet_options(self):
        args = build_parser().parse_args(
            ["fleet", "run", "--mode", "async", "--buffer", "8", "--chaos", "0.2"]
        )
        assert args.fleet_command == "run"
        assert args.mode == "async"
        assert args.buffer == 8
        assert args.chaos == 0.2

    def test_mode_is_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "run", "--mode", "firehose"])

    def test_report_requires_a_file(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "report"])

    def test_run_prints_the_scorecard(self, capsys):
        assert main(["fleet", "run", *self.FAST]) == 0
        out = capsys.readouterr().out
        for key in ("mode", "clients", "aggregations", "total_energy"):
            assert key in out

    def test_trace_round_trips_through_report(self, tmp_path, capsys):
        trace = tmp_path / "fleet.jsonl"
        assert main(["fleet", "run", *self.FAST, "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["fleet", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "fleet.start" in out
        assert "mode=sync" in out

    def test_trace_is_seed_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["fleet", "run", *self.FAST, "--trace", str(a)]) == 0
        assert main(["fleet", "run", *self.FAST, "--trace", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_impossible_stats_run_fails_before_prepare(self, monkeypatch, capsys):
        """Stats-mode async with a staleness bound cannot compose, so the
        CLI must refuse before gathering (possibly 100k clients') traces."""
        prepared = []
        monkeypatch.setattr(
            "repro.sim.fleet.prepare_fleet", lambda spec, **kw: prepared.append(spec)
        )
        code = main(
            ["fleet", "run", *self.FAST, "--mode", "async",
             "--max-staleness", "1", "--detail", "stats"]
        )
        assert code == 1
        assert "static fast drain" in capsys.readouterr().err
        assert prepared == []

    def test_run_rejects_a_nan_staleness_exponent(self, monkeypatch, capsys):
        prepared = []
        monkeypatch.setattr(
            "repro.sim.fleet.prepare_fleet", lambda spec, **kw: prepared.append(spec)
        )
        code = main(
            ["fleet", "run", *self.FAST, "--mode", "async", "--buffer", "4",
             "--staleness-exponent", "nan"]
        )
        assert code == 1
        assert "staleness_exponent must be finite and >= 0, got nan" in (
            capsys.readouterr().err
        )
        assert prepared == []

    def test_report_on_fleetless_trace_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "perf.jsonl"
        assert main(
            ["campaign", "--controller", "performant", "--rounds", "2",
             "--task", "lstm", "--trace", str(path)]
        ) == 0
        capsys.readouterr()
        assert main(["fleet", "report", str(path)]) == 1
        assert "no fleet events" in capsys.readouterr().err


class TestServiceCommands:
    def test_loadtest_parses_options(self):
        args = build_parser().parse_args(
            ["loadtest", "--clients", "24", "--passes", "3", "--rate", "100",
             "--timeout", "0.1", "--max-queue", "32", "--cache-entries", "64"]
        )
        assert args.clients == 24
        assert args.passes == 3
        assert args.rate == 100.0
        assert args.timeout == 0.1
        assert args.max_queue == 32
        assert args.cache_entries == 64

    def test_loadtest_prints_summary_and_writes_outputs(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        log = tmp_path / "decisions.jsonl"
        code = main(
            ["loadtest", "--clients", "12", "--rounds", "2", "--passes", "2",
             "--seed", "7", "--report", str(report), "--decision-log", str(log)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Loadtest summary" in out
        assert "cache hit rate" in out
        assert report.is_file() and log.is_file()
        assert len(log.read_text().splitlines()) == 12 * 2 * 2

    def test_loadtest_decision_log_is_byte_deterministic(self, tmp_path, capsys):
        logs = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            assert main(
                ["loadtest", "--clients", "12", "--rounds", "2", "--seed", "7",
                 "--decision-log", str(path)]
            ) == 0
            logs.append(path.read_bytes())
        capsys.readouterr()
        assert logs[0] == logs[1]

    def test_loadtest_trace_replays_through_from_trace(self, tmp_path, capsys):
        trace = tmp_path / "service.jsonl"
        assert main(
            ["loadtest", "--clients", "12", "--rounds", "2", "--seed", "7",
             "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["loadtest", "--from-trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Service trace summary" in out
        assert "decisions        : 48" in out

    def test_serve_answers_a_request_file(self, tmp_path, capsys):
        stream = tmp_path / "requests.jsonl"
        stream.write_text(
            '{"device": "agx", "task": "vit", "jobs": 50, "deadline": 60.0, '
            '"client_id": "c0"}\n'
            '{"device": "agx", "task": "vit", "jobs": 50, "deadline": 60.0, '
            '"client_id": "c1"}\n'
        )
        assert main(["serve", str(stream)]) == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.splitlines() if line]
        assert len(lines) == 2
        assert lines[0]["source"] == "computed"
        assert lines[0]["request_hash"] == lines[1]["request_hash"]
        assert "served 2 decision(s)" in captured.err

    def test_serve_rejects_an_empty_stream(self, tmp_path, capsys):
        stream = tmp_path / "empty.jsonl"
        stream.write_text("\n")
        assert main(["serve", str(stream)]) == 1
        assert "empty" in capsys.readouterr().err

    def test_serve_rejects_malformed_lines(self, tmp_path, capsys):
        stream = tmp_path / "bad.jsonl"
        stream.write_text('{"device": "agx"}\n')
        assert main(["serve", str(stream)]) == 1
        assert "request line 1" in capsys.readouterr().err

    def test_serve_names_the_line_with_a_non_finite_deadline(self, tmp_path, capsys):
        stream = tmp_path / "nan.jsonl"
        stream.write_text(
            '{"device": "agx", "task": "vit", "jobs": 50, "deadline": 60.0}\n'
            '{"device": "agx", "task": "vit", "jobs": 50, "deadline": NaN}\n'
        )
        assert main(["serve", str(stream)]) == 1
        err = capsys.readouterr().err
        assert "request line 2" in err
        assert "deadline must be positive and finite" in err

    def test_serve_names_the_line_with_an_unknown_device(self, tmp_path, capsys):
        stream = tmp_path / "nano.jsonl"
        stream.write_text(
            '{"device": "agx", "task": "vit", "jobs": 50, "deadline": 60.0}\n'
            '{"device": "nano", "task": "vit", "jobs": 50, "deadline": 60.0}\n'
        )
        assert main(["serve", str(stream)]) == 1
        err = capsys.readouterr().err
        assert "request line 2" in err
        assert "unknown device 'nano'" in err

    @pytest.mark.parametrize("rate", ["nan", "0", "-5"])
    def test_serve_rejects_a_bad_rate(self, tmp_path, capsys, rate):
        stream = tmp_path / "requests.jsonl"
        stream.write_text(
            '{"device": "agx", "task": "vit", "jobs": 50, "deadline": 60.0}\n'
        )
        assert main(["serve", str(stream), "--rate", rate]) == 1
        captured = capsys.readouterr()
        assert f"rate must be a finite positive number, got {float(rate)}" in captured.err
        assert captured.out == ""

    def test_loadtest_rejects_a_nan_rate(self, capsys):
        assert main(["loadtest", "--clients", "6", "--rounds", "1", "--rate", "nan"]) == 1
        assert "rate must be a finite positive number, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("ratio", ["nan", "inf"])
    def test_loadtest_rejects_a_non_finite_ratio(self, capsys, ratio):
        argv = ["loadtest", "--clients", "6", "--rounds", "1", "--passes", "1"]
        assert main([*argv, "--ratio", ratio]) == 1
        err = capsys.readouterr().err
        assert f"deadline_ratio must be positive and finite, got {float(ratio)}" in err

    def test_loadtest_rejects_a_nan_timeout(self, capsys):
        argv = ["loadtest", "--clients", "6", "--rounds", "1", "--passes", "1"]
        assert main([*argv, "--timeout", "nan"]) == 1
        assert "timeout must be a finite positive number, got nan" in capsys.readouterr().err


class TestServertuneCommand:
    #: Two archetypes, two members, one generation: three fast evaluations.
    FAST = [
        "--clients", "6", "--rounds", "2", "--archetypes", "2",
        "--population", "2", "--generations", "1", "--workers", "1",
    ]

    def test_run_parses_options(self):
        args = build_parser().parse_args(
            ["servertune", "run", "--population", "6", "--generations", "4",
             "--pbt-seed", "3", "--controllers", "fedgpo",
             "--alpha-energy", "0.7", "--alpha-time", "0.3"]
        )
        assert args.servertune_command == "run"
        assert args.population == 6
        assert args.generations == 4
        assert args.pbt_seed == 3
        assert args.controllers == "fedgpo"
        assert args.alpha_energy == 0.7

    def test_report_requires_a_file(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["servertune", "report"])

    def test_run_prints_population_and_frontier(self, capsys):
        assert main(["servertune", "run", *self.FAST]) == 0
        out = capsys.readouterr().out
        for key in ("PBT", "baseline (static)", "frontier (energy/agg"):
            assert key in out

    def test_frontier_round_trips_through_report(self, tmp_path, capsys):
        frontier = tmp_path / "frontier.json"
        assert main(
            ["servertune", "run", *self.FAST, "--frontier", str(frontier)]
        ) == 0
        run_out = capsys.readouterr().out
        assert main(["servertune", "report", str(frontier)]) == 0
        assert capsys.readouterr().out == run_out

    def test_trace_is_seed_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["servertune", "run", *self.FAST, "--trace", str(a)]) == 0
        assert main(["servertune", "run", *self.FAST, "--trace", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_state_file_resumes(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        assert main(
            ["servertune", "run", *self.FAST, "--state", str(state)]
        ) == 0
        assert state.is_file()
        capsys.readouterr()
        assert main(
            ["servertune", "run", *self.FAST[:-4], "--generations", "2",
             "--workers", "1", "--state", str(state)]
        ) == 0
        captured = capsys.readouterr()
        assert "resuming from" in captured.err
        assert json.loads(state.read_text())["next_generation"] == 2

    def test_report_rejects_a_non_frontier_file(self, tmp_path, capsys):
        path = tmp_path / "not_frontier.json"
        path.write_text('{"kind": "something_else"}\n')
        assert main(["servertune", "report", str(path)]) == 1
        assert capsys.readouterr().err
