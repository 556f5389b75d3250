"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_policy, build_parser, main
from repro.errors import ReproError
from repro.experiments import common
from repro.obs import telemetry


class TestPolicyParsing:
    def test_baseline(self):
        assert _parse_policy("baseline") == {"mode": "baseline"}

    def test_static(self):
        assert _parse_policy("static:3") == {
            "mode": "static", "micro_cores": 3, "user_critical": False,
        }

    def test_dynamic(self):
        policy = _parse_policy("dynamic")
        assert policy == common.scheme_policy("dynamic")
        assert policy["adaptive_kwargs"] == {"epoch_interval": common.DYNAMIC_EPOCH}

    def test_garbage_rejected(self):
        with pytest.raises(ReproError):
            _parse_policy("turbo")

    def test_static_without_count_rejected(self):
        with pytest.raises(ReproError):
            _parse_policy("static:")


class TestParser:
    def test_commands_exist(self):
        parser = build_parser()
        for argv in (
            ["list"],
            ["run", "table2"],
            ["corun", "gmake", "--policy", "static:1"],
            ["solo", "exim"],
        ):
            assert parser.parse_args(argv) is not None

    def test_unknown_experiment_rejected_by_argparse(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "fig99"])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out
        assert "swaptions" in out

    def test_solo_run(self, capsys):
        assert main(["solo", "swaptions", "--duration-ms", "20"]) == 0
        out = capsys.readouterr().out
        assert "swaptions" in out
        assert "yields by cause" in out

    def test_corun_with_policy(self, capsys):
        assert main(
            ["corun", "gmake", "--policy", "static:1", "--duration-ms", "20"]
        ) == 0
        out = capsys.readouterr().out
        assert "vm1:gmake" in out
        assert "micro-sliced cores at end: 1" in out

    def test_bad_policy_reports_error(self, capsys):
        code = main(["corun", "gmake", "--policy", "warp9", "--duration-ms", "10"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--policy", "static:x"],
        ["--duration-ms", "0"],
        ["--duration-ms", "-5"],
    ])
    def test_invalid_job_exits_two(self, capsys, argv):
        assert main(["corun", "gmake"] + argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_corun_replays_from_the_result_cache(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(telemetry.REGISTRY, "enabled", True)
        argv = ["corun", "gmake", "--policy", "static:1", "--duration-ms", "20"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        hits = telemetry.counter("cache.hits").value
        inline = telemetry.counter("runner.jobs_inline").value
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert telemetry.counter("cache.hits").value == hits + 1
        assert telemetry.counter("runner.jobs_inline").value == inline


class TestTraceAndAnalyze:
    def test_trace_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(["run", "fig7", "--trace", "--trace-out", "t.jsonl"])
        assert args.trace == "" and args.trace_out == "t.jsonl"
        args = parser.parse_args(["corun", "dedup", "--trace=yield,ipi_send"])
        assert args.trace == "yield,ipi_send"
        args = parser.parse_args(["solo", "exim", "--trace-kinds", "yield"])
        assert args.trace_kinds == "yield"
        assert parser.parse_args(["analyze", "t.jsonl", "--diff", "u.jsonl"]) is not None

    def test_scenario_trace_export_and_analyze(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main(
            ["corun", "dedup", "--duration-ms", "20", "--trace",
             "--trace-out", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        assert path.exists()
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "runstate conservation: OK" in out
        assert "yield decomposition" in out
        assert main(["analyze", str(path), "--diff", str(path)]) == 0
        assert "identical event counts" in capsys.readouterr().out

    def test_analyze_truncated_trace_exits_nonzero(self, capsys, tmp_path):
        path = tmp_path / "trunc.jsonl"
        path.write_text('{"kind": "meta"}\n{"kind": "yie', encoding="utf-8")
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "malformed JSON" in err

    def test_analyze_missing_file_exits_nonzero(self, capsys):
        assert main(["analyze", "/nonexistent/trace.jsonl"]) == 2
        assert "cannot read trace" in capsys.readouterr().err


class TestSweepAndCompare:
    def test_sweep_prints_table(self, capsys):
        assert main(["sweep", "gmake", "--max-cores", "1", "--duration-ms", "40"]) == 0
        out = capsys.readouterr().out
        assert "Micro-sliced core sweep" in out
        assert "vs baseline" in out

    def test_compare_prints_three_policies(self, capsys):
        assert main(["compare", "gmake", "--duration-ms", "40"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "static:1" in out
        assert "dynamic" in out


class TestSharedSeedArgument:
    def test_every_sim_subcommand_takes_seed(self):
        parser = build_parser()
        for argv in (
            ["run", "table2"],
            ["corun", "gmake"],
            ["solo", "exim"],
            ["sweep", "gmake"],
            ["compare", "gmake"],
            ["fleet"],
        ):
            args = parser.parse_args(argv)
            assert args.seed == 42, argv
            args = parser.parse_args(argv + ["--seed", "7"])
            assert args.seed == 7, argv

    @pytest.mark.parametrize("argv,flags", [
        (["run", "table2"], ("workers", "no_cache", "scale", "progress")),
        (["fleet"], ("workers", "no_cache", "scale", "progress")),
        (["serve"], ("workers", "no_cache")),
    ])
    def test_execution_flags_are_shared(self, argv, flags):
        """``--workers``/``--no-cache`` (run, fleet, serve) and
        ``--scale``/``--progress`` (run, fleet): one definition each,
        the same defaults and parsing everywhere."""
        parser = build_parser()
        defaults = {"workers": None, "no_cache": False, "scale": None,
                    "progress": False}
        given = {"workers": ["--workers", "3"], "no_cache": ["--no-cache"],
                 "scale": ["--scale", "0.5"], "progress": ["--progress"]}
        parsed = {"workers": 3, "no_cache": True, "scale": 0.5, "progress": True}
        args = parser.parse_args(argv)
        assert {flag: getattr(args, flag) for flag in flags} == {
            flag: defaults[flag] for flag in flags}
        args = parser.parse_args(argv + sum((given[flag] for flag in flags), []))
        assert {flag: getattr(args, flag) for flag in flags} == {
            flag: parsed[flag] for flag in flags}
        for flag in set(defaults) - set(flags):
            assert not hasattr(args, flag), (argv, flag)
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--workers", "0"])


class TestScaleGrammar:
    """One grammar for the duration scale: ``--scale`` and
    ``REPRO_BENCH_SCALE`` take a finite number > 0, the rule serve
    applies to its ``scale``."""

    @pytest.mark.parametrize("raw", ["0", "-1", "0,05", "nan", "inf"])
    def test_invalid_flag_is_an_argparse_error(self, capsys, raw):
        for command in ("run", "fleet"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--scale", raw])
            assert "expected a number > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["0,05", "0", "-1", "banana"])
    def test_invalid_env_warns_and_runs_at_full_scale(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_BENCH_SCALE", raw)
        with pytest.warns(RuntimeWarning, match="REPRO_BENCH_SCALE"):
            assert common.scale() == 1.0

    @pytest.mark.parametrize("raw, scale", [("0.05", 0.05), ("", 1.0), ("0.001", 0.01)])
    def test_valid_env(self, monkeypatch, raw, scale):
        monkeypatch.setenv("REPRO_BENCH_SCALE", raw)
        assert common.scale() == scale


class TestFleetCommand:
    _TINY = ["fleet", "--hosts", "2", "--epochs", "2", "--rate", "4",
             "--scale", "0.02", "--no-cache"]

    def test_list_enumerates_placements_and_fault_plans(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "placements:" in out
        assert "steal_aware" in out
        assert "fault plans:" in out
        assert "lossy-ipi" in out
        assert "fleet" in out  # the registered experiment

    def test_fleet_table_output(self, capsys):
        assert main(self._TINY + ["--policies", "first_fit"]) == 0
        out = capsys.readouterr().out
        assert "placement policy vs fleet-wide vIRQ" in out
        assert "first_fit" in out

    def test_fleet_json_is_sorted_and_parseable(self, capsys):
        import json as json_module

        assert main(self._TINY + ["--policies", "random,first_fit",
                                  "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert sorted(payload["policies"]) == ["first_fit", "random"]
        assert "checks" in payload

    def test_unknown_policy_exits_two(self, capsys):
        assert main(self._TINY + ["--policies", "warp"]) == 2
        assert "unknown placement policy" in capsys.readouterr().err


class TestServeCommand:
    def test_defaults_are_the_services(self):
        from repro.serve import ServeConfig

        args = build_parser().parse_args(["serve"])
        config = ServeConfig()
        assert (args.host, args.port, args.max_queue_depth, args.max_inflight) == (
            config.host, config.port, config.max_queue_depth, config.max_inflight)

    @pytest.mark.parametrize("argv", [
        ["--max-queue-depth", "0"], ["--max-inflight", "-1"],
    ])
    def test_bad_limit_exits_two(self, monkeypatch, capsys, argv):
        """The limit is refused, not clamped to 1. The stand-in builds
        the app the way ``serve_forever`` does but binds no socket."""
        import repro.serve
        from repro.serve import ServeApp

        async def build_only(config):
            ServeApp(config)
            return 0

        monkeypatch.setattr(repro.serve, "serve_forever", build_only)
        assert main(["serve"]) == 0
        assert main(["serve"] + argv) == 2
        assert "must be an integer >= 1" in capsys.readouterr().err
