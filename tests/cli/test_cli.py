"""Unit tests for the ``ktg`` command-line interface."""

import argparse

import pytest

from repro.cli.main import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "facebook", "--edges", "e", "--keywords", "k"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "ktg" in capsys.readouterr().out


class TestDatasetsCommand:
    def test_lists_profiles(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("dblp", "gowalla", "brightkite", "flickr", "twitter"):
            assert name in out


class TestGenerateCommand:
    def test_writes_files(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        keywords = tmp_path / "g.kw"
        code = main(
            [
                "generate",
                "brightkite",
                "--scale",
                "0.05",
                "--edges",
                str(edges),
                "--keywords",
                str(keywords),
            ]
        )
        assert code == 0
        assert edges.exists() and keywords.exists()
        assert "wrote" in capsys.readouterr().out


class TestQueryCommand:
    def test_runs_query(self, capsys):
        code = main(
            [
                "query",
                "brightkite",
                "--scale",
                "0.1",
                "--keywords",
                "kw000,kw001,kw002",
                "-p",
                "2",
                "-k",
                "1",
                "-n",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "KTG-VKC-DEG-NLRNL" in out
        assert "latency" in out

    def test_dktg_algorithm(self, capsys):
        code = main(
            [
                "query",
                "brightkite",
                "--scale",
                "0.1",
                "--keywords",
                "kw000,kw001",
                "-p",
                "2",
                "--algorithm",
                "DKTG-GREEDY",
            ]
        )
        assert code == 0
        assert "DKTG" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "brightkite",
                "--parameter",
                "top_n",
                "--scale",
                "0.1",
                "--queries",
                "1",
                "--algorithms",
                "KTG-VKC-NLRNL",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        assert csv_path.exists()
        out = capsys.readouterr().out
        assert "mean latency" in out


class TestBatchCommand:
    def test_second_pass_served_from_cache(self, capsys):
        code = main(
            [
                "batch",
                "brightkite",
                "--scale",
                "0.1",
                "--queries",
                "4",
                "--keyword-size",
                "3",
                "--passes",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "batch serving (batch_workers=" in out and "from_cache" in out
        assert "service metrics" in out and "cache_hit_rate" in out

    def test_sequential_flag(self, capsys):
        # The batch path is chosen from the usable CPU count: argparse
        # rejects --sequential and the removed --workers / --executor.
        for flags in (["--sequential"], ["--workers", "2"], ["--executor", "thread"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["batch", "brightkite", *flags])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestCaseStudyCommand:
    def test_prints_report(self, capsys):
        assert main(["case-study"]) == 0
        out = capsys.readouterr().out
        assert "TAGQ" in out and "no query keyword" in out


class TestIndexStatsCommand:
    def test_prints_footprints(self, capsys):
        assert main(["index-stats", "brightkite", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "nl" in out and "nlrnl" in out and "entries" in out


class TestStatsCommand:
    def test_prints_statistics(self, capsys):
        assert main(["stats", "brightkite", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "avg_degree" in out
        assert "hop-ball fractions" in out

    def test_solve_report_with_keywords(self, capsys):
        code = main(
            [
                "stats",
                "brightkite",
                "--scale",
                "0.1",
                "--keywords",
                "music,travel,food",
                "-p",
                "3",
                "-k",
                "2",
                "-n",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "search counters" in out
        assert "oracle usage" in out
        assert "instrument counters" in out
        assert "solver.nodes_entered" in out

    def test_solve_report_counts_the_served_search(self, monkeypatch, capsys):
        """The hooked solve behind the report runs the search the service
        serves: same groups and every search counter but the wall time."""
        from dataclasses import replace

        from repro.core.query import KTGQuery
        from repro.datasets.registry import load_dataset
        from repro.obs import report
        from repro.service import QueryService

        reported = []
        solve_report = report.solve_report

        def recording(result, **kwargs):
            reported.append(result)
            return solve_report(result, **kwargs)

        monkeypatch.setattr(report, "solve_report", recording)
        argv = ["stats", "brightkite", "--scale", "0.1", "--keywords", "kw000,kw001,kw002"]
        assert main([*argv, "-p", "3", "-k", "2", "-n", "2"]) == 0
        capsys.readouterr()
        graph, _ = load_dataset("brightkite", scale=0.1)
        query = KTGQuery(
            keywords=("kw000", "kw001", "kw002"), group_size=3, tenuity=2, top_n=2
        )
        served = QueryService(graph).submit(query).result
        (hooked,) = reported
        assert hooked.stats.node_prunes > 100
        assert hooked.groups == served.groups
        assert replace(hooked.stats, elapsed_seconds=0.0) == replace(
            served.stats, elapsed_seconds=0.0
        )

    def test_solve_report_algorithm_flag(self, capsys):
        code = main(
            [
                "stats",
                "brightkite",
                "--scale",
                "0.1",
                "--keywords",
                "music,travel",
                "--algorithm",
                "KTG-VKC-NL",
            ]
        )
        assert code == 0
        assert "KTG-VKC-NL" in capsys.readouterr().out


class TestTraceCommand:
    def test_renders_tree(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "{root}" in out
        assert "nodes=" in out

    def test_strategy_and_depth_flags(self, capsys):
        assert main(["trace", "--strategy", "vkc-deg", "--max-depth", "1"]) == 0
        out = capsys.readouterr().out
        assert "{root}" in out


class TestIndexStatsAllOracles:
    def test_includes_pll_and_bfs(self, capsys):
        assert main(["index-stats", "brightkite", "--scale", "0.1", "--all-oracles"]) == 0
        out = capsys.readouterr().out
        assert "pll" in out and "bfs" in out


class TestReproduceCommand:
    def test_fig8_reports_findings(self, capsys):
        code = main(["reproduce", "--experiment", "fig8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[HELD" in out
        assert "## fig8" in out

    def test_fig9_exit_code_tracks_findings(self, capsys):
        code = main(["reproduce", "--experiment", "fig9", "--scale", "0.15"])
        out = capsys.readouterr().out
        assert "nlrnl_entries" in out
        assert code in (0, 2)  # 2 when a timing-based claim diverges


class TestSolveAlias:
    QUERY_ARGS = [
        "brightkite",
        "--scale",
        "0.1",
        "--keywords",
        "kw000,kw001,kw002",
        "-p",
        "3",
        "-k",
        "1",
        "-n",
        "2",
    ]

    def test_solve_alias_parses_like_query(self):
        args = build_parser().parse_args(["solve", *self.QUERY_ARGS])
        assert args.command == "solve"
        assert args.group_size == 3

    @pytest.mark.parametrize("command", ["query", "solve", "batch"])
    def test_jobs_flag_is_gone(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "brightkite", "--jobs", "2"])

    def test_no_command_takes_a_backend_flag(self):
        parser = build_parser()
        commands = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        for name, command in commands.choices.items():
            flags = [
                flag
                for action in command._actions
                for flag in action.option_strings
                if "backend" in flag or flag == "--graph-layout"
            ]
            assert not flags, name


_NON_POSITIVE_CASES = [
    (command, flag, value)
    for flag, value in [
        ("--node-budget", "0"),
        ("--time-budget", "0"),
        ("--time-budget", "-1"),
        ("--time-budget", "nan"),
    ]
    for command in ("batch", "serve")
] + [
    ("serve", "--workers", "0"),
    ("serve", "--workers", "-2"),
    ("batch", "--passes", "0"),
    ("batch", "--passes", "-1"),
]


class TestPositiveFlags:
    """Non-positive workers, budgets and passes are usage errors at parse time."""

    @pytest.mark.parametrize(
        "command, flag, value",
        _NON_POSITIVE_CASES,
        ids=[f"{flag}-{value}-{command}" for command, flag, value in _NON_POSITIVE_CASES],
    )
    def test_non_positive_rejected(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "brightkite", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["batch", "serve"])
    def test_positive_values_parse(self, command):
        args = build_parser().parse_args(
            [command, "brightkite", "--node-budget", "50", "--time-budget", "0.5"]
        )
        assert (args.node_budget, args.time_budget) == (50, 0.5)
        if command == "serve":
            args = build_parser().parse_args([command, "brightkite", "--workers", "3"])
            assert args.workers == 3

    def test_non_numeric_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "brightkite", "--workers", "many"])
        assert "invalid int value" in capsys.readouterr().err


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "brightkite"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.workers == 4
        assert args.rate_limit == 0.0
        assert args.max_inflight == 64
        assert args.cache_capacity == 1024

    def test_parser_full_flags(self):
        args = build_parser().parse_args(
            [
                "serve",
                "brightkite",
                "--scale",
                "0.1",
                "--port",
                "0",
                "--rate-limit",
                "25",
                "--burst",
                "50",
                "--max-inflight",
                "8",
                "--pressure-threshold",
                "4",
                "--pressure-time-budget",
                "0.02",
                "--workers",
                "2",
                "--algorithm",
                "KTG-VKC-NLRNL",
            ]
        )
        assert args.port == 0 and args.rate_limit == 25.0
        assert args.pressure_threshold == 4
        assert args.algorithm == "KTG-VKC-NLRNL"

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "orkut"])
