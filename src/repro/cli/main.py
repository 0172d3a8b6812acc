"""Command-line interface: ``ktg`` (or ``python -m repro``).

Subcommands mirror the library's workflow:

``ktg datasets``
    List the built-in dataset profiles and their calibration.
``ktg generate <profile> --edges out.edges --keywords out.kw``
    Materialise a synthetic dataset to disk.
``ktg query <profile> --keywords a,b,c [-p 3 -k 2 -n 3] [--algorithm ...]``
    Answer one KTG query and print the groups.  ``ktg solve`` is an
    alias.
``ktg batch <profile> --queries 50 [--passes 2]``
    Serve a generated query batch through the QueryService (result
    cache + admission control; a long batch's misses spread over one
    process per usable CPU) and print serving metrics.
``ktg serve <profile> [--port 8765 --rate-limit 50 --max-inflight 64]``
    Serve KTG queries over HTTP: the asyncio front end with per-client
    rate limiting, identical-query coalescing, deadline propagation and
    degraded-mode responses (``POST /solve``, ``POST /batch``,
    ``GET /stats``, ``GET /healthz``).
``ktg sweep <profile> --parameter group_size``
    Run a Table I parameter sweep and print the figure-shaped table.
``ktg case-study``
    Print the Figure 8 effectiveness comparison.
``ktg index-stats <profile>``
    Compare NL vs NLRNL (and BFS/PLL) footprint and build time (Figure 9).
``ktg stats <profile>``
    Structural statistics of a dataset profile (calibration view).
``ktg trace``
    Render the branch-and-bound search tree of the paper's running
    example (Figure 2).
``ktg reproduce --experiment fig4``
    Re-run one of the paper's experiments at reduced scale and check
    its qualitative findings.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import __version__
from repro.analysis.case_study import render_case_study, run_case_study
from repro.analysis.graphstats import compute_statistics
from repro.analysis.tables import render_series, render_table, write_csv
from repro.core.errors import ReproError
from repro.core.query import DKTGQuery, KTGQuery
from repro.datasets.figure1 import case_study_graph, case_study_query
from repro.datasets.io import write_graph
from repro.datasets.registry import PROFILES, load_dataset
from repro.index.stats import adjacency_footprint_bytes, measure_footprint
from repro.core.branch_and_bound import BranchAndBoundSolver
from repro.core.strategies import strategy_by_name
from repro.core.trace import TracingSolver
from repro.datasets.figure1 import figure1_example, figure1_query
from repro.workloads.runner import ALGORITHMS
from repro.workloads.experiments import experiment_ids, reproduce
from repro.workloads.sweep import PARAMETER_TABLE, run_parameter_sweep

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (rejected at parse time otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a number > 0 (rejected at parse time otherwise)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="ktg",
        description="Keyword-based socially tenuous group queries (ICDE 2023 reproduction).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list built-in dataset profiles")

    generate = commands.add_parser("generate", help="write a synthetic dataset to disk")
    generate.add_argument("profile", choices=sorted(PROFILES))
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("--edges", required=True, help="output edge-list path")
    generate.add_argument("--keywords", required=True, help="output keyword-table path")

    query = commands.add_parser(
        "query", aliases=["solve"], help="answer one KTG/DKTG query"
    )
    query.add_argument("profile", choices=sorted(PROFILES))
    query.add_argument("--scale", type=float, default=1.0)
    query.add_argument(
        "--keywords",
        required=True,
        help="comma-separated query keywords (use vocabulary labels, e.g. kw003)",
    )
    query.add_argument("-p", "--group-size", type=int, default=3)
    query.add_argument("-k", "--tenuity", type=int, default=2)
    query.add_argument("-n", "--top-n", type=int, default=3)
    query.add_argument(
        "--algorithm",
        default="KTG-VKC-DEG-NLRNL",
        choices=sorted(ALGORITHMS),
    )
    query.add_argument("--gamma", type=float, default=0.5, help="DKTG diversity weight")
    query.add_argument(
        "--distance-engine",
        default="oracle",
        choices=["oracle", "bitset"],
        help="tenuity-check engine: direct oracle probes or ball bitsets",
    )

    batch = commands.add_parser(
        "batch", help="serve a generated query batch through the QueryService"
    )
    batch.add_argument("profile", choices=sorted(PROFILES))
    batch.add_argument("--scale", type=float, default=0.5)
    batch.add_argument("--queries", type=int, default=50)
    batch.add_argument("--keyword-size", type=int, default=6)
    batch.add_argument("-p", "--group-size", type=int, default=3)
    batch.add_argument("-k", "--tenuity", type=int, default=2)
    batch.add_argument("-n", "--top-n", type=int, default=3)
    batch.add_argument("--seed", type=int, default=0)
    batch.add_argument(
        "--algorithm",
        default="KTG-VKC-DEG-NLRNL",
        choices=sorted(ALGORITHMS),
    )
    batch.add_argument(
        "--passes",
        type=_positive_int,
        default=2,
        help="times to serve the same workload (pass 2+ exercises the cache)",
    )
    batch.add_argument(
        "--time-budget",
        type=_positive_float,
        default=None,
        help="per-query wall-clock budget in seconds (graceful degradation)",
    )
    batch.add_argument(
        "--node-budget",
        type=_positive_int,
        default=None,
        help="per-query search-node budget (graceful degradation)",
    )
    batch.add_argument(
        "--distance-engine",
        default="oracle",
        choices=["oracle", "bitset"],
        help="tenuity-check engine; 'bitset' reuses ball caches across queries",
    )

    serve = commands.add_parser(
        "serve", help="serve KTG queries over HTTP (asyncio front end)"
    )
    serve.add_argument("profile", choices=sorted(PROFILES))
    serve.add_argument("--scale", type=float, default=0.5)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765, help="listen port (0 = ephemeral)"
    )
    serve.add_argument(
        "--algorithm",
        default="KTG-VKC-DEG-NLRNL",
        choices=sorted(ALGORITHMS),
    )
    serve.add_argument(
        "--workers", type=_positive_int, default=4, help="solver threads"
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        help="per-client admitted requests/second (0 = unlimited)",
    )
    serve.add_argument(
        "--burst",
        type=float,
        default=0.0,
        help="per-client burst capacity (defaults to one second of rate)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="concurrent solve cap; beyond it requests get 503",
    )
    serve.add_argument(
        "--pressure-threshold",
        type=int,
        default=None,
        help=(
            "in-flight solves at which new solves degrade to "
            "--pressure-time-budget partial answers (default: disabled)"
        ),
    )
    serve.add_argument(
        "--pressure-time-budget",
        type=float,
        default=0.05,
        help="clamped per-solve budget (seconds) inside the pressure band",
    )
    serve.add_argument(
        "--time-budget",
        type=_positive_float,
        default=None,
        help="service-wide per-query wall-clock budget in seconds",
    )
    serve.add_argument(
        "--node-budget",
        type=_positive_int,
        default=None,
        help="service-wide per-query search-node budget",
    )
    serve.add_argument("--cache-capacity", type=int, default=1024)
    serve.add_argument(
        "--distance-engine",
        default="oracle",
        choices=["oracle", "bitset"],
        help="tenuity-check engine for served solves",
    )
    serve.add_argument(
        "--mutations",
        action="store_true",
        help=(
            "accept POST /mutate graph edits: each one waits for in-flight "
            "solves and repairs the index in place, without a restart"
        ),
    )
    serve.add_argument(
        "--graphs",
        default=None,
        metavar="PROFILES",
        help=(
            "enable multi-graph serving and preload these comma-separated "
            "dataset profiles as named tenants (e.g. 'brightkite,gowalla'; "
            "adds GET /graphs, POST /graphs/load, POST /graphs/drop and a "
            "'graph' field on /solve, /batch and /mutate)"
        ),
    )

    graphs = commands.add_parser(
        "graphs", help="manage a running server's graph registry over HTTP"
    )
    graphs_commands = graphs.add_subparsers(dest="graphs_command", required=True)
    for action in ("list", "load", "drop"):
        sub = graphs_commands.add_parser(
            action,
            help={
                "list": "list the server's registered graphs",
                "load": "load (or reload) a named graph from a dataset profile",
                "drop": "drop a named graph and release its resources",
            }[action],
        )
        sub.add_argument("--host", default="127.0.0.1")
        sub.add_argument("--port", type=int, default=8765)
        if action in ("load", "drop"):
            sub.add_argument("--name", required=True, help="registry name")
        if action == "load":
            sub.add_argument(
                "--profile", required=True, choices=sorted(PROFILES)
            )
            sub.add_argument("--scale", type=float, default=1.0)
            sub.add_argument("--seed", type=int, default=None)
            sub.add_argument(
                "--algorithm",
                default=None,
                choices=sorted(ALGORITHMS),
            )

    sweep = commands.add_parser("sweep", help="run a Table I parameter sweep")
    sweep.add_argument("profile", choices=sorted(PROFILES))
    sweep.add_argument("--parameter", required=True, choices=sorted(PARAMETER_TABLE))
    sweep.add_argument("--scale", type=float, default=0.5)
    sweep.add_argument("--queries", type=int, default=10)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--algorithms",
        default=None,
        help="comma-separated algorithm names (default: all)",
    )
    sweep.add_argument("--csv", default=None, help="also write rows to this CSV path")

    commands.add_parser("case-study", help="print the Figure 8 effectiveness comparison")

    index_stats = commands.add_parser(
        "index-stats", help="compare NL vs NLRNL footprints (Figure 9)"
    )
    index_stats.add_argument("profile", choices=sorted(PROFILES))
    index_stats.add_argument("--scale", type=float, default=0.5)
    index_stats.add_argument(
        "--all-oracles",
        action="store_true",
        help="also measure the BFS and PLL oracles",
    )

    stats = commands.add_parser(
        "stats",
        help=(
            "structural statistics of a dataset profile; with --keywords, "
            "run one instrumented solve and print its full instrument report"
        ),
    )
    stats.add_argument("profile", choices=sorted(PROFILES))
    stats.add_argument("--scale", type=float, default=0.5)
    stats.add_argument(
        "--keywords",
        default=None,
        help="comma-separated query keywords; switches to the solve report",
    )
    stats.add_argument("-p", "--group-size", type=int, default=3)
    stats.add_argument("-k", "--tenuity", type=int, default=2)
    stats.add_argument("-n", "--top-n", type=int, default=3)
    stats.add_argument(
        "--algorithm",
        default="KTG-VKC-DEG-NLRNL",
        choices=sorted(
            name for name, spec in ALGORITHMS.items() if not spec.diversified
        ),
    )
    stats.add_argument(
        "--distance-engine",
        default="oracle",
        choices=["oracle", "bitset"],
        help="tenuity-check engine for the instrumented solve",
    )
    stats.add_argument(
        "--churn",
        type=int,
        default=0,
        metavar="N",
        help=(
            "apply N random edge mutations through a mutable service "
            "interleaved with solves and print the serving metrics"
        ),
    )

    trace = commands.add_parser(
        "trace", help="render the Figure 2 search tree of the running example"
    )
    trace.add_argument(
        "--strategy",
        default="vkc",
        choices=["qkc", "vkc", "vkc-deg"],
    )
    trace.add_argument("--max-depth", type=int, default=None)

    repro_cmd = commands.add_parser(
        "reproduce", help="re-run a paper experiment and check its findings"
    )
    repro_cmd.add_argument("--experiment", required=True, choices=experiment_ids())
    repro_cmd.add_argument("--dataset", default="gowalla", choices=sorted(PROFILES))
    repro_cmd.add_argument("--scale", type=float, default=0.25)
    repro_cmd.add_argument("--queries", type=int, default=3)
    repro_cmd.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like a
        # well-behaved Unix tool.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command in ("query", "solve"):
        return _cmd_query(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "graphs":
        return _cmd_graphs(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "case-study":
        return _cmd_case_study()
    if args.command == "index-stats":
        return _cmd_index_stats(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "reproduce":
        return _cmd_reproduce(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def _cmd_datasets() -> int:
    rows = [
        {
            "name": profile.name,
            "paper_|V|": profile.paper_vertices,
            "paper_|E|": profile.paper_edges,
            "scaled_|V|": profile.scaled_vertices,
            "m": profile.edges_per_vertex,
            "description": profile.description,
        }
        for profile in PROFILES.values()
    ]
    print(render_table(rows, title="Built-in dataset profiles"))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    graph, _ = load_dataset(args.profile, scale=args.scale, seed=args.seed)
    write_graph(graph, args.edges, args.keywords)
    print(
        f"wrote {graph.num_vertices} vertices / {graph.num_edges} edges "
        f"to {args.edges} (+ keywords to {args.keywords})"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    graph, _ = load_dataset(args.profile, scale=args.scale)
    labels = tuple(label.strip() for label in args.keywords.split(",") if label.strip())
    spec = ALGORITHMS[args.algorithm]
    if spec.diversified:
        query: KTGQuery = DKTGQuery(
            keywords=labels,
            group_size=args.group_size,
            tenuity=args.tenuity,
            top_n=args.top_n,
            gamma=args.gamma,
        )
    else:
        query = KTGQuery(
            keywords=labels,
            group_size=args.group_size,
            tenuity=args.tenuity,
            top_n=args.top_n,
        )
    oracle = spec.build_oracle(graph)
    solver = spec.build_solver(graph, oracle, distance_engine=args.distance_engine)
    result = solver.solve(query)
    print(result)
    print(f"(latency: {result.stats.elapsed_seconds * 1000:.1f} ms)")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    import time as time_module

    from repro.service import QueryService
    from repro.workloads.generator import WorkloadGenerator

    graph, vocabulary = load_dataset(args.profile, scale=args.scale)
    generator = WorkloadGenerator(graph, vocabulary, dataset_name=args.profile)
    workload = generator.generate(
        count=args.queries,
        keyword_size=args.keyword_size,
        group_size=args.group_size,
        tenuity=args.tenuity,
        top_n=args.top_n,
        seed=args.seed,
    )
    with QueryService(
        graph,
        args.algorithm,
        time_budget=args.time_budget,
        node_budget=args.node_budget,
        distance_engine=args.distance_engine,
    ) as service:
        pass_rows = []
        for pass_number in range(1, args.passes + 1):
            started = time_module.perf_counter()
            served = service.run_batch(workload)
            wall_seconds = time_module.perf_counter() - started
            pass_rows.append(
                {
                    "pass": pass_number,
                    "queries": len(served),
                    "wall_s": round(wall_seconds, 3),
                    "qps": round(len(served) / wall_seconds, 1) if wall_seconds else 0.0,
                    "from_cache": sum(1 for outcome in served if outcome.from_cache),
                    "degraded": sum(1 for outcome in served if outcome.degraded),
                }
            )
        stats = service.stats()
        workers = service.batch_workers
    print(
        render_table(
            pass_rows,
            title=f"{args.profile}: {args.algorithm} batch serving "
            f"(batch_workers={workers})",
        )
    )
    print(render_table([stats.as_dict()], title="service metrics"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``ktg serve``: run the asyncio HTTP front end until interrupted."""
    import asyncio

    from repro.obs import InstrumentRegistry
    from repro.server import KTGServer
    from repro.service import QueryService

    graph, _ = load_dataset(args.profile, scale=args.scale)
    registry = InstrumentRegistry()
    service = QueryService(
        graph,
        args.algorithm,
        time_budget=args.time_budget,
        node_budget=args.node_budget,
        cache_capacity=args.cache_capacity,
        distance_engine=args.distance_engine,
        mutations=args.mutations,
        instruments=registry,
    )
    graph_registry = None
    if args.graphs is not None:
        from repro.service import GraphRegistry

        graph_registry = GraphRegistry(
            instruments=registry,
            algorithm=args.algorithm,
            time_budget=args.time_budget,
            node_budget=args.node_budget,
            cache_capacity=args.cache_capacity,
            distance_engine=args.distance_engine,
        )
        for profile in (p.strip() for p in args.graphs.split(",")):
            if not profile:
                continue
            entry = graph_registry.load(profile, profile, scale=args.scale)
            print(f"loaded graph {entry.graph_id} ({profile}, scale {args.scale})")
    server = KTGServer(
        service,
        registry=graph_registry,
        host=args.host,
        port=args.port,
        rate_limit_qps=args.rate_limit,
        rate_limit_burst=args.burst,
        max_inflight=args.max_inflight,
        pressure_threshold=args.pressure_threshold,
        pressure_time_budget=args.pressure_time_budget,
        solver_threads=args.workers,
        instruments=registry,
    )

    async def _serve() -> None:
        await server.start()
        host, port = server.address
        endpoints = "POST /solve, /batch; GET /stats, /healthz"
        if args.mutations:
            endpoints = "POST /solve, /batch, /mutate; GET /stats, /healthz"
        if args.graphs is not None:
            endpoints += "; GET /graphs, POST /graphs/load, /graphs/drop"
        print(
            f"serving {args.profile} ({args.algorithm}) "
            f"on http://{host}:{port} — {endpoints}"
        )
        try:
            await server.serve_forever()
        finally:
            # Runs inside the same event loop, so teardown can await
            # the live connection tasks before the loop closes.
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted — shutting down")
    finally:
        service.close()
        if graph_registry is not None:
            graph_registry.close()
    return 0


def _cmd_graphs(args: argparse.Namespace) -> int:
    """``ktg graphs list|load|drop``: drive a server's registry over HTTP."""
    from repro.server.client import http_request

    if args.graphs_command == "list":
        status, body = http_request(args.host, args.port, "GET", "/graphs")
        if status != 200 or body is None:
            print(f"error: GET /graphs answered {status}: {body}", file=sys.stderr)
            return 1
        rows = body.get("graphs", [])
        if not rows:
            print("no graphs registered")
            return 0
        print(render_table(rows, title=f"registered graphs ({body.get('count', len(rows))})"))
        return 0
    if args.graphs_command == "load":
        payload: dict = {"name": args.name, "profile": args.profile, "scale": args.scale}
        if args.seed is not None:
            payload["seed"] = args.seed
        if args.algorithm is not None:
            payload["algorithm"] = args.algorithm
        status, body = http_request(args.host, args.port, "POST", "/graphs/load", payload)
        if status != 200 or body is None:
            print(f"error: POST /graphs/load answered {status}: {body}", file=sys.stderr)
            return 1
        print(
            f"loaded {body['graph_id']}: {body['vertices']} vertices / "
            f"{body['edges']} edges ({body['algorithm']})"
        )
        return 0
    if args.graphs_command == "drop":
        status, body = http_request(
            args.host, args.port, "POST", "/graphs/drop", {"name": args.name}
        )
        if status != 200 or body is None:
            print(f"error: POST /graphs/drop answered {status}: {body}", file=sys.stderr)
            return 1
        print(f"dropped {args.name}")
        return 0
    raise AssertionError(f"unhandled graphs command {args.graphs_command!r}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    graph, vocabulary = load_dataset(args.profile, scale=args.scale)
    algorithms = (
        [name.strip() for name in args.algorithms.split(",")]
        if args.algorithms
        else None
    )
    result = run_parameter_sweep(
        graph,
        args.parameter,
        vocabulary=vocabulary,
        dataset_name=args.profile,
        algorithms=algorithms,
        queries_per_setting=args.queries,
        seed=args.seed,
    )
    series = {name: result.series(name) for name in result.algorithms()}
    print(
        render_series(
            series,
            x_label=args.parameter,
            title=f"{args.profile}: mean latency (ms) vs {args.parameter}",
        )
    )
    if args.csv:
        write_csv(result.rows(), args.csv)
        print(f"rows written to {args.csv}")
    return 0


def _cmd_case_study() -> int:
    outcome = run_case_study(case_study_graph(), case_study_query())
    print(render_case_study(outcome))
    return 0


def _cmd_index_stats(args: argparse.Namespace) -> int:
    graph, _ = load_dataset(args.profile, scale=args.scale)
    oracle_names = ("bfs", "nl", "nlrnl", "pll") if args.all_oracles else ("nl", "nlrnl")
    rows = [measure_footprint(graph, name).row() for name in oracle_names]
    print(render_table(rows, title=f"{args.profile}: index footprint (Figure 9)"))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph, vocabulary = load_dataset(args.profile, scale=args.scale)
    if args.churn:
        return _cmd_stats_churn(args, graph, vocabulary)
    if args.keywords:
        return _cmd_stats_solve(args, graph)
    statistics = compute_statistics(graph)
    print(
        render_table(
            [statistics.row()],
            title=f"{args.profile} (scale {args.scale}): structural statistics",
        )
    )
    fractions = ", ".join(
        f"k={k}: {fraction:.3f}"
        for k, fraction in enumerate(statistics.hop_ball_fractions, start=1)
    )
    print(f"hop-ball fractions: {fractions}")
    print()
    print(render_table([_footprint_row(graph)], title="graph memory footprint"))
    return 0


def _footprint_row(graph) -> dict:
    """Resident bytes of the graph's adjacency (``ktg stats``)."""
    adjacency_bytes = adjacency_footprint_bytes(graph)
    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "adjacency_bytes": adjacency_bytes,
        "bytes_per_edge": round(adjacency_bytes / graph.num_edges, 1)
        if graph.num_edges
        else "n/a",
    }


def _cmd_stats_churn(args: argparse.Namespace, graph, vocabulary) -> int:
    """``ktg stats <profile> --churn N``: serve under a mutation stream.

    Interleaves solves with N random edge flips through a
    ``mutations=True`` :class:`QueryService`, then prints the service
    metrics and how many incremental index repairs the mutations made —
    the quickest way to see in-place repair working end to end.
    """
    import random

    from repro.service import QueryService
    from repro.workloads.generator import WorkloadGenerator

    generator = WorkloadGenerator(graph, vocabulary, dataset_name=args.profile)
    workload = generator.generate(
        count=max(4, min(args.churn, 16)),
        keyword_size=4,
        group_size=args.group_size,
        tenuity=args.tenuity,
        top_n=args.top_n,
        seed=0,
    )
    rng = random.Random(0)
    with QueryService(
        graph,
        args.algorithm,
        mutations=True,
        distance_engine=args.distance_engine,
    ) as service:
        n = graph.num_vertices
        for step in range(args.churn):
            u, v = rng.sample(range(n), 2)
            if graph.has_edge(u, v):
                service.remove_edge(u, v)
            else:
                service.add_edge(u, v)
            service.submit(workload.queries[step % len(workload)])
        stats = service.stats()
        report = service.instrument_report()
    print(
        render_table(
            [stats.as_dict()],
            title=(
                f"{args.profile}: service metrics under {args.churn} mutations"
            ),
        )
    )
    print(f"incremental index repairs: {report['epoch']['repairs']}")
    return 0


def _cmd_stats_solve(args: argparse.Namespace, graph) -> int:
    """``ktg stats <profile> --keywords ...``: one instrumented solve."""
    from repro.obs import InstrumentingHooks, InstrumentRegistry
    from repro.obs.report import render_solve_report, solve_report

    labels = tuple(label.strip() for label in args.keywords.split(",") if label.strip())
    spec = ALGORITHMS[args.algorithm]
    query = KTGQuery(
        keywords=labels,
        group_size=args.group_size,
        tenuity=args.tenuity,
        top_n=args.top_n,
    )
    oracle = spec.build_oracle(graph)
    oracle.stats.reset_usage()
    registry = InstrumentRegistry()
    options: dict = {}
    if args.distance_engine == "bitset":
        # Build the kernel against the live registry so its
        # ``kernels.*`` counters land in the rendered report.
        from repro.kernels import BallBitsetEngine

        options["distance_engine"] = "bitset"
        options["kernel"] = BallBitsetEngine(oracle, instruments=registry)
    solver = spec.build_solver(graph, oracle, **options)
    result = solver.solve(query, hooks=InstrumentingHooks(registry))
    report = solve_report(result, oracle=oracle, instruments=registry)
    print(render_solve_report(report))
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    outcome = reproduce(
        args.experiment,
        dataset=args.dataset,
        scale=args.scale,
        queries=args.queries,
        seed=args.seed,
    )
    print(outcome.render())
    return 0 if outcome.all_held else 2


def _cmd_trace(args: argparse.Namespace) -> int:
    graph = figure1_example()
    solver = BranchAndBoundSolver(
        graph, strategy=strategy_by_name(args.strategy, graph)
    )
    result, trace = TracingSolver(solver).solve(figure1_query())
    print(trace.render(max_depth=args.max_depth))
    print()
    print(result)
    print(
        f"(nodes={trace.nodes}, pruned={trace.pruned}, accepted={trace.accepted})"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
