"""Churn latency — query p50/p95 while edges stream into the graph.

The operational claim behind the mutation gate
(:mod:`repro.core.epoch`): a serving deployment should not have to
choose between answering queries and accepting graph mutations.  Each
edit waits for in-flight solves and repairs the index incrementally,
so query latency under a mutation stream must stay within a small
constant of the no-churn latency, with zero failed requests.

Two phases over identical fresh-graph copies and the same workload:

* **no-churn** — a read-only :class:`QueryService` over a prebuilt
  oracle serves the workload;
* **churn** — a ``mutations=True`` service over a prebuilt oracle
  serves the same workload while a deterministic stream of edge flips
  lands between queries, so every flip is an incremental repair.

Acceptance: churn p95 <= 2x no-churn p95 (soft under ``--smoke``),
zero failed requests, repairs > 0.  Caching is disabled in both phases
so every latency sample is a real solve.
"""

from __future__ import annotations

import random

from conftest import bench_dataset, bench_workload, check_claim, register_bench_meta

register_bench_meta("churn_latency", title="query latency under streaming mutations")
from repro.core.graph import AttributedGraph
from repro.service import QueryService
from repro.workloads.runner import ALGORITHMS

ALGORITHM = "KTG-VKC-DEG-NLRNL"
QUERIES = 18
#: Edge flips applied between consecutive queries in the churn phase.
MUTATIONS_PER_QUERY = 4


def _fresh_graph():
    """A private mutable copy of the bench dataset's graph.

    The churn phase mutates its graph in place; the session-cached
    dataset must stay pristine for every other bench in the run.
    """
    graph, _ = bench_dataset("brightkite")
    return AttributedGraph(
        graph.num_vertices,
        graph.edges(),
        keywords={v: graph.keyword_labels(v) for v in range(graph.num_vertices)},
    )


def _serve_all(service, workload):
    failures = 0
    for query in workload:
        try:
            service.submit(query)
        except Exception:
            failures += 1
    return failures


def _mutation_stream(seed: int):
    return random.Random(seed)


def test_latency_under_streaming_edges(benchmark):
    workload = list(bench_workload("brightkite", count=QUERIES, keyword_size=4))

    # Phase 1 (untimed): the no-churn baseline percentiles.  Both phases
    # build their oracle before the first query, so no latency sample
    # includes an index build.
    quiet_graph = _fresh_graph()
    with QueryService(
        quiet_graph,
        ALGORITHM,
        oracle=ALGORITHMS[ALGORITHM].build_oracle(quiet_graph),
        cache_capacity=0,
    ) as quiet_service:
        quiet_failures = _serve_all(quiet_service, workload)
        quiet_stats = quiet_service.stats()

    # Phase 2 (timed): the same workload with edge flips streaming in.
    def churn_pass():
        graph = _fresh_graph()
        rng = _mutation_stream(seed=0)
        n = graph.num_vertices
        failures = 0
        # Built up front, so the flips before the first query (all of
        # them under --smoke, which keeps one query) are repairs too.
        oracle = ALGORITHMS[ALGORITHM].build_oracle(graph)
        with QueryService(
            graph,
            ALGORITHM,
            oracle=oracle,
            cache_capacity=0,
            mutations=True,
        ) as service:
            for query in workload:
                for _ in range(MUTATIONS_PER_QUERY):
                    u, v = rng.sample(range(n), 2)
                    try:
                        if graph.has_edge(u, v):
                            service.remove_edge(u, v)
                        else:
                            service.add_edge(u, v)
                    except Exception:
                        failures += 1
                try:
                    service.submit(query)
                except Exception:
                    failures += 1
            return failures, service.stats(), service.instrument_report()["epoch"]

    failures, churn_stats, epoch_report = benchmark.pedantic(
        churn_pass, rounds=1, iterations=1
    )

    benchmark.extra_info["queries"] = len(workload)
    benchmark.extra_info["mutations"] = len(workload) * MUTATIONS_PER_QUERY
    benchmark.extra_info["quiet_p50_ms"] = round(quiet_stats.p50_ms, 3)
    benchmark.extra_info["quiet_p95_ms"] = round(quiet_stats.p95_ms, 3)
    benchmark.extra_info["churn_p50_ms"] = round(churn_stats.p50_ms, 3)
    benchmark.extra_info["churn_p95_ms"] = round(churn_stats.p95_ms, 3)
    benchmark.extra_info["repairs"] = epoch_report["repairs"]
    benchmark.extra_info["failed_requests"] = failures + quiet_failures

    # Hard guarantees: the mutation stream can never fail a request, and
    # with the oracle built every flip repaired it in place.
    assert failures == 0 and quiet_failures == 0
    assert epoch_report["repairs"] > 0, epoch_report

    # The latency claim (soft under --smoke, where tiny solves make the
    # percentiles noise-dominated): streaming mutations cost at most 2x
    # on tail latency.
    ratio = (
        churn_stats.p95_ms / quiet_stats.p95_ms if quiet_stats.p95_ms else 1.0
    )
    benchmark.extra_info["p95_ratio"] = round(ratio, 2)
    check_claim(
        ratio <= 2.0,
        f"churn p95 {churn_stats.p95_ms:.3f}ms > 2x quiet p95 "
        f"{quiet_stats.p95_ms:.3f}ms",
    )


def test_incremental_repair_beats_rebuild_serving(benchmark):
    """Gated mutation apply must beat mutate-and-rebuild serving.

    The alternative to incremental repair is what a read-only service
    does implicitly: any graph edit invalidates the oracle and the next
    query pays a full index rebuild.  This measures the same
    mutate+query loop both ways; the repair path must not be slower.
    (It is usually several times faster — the assertion is lenient
    because at smoke scale both are microseconds.)
    """
    import time

    workload = list(bench_workload("brightkite", count=6, keyword_size=4))
    flips = [(i, i + 1) for i in range(0, 12, 2)]

    def rebuild_pass():
        graph = _fresh_graph()
        with QueryService(graph, ALGORITHM, cache_capacity=0) as service:
            for (u, v), query in zip(flips, workload):
                if graph.has_edge(u, v):
                    graph.remove_edge(u, v)
                else:
                    graph.add_edge(u, v)
                # is_stale() trips: the oracle is rebuilt from scratch.
                service.submit(query)

    def repair_pass():
        graph = _fresh_graph()
        with QueryService(
            graph,
            ALGORITHM,
            cache_capacity=0,
            mutations=True,
        ) as service:
            for (u, v), query in zip(flips, workload):
                if graph.has_edge(u, v):
                    service.remove_edge(u, v)
                else:
                    service.add_edge(u, v)
                service.submit(query)

    start = time.perf_counter()
    rebuild_pass()
    rebuild_seconds = time.perf_counter() - start

    benchmark.pedantic(repair_pass, rounds=1, iterations=1)
    repair_seconds = benchmark.stats.stats.mean

    speedup = rebuild_seconds / repair_seconds if repair_seconds else float("inf")
    benchmark.extra_info["rebuild_seconds"] = round(rebuild_seconds, 4)
    benchmark.extra_info["speedup_vs_rebuild"] = round(speedup, 2)
    check_claim(
        speedup >= 1.0,
        f"repair serving {repair_seconds:.4f}s slower than rebuild "
        f"{rebuild_seconds:.4f}s",
    )
