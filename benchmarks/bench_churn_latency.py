"""Churn latency — query p50/p95 while edges stream into the graph.

The operational claim behind the mutation gate
(:mod:`repro.core.epoch`): a serving deployment should not have to
choose between answering queries and accepting graph mutations.  Each
edit waits for in-flight solves and repairs the index incrementally,
so query latency under a mutation stream must stay within a small
constant of the no-churn latency, with zero failed requests.

Two arms over identical fresh-graph copies and the same workload,
interleaved query by query in each pass:

* **no-churn** — a read-only :class:`QueryService` over a prebuilt
  oracle serves the workload;
* **churn** — a ``mutations=True`` service over a prebuilt oracle
  serves the same workload while a deterministic stream of edge flips
  lands between queries, so every flip is an incremental repair.

Acceptance: churn p95 <= 2x no-churn p95 (soft under ``--smoke``),
zero failed requests, repairs > 0.  Caching is disabled in both arms
so every latency sample is a real solve.  ``bench-regression`` diffs
the recorded ``p95_ratio`` against its baseline at +/-25%, so under
``--smoke`` the bench keeps all ``QUERIES`` queries per arm, serves
the arms back to back and records the median of ``ROUNDS`` passes.
Reruns of one tree read 0.68-1.84 with one query per arm and one
pass, and 0.79-1.64 with 18 queries per arm served one arm after the
other (the host's speed moved between the arms); with all three
measures they read 0.93-1.15 (31 reruns on a 2-vCPU Linux host, 11 of
them inside full smoke runs).
"""

from __future__ import annotations

import random
from statistics import median

from conftest import bench_dataset, bench_workload, check_claim, register_bench_meta

register_bench_meta("churn_latency", title="query latency under streaming mutations")
from repro.core.graph import AttributedGraph
from repro.service import QueryService
from repro.workloads.runner import ALGORITHMS

ALGORITHM = "KTG-VKC-DEG-NLRNL"
QUERIES = 18
#: Edge flips applied between consecutive queries in the churn arm.
MUTATIONS_PER_QUERY = 4
#: Identical passes; each recorded percentile and ratio is their median.
ROUNDS = 3


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
    workload = list(
        bench_workload(
            "brightkite", count=QUERIES, smoke_count=QUERIES, keyword_size=4
        )
    )

    # Each timed pass serves both arms, query by query: the quiet arm and
    # then the churn arm solve each query back to back, so a change of
    # host speed during the pass moves both percentiles alike (run one
    # arm after the other and the ratio tracks the host, not the flips).
    def interleaved_pass():
        quiet_graph, graph = _fresh_graph(), _fresh_graph()
        rng = _mutation_stream(seed=0)
        n = graph.num_vertices
        failures = quiet_failures = 0
        # Both oracles are built up front, so no latency sample includes
        # an index build and the flips before the first query are
        # repairs too.
        with QueryService(
            quiet_graph,
            ALGORITHM,
            oracle=ALGORITHMS[ALGORITHM].build_oracle(quiet_graph),
            cache_capacity=0,
        ) as quiet_service, QueryService(
            graph,
            ALGORITHM,
            oracle=ALGORITHMS[ALGORITHM].build_oracle(graph),
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
                quiet_failures += _serve_all(quiet_service, [query])
                failures += _serve_all(service, [query])
            return (
                failures,
                quiet_failures,
                quiet_service.stats(),
                service.stats(),
                service.instrument_report()["epoch"],
            )

    passes = []
    benchmark.pedantic(
        lambda: passes.append(interleaved_pass()), rounds=ROUNDS, iterations=1
    )
    failures = sum(p[0] for p in passes)
    quiet_failures = sum(p[1] for p in passes)
    quiet_p95_ms = median(p[2].p95_ms for p in passes)
    churn_p95_ms = median(p[3].p95_ms for p in passes)
    repairs = min(p[4]["repairs"] for p in passes)

    benchmark.extra_info["queries"] = len(workload)
    benchmark.extra_info["mutations"] = len(workload) * MUTATIONS_PER_QUERY
    benchmark.extra_info["quiet_p50_ms"] = round(median(p[2].p50_ms for p in passes), 3)
    benchmark.extra_info["quiet_p95_ms"] = round(quiet_p95_ms, 3)
    benchmark.extra_info["churn_p50_ms"] = round(median(p[3].p50_ms for p in passes), 3)
    benchmark.extra_info["churn_p95_ms"] = round(churn_p95_ms, 3)
    benchmark.extra_info["repairs"] = repairs
    benchmark.extra_info["failed_requests"] = failures + quiet_failures

    # Hard guarantees: the mutation stream can never fail a request, and
    # with the oracle built every flip repaired it in place.
    assert failures == 0 and quiet_failures == 0
    assert repairs > 0, passes[-1][4]

    # The latency claim (soft under --smoke, where tiny solves make the
    # percentiles noise-dominated): streaming mutations cost at most 2x
    # on tail latency.  Each pass's p95 is its one or two slowest
    # solves, so a host stall in one pass moves its ratio; the median
    # pass does not see it.
    ratio = median(
        p[3].p95_ms / p[2].p95_ms if p[2].p95_ms else 1.0 for p in passes
    )
    benchmark.extra_info["p95_ratio"] = round(ratio, 2)
    check_claim(
        ratio <= 2.0,
        f"churn p95 {churn_p95_ms:.3f}ms > 2x quiet p95 {quiet_p95_ms:.3f}ms",
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
