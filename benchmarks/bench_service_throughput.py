"""Service throughput — batch serving vs one-at-a-time solving.

The operational case for :mod:`repro.service`: a production deployment
answers *streams* of queries in which popular queries repeat (the
paper's motivating scenario — recurring event-organisation queries over
a slowly changing social graph).  On such a workload ``run_batch``
solves each distinct query once and serves its repeats from the LRU
result cache, so batch throughput must beat the naive solve-every-query
loop — a cache-off ``submit`` loop — by at least 2x.

Workload shape: a small set of distinct queries, each repeated several
times and interleaved — the classic Zipf-flavoured request mix, reduced
to its essence (uniform repeats) to keep the bench deterministic.  Its
six misses take a few milliseconds, inside the inline budget
(``POOL_AFTER_MS``), so the batch starts no process pool (``pooled``).

The cold batch is the other side of that choice: 100 distinct misses,
no repeats, a freshly built oracle, on gowalla at bench scale and on
twitter at full size (a shape of the batch-path table in CHANGES.md).
Once the batch has spent the inline budget, a service with more than
one usable CPU sends the rest to its process pool (``pooled``).  The
bench records the batch's speedup over the cache-off ``submit`` loop
and claims none: on a shared 2-vCPU host it read 0.71-1.43x (gowalla,
median 0.88x over 13 runs) and 0.85-1.71x (twitter, median 1.49x over
7 runs), losing whenever two busy workers each solved ~1.8x slower than
one process alone (CHANGES.md).
"""

from __future__ import annotations

import time

import pytest
from conftest import (
    BENCH_SCALE,
    bench_runner,
    bench_workload,
    check_claim,
    register_bench_meta,
)

register_bench_meta("service_throughput", title="batch serving vs sequential solving")
from repro.service import QueryService
from repro.workloads.runner import ALGORITHMS

ALGORITHM = "KTG-VKC-DEG-NLRNL"
DISTINCT_QUERIES = 6
REPEATS = 5
COLD_QUERIES = 100


def _repeated_workload():
    distinct = list(
        bench_workload("brightkite", count=DISTINCT_QUERIES, keyword_size=4)
    )
    # Interleave rather than concatenate so cache hits are spread across
    # the batch instead of clustered at the tail.
    return distinct * REPEATS


def test_service_throughput_vs_sequential(benchmark):
    runner = bench_runner("brightkite")
    oracle = runner.oracle_for(ALGORITHMS[ALGORITHM])  # build outside timing
    workload = _repeated_workload()

    def baseline():
        # Cache off, one query at a time: the pre-service execution model.
        with QueryService(
            runner.graph, ALGORITHM, oracle=oracle, cache_capacity=0
        ) as service:
            return [service.submit(query) for query in workload]

    def served():
        with QueryService(runner.graph, ALGORITHM, oracle=oracle) as service:
            results = service.run_batch(workload)
            return results, service.stats(), service.batch_workers

    start = time.perf_counter()
    sequential = baseline()
    baseline_seconds = time.perf_counter() - start

    (results, stats, workers) = benchmark.pedantic(served, rounds=1, iterations=1)

    # Exactness under batching: identical member sets, query for query.
    assert [r.member_sets() for r in results] == [
        r.member_sets() for r in sequential
    ]

    wall = benchmark.stats.stats.mean
    speedup = baseline_seconds / wall if wall else float("inf")
    benchmark.extra_info["baseline_seconds"] = round(baseline_seconds, 4)
    benchmark.extra_info["speedup_vs_sequential"] = round(speedup, 2)
    benchmark.extra_info["cache_hit_rate"] = round(stats.cache_hit_rate, 3)
    benchmark.extra_info["queries_served"] = stats.queries_served
    benchmark.extra_info["pooled"] = workers > 1

    # The acceptance bar: >=2x throughput on a repeated-query workload.
    # Soft under --smoke: at smoke scale, per-query work is too small for
    # pool/cache amortisation to dominate dispatch overhead.
    check_claim(speedup >= 2.0, f"service speedup {speedup:.2f}x < 2x")
    assert stats.cache_hits > 0


@pytest.mark.parametrize(
    "dataset, scale", [("gowalla", BENCH_SCALE), ("twitter", 1.0)], ids=["gowalla", "twitter"]
)
def test_cold_batch_vs_submit_loop(benchmark, dataset, scale):
    """Distinct misses only: past the inline budget they go to processes."""
    runner = bench_runner(dataset, scale)
    workload = list(
        bench_workload(dataset, scale, count=COLD_QUERIES, smoke_count=10, keyword_size=4)
    )
    # Each side gets a freshly built oracle (built outside timing), as a
    # first batch after loading a graph does: cold cache, cold oracle.
    spec = ALGORITHMS[ALGORITHM]
    baseline_oracle, served_oracle = (spec.build_oracle(runner.graph) for _ in range(2))

    def baseline():
        with QueryService(
            runner.graph, ALGORITHM, oracle=baseline_oracle, cache_capacity=0
        ) as service:
            return [service.submit(query) for query in workload]

    def served():
        # A fresh service, so the pool's start is timed too.
        with QueryService(runner.graph, ALGORITHM, oracle=served_oracle) as service:
            return service.run_batch(workload), service.batch_workers

    start = time.perf_counter()
    sequential = baseline()
    baseline_seconds = time.perf_counter() - start

    (results, workers) = benchmark.pedantic(served, rounds=1, iterations=1)

    assert [r.member_sets() for r in results] == [
        r.member_sets() for r in sequential
    ]
    assert not any(r.from_cache for r in results)

    wall = benchmark.stats.stats.mean
    speedup = baseline_seconds / wall if wall else float("inf")
    benchmark.extra_info["baseline_seconds"] = round(baseline_seconds, 4)
    benchmark.extra_info["speedup_vs_sequential"] = round(speedup, 2)
    benchmark.extra_info["queries_served"] = len(results)
    # Which path ran depends on the host's CPUs and speed: recorded as a
    # flag, which the baseline diff does not compare.
    benchmark.extra_info["pooled"] = workers > 1


def test_second_pass_is_cache_resident(benchmark):
    """A second identical batch through a warm service is ~all cache hits."""
    runner = bench_runner("brightkite")
    oracle = runner.oracle_for(ALGORITHMS[ALGORITHM])
    workload = list(bench_workload("brightkite", count=DISTINCT_QUERIES, keyword_size=4))

    service = QueryService(runner.graph, ALGORITHM, oracle=oracle)
    with service:
        service.run_batch(workload)  # warm pass, untimed
        results = benchmark.pedantic(
            lambda: service.run_batch(workload), rounds=1, iterations=1
        )
        stats = service.stats()

    assert all(r.from_cache for r in results)
    assert stats.cache_hit_rate > 0
    benchmark.extra_info["cache_hit_rate"] = round(stats.cache_hit_rate, 3)
    benchmark.extra_info["second_pass_hits"] = sum(r.from_cache for r in results)
