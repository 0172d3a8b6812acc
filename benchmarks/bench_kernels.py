"""Ball-bitset kernels — mask filtering vs the per-candidate oracle path.

The dense smoke config throughout: the fig7 Twitter profile (the
paper's densest graph) at its fig7 scale, social constraint ``k = 2``.

The engine's headline claim targets the primitive it replaces: k-line
filtering a candidate pool against one member.  A warm
:class:`~repro.kernels.BallBitsetEngine` answers that with one big-int
``AND`` plus a popcount, while the oracle path walks the candidate
list probing per vertex — O(words) vs O(candidates).  End-to-end solve
latency improves by a smaller factor (ordering, pruning and node
bookkeeping are engine-independent and dominate the remainder), so the
solve pair records its speedup without a hard claim while asserting
the results are bit-identical.

Three views, one config:

* ``filter``  — the filtering primitive, oracle vs bitset (>= 3x claim);
* ``solve``   — end-to-end branch and bound, bit-identical top-N;
* ``service`` — a :class:`QueryService` ``submit`` loop over a
  repeated-k workload (result cache off, so ball reuse across queries
  is what is measured; ``submit`` keeps every solve on the service's
  one kernel, where a batch could move them to worker processes).
"""

from __future__ import annotations

import time

from conftest import bench_runner, bench_workload, check_claim, register_bench_meta

register_bench_meta(
    "kernels",
    title="ball-bitset engine vs oracle path (dense Twitter, k=2)",
)

from repro.core.coverage import CoverageContext
from repro.kernels import BallBitsetEngine
from repro.service import QueryService
from repro.workloads.runner import ALGORITHMS

DENSE_SCALE = 0.35
#: KTG-VKC-NL: the fig7b algorithm whose oracle pays a per-filter level
#: union — the cost profile the kernel's cached balls amortise.
ALGORITHM = "KTG-VKC-NL"
K = 2

#: Repeated-k service mix: distinct queries sharing one tenuity, so a
#: resident kernel reuses balls across queries the result cache cannot.
DISTINCT_QUERIES = 4
REPEATS = 3


def _workload_settings() -> dict:
    return dict(keyword_size=6, group_size=4, tenuity=K, top_n=3)


def _queries() -> tuple:
    return tuple(bench_workload("twitter", DENSE_SCALE, **_workload_settings()))


def _spec_and_oracle():
    runner = bench_runner("twitter", DENSE_SCALE)
    spec = ALGORITHMS[ALGORITHM]
    return runner, spec, runner.oracle_for(spec)


# ----------------------------------------------------------------------
# Shared references (measured once, reused by every test in the module)
# ----------------------------------------------------------------------
_filter_reference: dict[tuple, tuple[float, int]] = {}
_solve_reference: dict[tuple, tuple[float, list]] = {}
_service_reference: dict[tuple, tuple[float, list]] = {}


def _pools() -> list[list[int]]:
    """Qualified candidate pools (vertices covering >= 1 query keyword),
    one per workload query — what the solver's root level filters."""
    runner, _, _ = _spec_and_oracle()
    pools = []
    for query in _queries():
        masks = CoverageContext(runner.graph, query.keywords).masks
        pools.append([v for v in range(runner.graph.num_vertices) if masks[v]])
    return pools


def _oracle_filter_sweep(oracle, pools) -> None:
    for pool in pools:
        filter_candidates = oracle.filter_candidates
        for member in pool:
            filter_candidates(pool, member, K)


def _filter_baseline(oracle, pools) -> tuple[float, int]:
    """Warm oracle sweep wall-clock and total filter count (cached)."""
    key = (id(oracle), sum(map(len, pools)))
    if key not in _filter_reference:
        _oracle_filter_sweep(oracle, pools)  # warm (NL level memo, BFS resume)
        started = time.perf_counter()
        _oracle_filter_sweep(oracle, pools)
        elapsed = time.perf_counter() - started
        _filter_reference[key] = (elapsed, sum(len(p) for p in pools))
    return _filter_reference[key]


def _solve_baseline(runner, spec, oracle) -> tuple[float, list]:
    """Warm oracle-path solve wall-clock and ranked groups (cached)."""
    key = (id(oracle), tuple(q.keywords for q in _queries()))
    if key not in _solve_reference:
        solver = spec.build_solver(runner.graph, oracle)
        queries = _queries()
        groups = [solver.solve(query).groups for query in queries]  # warm
        started = time.perf_counter()
        groups = [solver.solve(query).groups for query in queries]
        _solve_reference[key] = (time.perf_counter() - started, groups)
    return _solve_reference[key]


def _service_workload() -> list:
    distinct = list(
        bench_workload(
            "twitter", DENSE_SCALE, count=DISTINCT_QUERIES, **_workload_settings()
        )
    )
    # Interleave repeats so kernel reuse is spread across the batch.
    return distinct * REPEATS


def serve_in_process(service, workload) -> list:
    """A ``submit`` loop: every solve runs here, on the service's kernel."""
    return [service.submit(query) for query in workload]


def _service_baseline(runner, oracle) -> tuple[float, list]:
    """Oracle-engine service batch wall-clock and member sets (cached)."""
    workload = _service_workload()
    key = (id(oracle), len(workload))
    if key not in _service_reference:
        with QueryService(
            runner.graph, ALGORITHM, oracle=oracle, cache_capacity=0
        ) as service:
            serve_in_process(service, workload)  # warm
            started = time.perf_counter()
            results = serve_in_process(service, workload)
            elapsed = time.perf_counter() - started
        _service_reference[key] = (elapsed, [r.member_sets() for r in results])
    return _service_reference[key]


# ----------------------------------------------------------------------
# Filter primitive
# ----------------------------------------------------------------------
def test_kernels_filter_oracle(benchmark):
    _, _, oracle = _spec_and_oracle()
    pools = _pools()
    _oracle_filter_sweep(oracle, pools)  # warm outside timing

    benchmark.pedantic(
        lambda: _oracle_filter_sweep(oracle, pools), rounds=1, iterations=1
    )
    benchmark.extra_info["filters"] = sum(len(p) for p in pools)
    benchmark.extra_info["pool_sizes"] = [len(p) for p in pools]


def test_kernels_filter_bitset(benchmark):
    _, _, oracle = _spec_and_oracle()
    pools = _pools()
    kernel = BallBitsetEngine(oracle)
    encoded = [(pool, kernel.encode(pool)) for pool in pools]

    def sweep():
        for pool, pool_mask in encoded:
            filter_mask = kernel.filter_mask
            for member in pool:
                filter_mask(pool_mask, member, K).bit_count()

    # Bit-identical semantics, checked outside the timed region: the
    # surviving mask decodes to exactly the oracle's filtered list.
    for pool, pool_mask in encoded:
        for member in pool:
            assert kernel.decode(kernel.filter_mask(pool_mask, member, K)) == set(
                oracle.filter_candidates(pool, member, K)
            )

    oracle_seconds, filters = _filter_baseline(oracle, pools)
    benchmark.pedantic(sweep, rounds=1, iterations=1)

    mean_s = benchmark.stats.stats.mean
    speedup = oracle_seconds / mean_s if mean_s > 0 else float("inf")
    benchmark.extra_info["filters"] = filters
    benchmark.extra_info["oracle_ms"] = round(oracle_seconds * 1000.0, 3)
    benchmark.extra_info["speedup_vs_oracle"] = round(speedup, 2)
    benchmark.extra_info["ball_builds"] = kernel.ball_builds
    benchmark.extra_info["ball_evictions"] = kernel.ball_evictions

    # The acceptance bar: the warm engine beats the oracle path's
    # filtering >= 3x on the dense k=2 config.  Soft under --smoke
    # (tiny pools leave mostly per-call overhead on both sides).
    check_claim(
        speedup >= 3.0,
        f"bitset filter speedup {speedup:.2f}x < 3x over {ALGORITHM} oracle",
    )


# ----------------------------------------------------------------------
# End-to-end solve
# ----------------------------------------------------------------------
def test_kernels_solve_oracle(benchmark):
    runner, spec, oracle = _spec_and_oracle()
    solver = spec.build_solver(runner.graph, oracle)
    queries = _queries()
    _, reference_groups = _solve_baseline(runner, spec, oracle)  # warms

    results = benchmark.pedantic(
        lambda: [solver.solve(query) for query in queries], rounds=1, iterations=1
    )
    assert [r.groups for r in results] == reference_groups
    benchmark.extra_info["queries"] = len(queries)
    benchmark.extra_info["nodes_expanded"] = sum(
        r.stats.nodes_expanded for r in results
    )


def test_kernels_solve_bitset(benchmark):
    runner, spec, oracle = _spec_and_oracle()
    kernel = BallBitsetEngine(oracle)
    solver = spec.build_solver(
        runner.graph, oracle, distance_engine="bitset", kernel=kernel
    )
    queries = _queries()
    oracle_seconds, reference_groups = _solve_baseline(runner, spec, oracle)

    [solver.solve(query) for query in queries]  # warm the ball cache
    results = benchmark.pedantic(
        lambda: [solver.solve(query) for query in queries], rounds=1, iterations=1
    )

    # Bit-identical top-N: exact groups in exact order, oracle vs bitset.
    assert [r.groups for r in results] == reference_groups

    mean_s = benchmark.stats.stats.mean
    speedup = oracle_seconds / mean_s if mean_s > 0 else float("inf")
    benchmark.extra_info["oracle_ms"] = round(oracle_seconds * 1000.0, 3)
    benchmark.extra_info["speedup_vs_oracle"] = round(speedup, 2)
    benchmark.extra_info["mask_filters"] = kernel.mask_filters
    benchmark.extra_info["ball_builds"] = kernel.ball_builds
    benchmark.extra_info["ball_hits"] = kernel.ball_hits
    # No hard factor here: solve latency includes ordering/pruning work
    # the engine does not touch.  The exactness assert above is the bar.
    check_claim(
        speedup >= 1.0,
        f"bitset solve slower than oracle path ({speedup:.2f}x)",
    )


# ----------------------------------------------------------------------
# Service batch over a repeated-k workload
# ----------------------------------------------------------------------
def test_kernels_service_repeat_oracle(benchmark):
    runner, _, oracle = _spec_and_oracle()
    workload = _service_workload()
    _, reference_sets = _service_baseline(runner, oracle)  # warms

    with QueryService(
        runner.graph, ALGORITHM, oracle=oracle, cache_capacity=0
    ) as service:
        serve_in_process(service, workload)  # warm
        results = benchmark.pedantic(
            lambda: serve_in_process(service, workload),
            rounds=1,
            iterations=1,
        )
    assert [r.member_sets() for r in results] == reference_sets
    benchmark.extra_info["batch_size"] = len(workload)


def test_kernels_service_repeat_bitset(benchmark):
    runner, _, oracle = _spec_and_oracle()
    workload = _service_workload()
    oracle_seconds, reference_sets = _service_baseline(runner, oracle)

    with QueryService(
        runner.graph,
        ALGORITHM,
        oracle=oracle,
        cache_capacity=0,
        distance_engine="bitset",
    ) as service:
        serve_in_process(service, workload)  # warm the ball cache
        results = benchmark.pedantic(
            lambda: serve_in_process(service, workload),
            rounds=1,
            iterations=1,
        )
        report = service.instrument_report()

    assert [r.member_sets() for r in results] == reference_sets

    mean_s = benchmark.stats.stats.mean
    speedup = oracle_seconds / mean_s if mean_s > 0 else float("inf")
    throughput = len(workload) / mean_s if mean_s > 0 else float("inf")
    benchmark.extra_info["batch_size"] = len(workload)
    benchmark.extra_info["oracle_batch_ms"] = round(oracle_seconds * 1000.0, 3)
    benchmark.extra_info["speedup_vs_oracle"] = round(speedup, 2)
    benchmark.extra_info["speedup_qps"] = round(throughput, 1)
    benchmark.extra_info["kernel_balls_cached"] = report["kernel"]["balls_cached"]
    benchmark.extra_info["kernel_ball_builds"] = report["kernel"]["ball_builds"]

    # Repeated-k batches must not regress: ball reuse pays for the
    # engine's overhead and then some.
    check_claim(
        speedup >= 1.1,
        f"service repeated-k batch speedup {speedup:.2f}x < 1.1x",
    )
