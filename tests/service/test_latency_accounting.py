"""Latency-accounting semantics: queue wait is serve latency.

The process path of ``run_batch`` used to stamp ``latency_ms`` with the
worker-side solve time alone, hiding pool queue wait from every serving
percentile.  These tests pin the fixed semantics with a deliberately
slow fake solver behind a single-worker pool: tasks queue behind each
other, so lookup-to-completion wall time must grow linearly while the
pure solve timer stays flat.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

import repro.service.service as service_module
from repro.core.query import KTGQuery
from repro.obs.instruments import InstrumentRegistry
from repro.service import QueryService
from tests.conftest import make_random_attributed_graph

SOLVE_S = 0.05


def fake_result():
    return SimpleNamespace(
        stats=SimpleNamespace(budget_exhausted=False), groups=()
    )


@pytest.fixture
def service_with_slow_workers(monkeypatch):
    """A service on two usable CPUs with no inline budget (so batches
    take the process path at once) whose pool is a 1-thread stand-in
    running a sleeping fake solve, so queue wait is deterministic."""
    monkeypatch.setattr(service_module, "usable_cpus", lambda: 2)
    monkeypatch.setattr(service_module, "POOL_AFTER_MS", 0.0)
    graph = make_random_attributed_graph(num_vertices=20, seed=3)
    registry = InstrumentRegistry()
    service = QueryService(
        graph, "KTG-VKC-NLRNL", cache_capacity=0, instruments=registry
    )
    stub_pool = ThreadPoolExecutor(max_workers=1)

    def slow_solve(query, time_budget, node_budget):
        time.sleep(SOLVE_S)
        return fake_result(), SOLVE_S * 1000.0

    # The batch path resolves both names at call time: the module
    # global does the solving and the bound pool getter hands out the
    # single-lane stand-in.
    monkeypatch.setattr(service_module, "_process_solve", slow_solve)
    monkeypatch.setattr(service, "_process_pool", lambda misses: stub_pool)
    try:
        yield service, registry, graph
    finally:
        stub_pool.shutdown(wait=True)
        service.close()


class TestQueueWaitAccounting:
    def test_serve_latency_includes_queue_wait(self, service_with_slow_workers):
        service, registry, graph = service_with_slow_workers
        labels = tuple(sorted(graph.keyword_table)[:3])
        queries = [
            KTGQuery(keywords=labels, group_size=2, tenuity=t, top_n=1)
            for t in (1, 2, 3)
        ]
        results = service.run_batch(queries)

        # The single-lane pool serializes the three 50ms solves, so the
        # three submission-to-completion latencies must be staircased:
        # roughly 1x, 2x and 3x the solve time.
        latencies = sorted(r.latency_ms for r in results)
        assert latencies[0] >= SOLVE_S * 1000.0 * 0.9
        assert latencies[1] >= SOLVE_S * 2 * 1000.0 * 0.9
        assert latencies[2] >= SOLVE_S * 3 * 1000.0 * 0.9

        # The pure solve timer keeps the worker-side cost: every
        # observation is the flat fake solve time, no queue wait.
        solve_timer = registry.timer("service.solve_ms")
        assert solve_timer.count == 3
        assert solve_timer.max_ms == pytest.approx(SOLVE_S * 1000.0)

        # The gap between the two *is* the queueing delay the client saw.
        serve_timer = registry.timer("service.serve_ms")
        assert serve_timer.total_ms > solve_timer.total_ms * 1.5

    def test_stats_percentiles_see_the_queue_wait(self, service_with_slow_workers):
        service, _, graph = service_with_slow_workers
        labels = tuple(sorted(graph.keyword_table)[:3])
        queries = [
            KTGQuery(keywords=labels, group_size=2, tenuity=t, top_n=1)
            for t in (1, 2, 3, 4)
        ]
        service.run_batch(queries)
        stats = service.stats()
        assert stats.queries_served == 4
        # Worst-case latency (last in the queue) is ~4 solves deep; the
        # old accounting would have reported ~SOLVE_S for every query.
        assert stats.p99_ms >= SOLVE_S * 3 * 1000.0 * 0.9
        assert stats.mean_ms >= SOLVE_S * 1000.0 * 1.2
