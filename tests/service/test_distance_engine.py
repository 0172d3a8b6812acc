"""QueryService ``distance_engine="bitset"``: equivalence and reuse."""

import pytest

import repro.service.service as service_module
from repro.core.query import KTGQuery
from repro.service import QueryService
from tests.conftest import make_random_attributed_graph, run_threads


@pytest.fixture(scope="module")
def graph():
    return make_random_attributed_graph(num_vertices=40, seed=5)


@pytest.fixture(scope="module")
def queries(graph):
    labels = sorted(graph.keyword_table)
    return [
        KTGQuery(keywords=tuple(labels[i : i + 3]), group_size=3, tenuity=2, top_n=n)
        for i, n in [(0, 3), (2, 2), (4, 3), (0, 1)]
    ]


def serve_all(service, queries):
    """Member sets of a ``submit`` loop over *queries*."""
    with service:
        return [service.submit(query).member_sets() for query in queries]


class TestValidation:
    def test_bad_engine_rejected(self, graph):
        with pytest.raises(ValueError, match="distance_engine"):
            QueryService(graph, distance_engine="quantum")


class TestEquivalence:
    def test_serial_identical_to_oracle(self, graph, queries):
        base = serve_all(QueryService(graph, cache_capacity=0), queries)
        fast = serve_all(
            QueryService(graph, cache_capacity=0, distance_engine="bitset"),
            queries,
        )
        assert fast == base

    def test_thread_batch_identical(self, graph, queries):
        # Four threads submit the batch at once through one shared ball
        # kernel, as the server's solver threads do.
        base = serve_all(QueryService(graph, cache_capacity=0), queries)
        answers = []
        with QueryService(
            graph, cache_capacity=0, distance_engine="bitset"
        ) as service:

            def client(worker):
                answers.append([service.submit(q).member_sets() for q in queries])

            run_threads(4, client)
        assert answers == [base] * 4


class TestKernelReuse:
    def test_ball_cache_survives_across_queries(self, graph, queries):
        """The second same-k query reuses balls built by the first."""
        with QueryService(
            graph, cache_capacity=0, distance_engine="bitset"
        ) as service:
            service.submit(queries[0])
            kernel = service._kernel
            assert kernel is not None
            builds_after_first = kernel.ball_builds
            assert builds_after_first > 0
            service.submit(queries[0])
            assert kernel.ball_builds == builds_after_first
            assert kernel.ball_hits > 0
            # The kernel object itself persists (no rebuild per query).
            assert service._kernel is kernel

    def test_kernel_retired_with_oracle_on_mutation(self, graph, queries):
        with QueryService(
            graph, cache_capacity=0, distance_engine="bitset"
        ) as service:
            service.submit(queries[0])
            stale = service._kernel
            other = next(
                v
                for v in range(1, graph.num_vertices)
                if v not in graph.neighbors(0)
            )
            service.graph.add_edge(0, other)
            try:
                service.submit(queries[0])
                assert service._kernel is not stale
                assert service._kernel.oracle is service._oracle
            finally:
                service.graph.remove_edge(0, other)

    def test_instrument_report_includes_kernel(self, graph, queries):
        with QueryService(
            graph, cache_capacity=0, distance_engine="bitset"
        ) as service:
            service.submit(queries[0])
            report = service.instrument_report()
        kernel = report["kernel"]
        assert kernel["ball_builds"] > 0
        assert kernel["balls_cached"] > 0
        assert set(kernel) == {
            "balls_cached",
            "backend",
            "ball_builds",
            "ball_hits",
            "ball_evictions",
            "mask_filters",
            "vec_sweeps",
        }
        assert kernel["backend"] in ("numpy", "python")

    def test_oracle_mode_reports_no_kernel(self, graph, queries):
        with QueryService(graph, cache_capacity=0) as service:
            service.submit(queries[0])
            report = service.instrument_report()
        assert "kernel" not in report


def test_process_batch_identical_once(graph, queries, monkeypatch):
    """One real process-pool batch (pool spawn is too slow per-case)."""
    monkeypatch.setattr(service_module, "usable_cpus", lambda: 2)
    monkeypatch.setattr(service_module, "POOL_AFTER_MS", 0.0)
    base = serve_all(QueryService(graph, cache_capacity=0), queries)
    with QueryService(graph, cache_capacity=0, distance_engine="bitset") as service:
        fast = [r.member_sets() for r in service.run_batch(queries)]
        assert service._pool is not None
    assert fast == base
