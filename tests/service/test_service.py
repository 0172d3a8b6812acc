"""Unit tests for QueryService serving semantics (single-threaded paths).

Concurrency behaviour (thread/process parity, invalidation under
mutation) lives in ``test_concurrency.py``.
"""

import pytest

from repro.core.branch_and_bound import BranchAndBoundSolver
from repro.core.dktg import DKTGResult
from repro.core.query import DKTGQuery, KTGQuery
from repro.service import QueryService, ServiceResult
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.runner import ALGORITHMS, ExperimentRunner
from tests.conftest import make_random_attributed_graph


@pytest.fixture(scope="module")
def graph():
    return make_random_attributed_graph(num_vertices=40, seed=5)


@pytest.fixture(scope="module")
def query(graph):
    labels = tuple(sorted(graph.keyword_table)[:4])
    return KTGQuery(keywords=labels, group_size=3, tenuity=2, top_n=3)


class TestValidation:
    def test_bad_worker_count_rejected(self, graph):
        with pytest.raises(ValueError):
            QueryService(graph, max_workers=0)

    def test_bad_executor_rejected(self, graph):
        with pytest.raises(ValueError):
            QueryService(graph, executor="fibers")

    @pytest.mark.parametrize(
        "budgets",
        [
            {"time_budget": 0},
            {"time_budget": -1.0},
            {"time_budget": float("nan")},
            {"node_budget": 0},
            {"node_budget": -5},
        ],
    )
    def test_non_positive_budget_rejected(self, graph, budgets):
        (name,) = budgets
        with pytest.raises(ValueError, match=name):
            QueryService(graph, **budgets)

    def test_jobs_argument_is_gone(self, graph, query):
        with pytest.raises(TypeError):
            QueryService(graph, jobs=2)
        with QueryService(graph) as service:
            with pytest.raises(TypeError):
                service.submit(query, jobs=2)
            with pytest.raises(TypeError):
                service.run_batch([query], jobs=2)


class TestSubmit:
    def test_miss_then_hit(self, graph, query):
        service = QueryService(graph, "KTG-VKC-NLRNL")
        first = service.submit(query)
        assert not first.from_cache
        assert first.is_exact and not first.degraded
        second = service.submit(query)
        assert second.from_cache
        assert second.member_sets() == first.member_sets()
        assert second.result is first.result  # the cached object itself

    def test_matches_direct_solver(self, graph, query):
        service = QueryService(graph, "KTG-VKC-NLRNL")
        served = service.submit(query)
        direct = BranchAndBoundSolver(
            graph, oracle=service._ensure_oracle()
        ).solve(query)
        assert served.member_sets() == direct.member_sets()

    def test_canonically_equal_queries_share_cache_line(self, graph, query):
        service = QueryService(graph, "KTG-VKC-NLRNL")
        service.submit(query)
        shuffled = query.with_(keywords=tuple(reversed(query.keywords)))
        assert service.submit(shuffled).from_cache

    def test_diversified_spec_lifts_plain_queries(self, graph, query):
        service = QueryService(graph, "DKTG-GREEDY")
        served = service.submit(query)
        assert isinstance(served.result, DKTGResult)
        assert isinstance(served.query, DKTGQuery)
        # The lifted query hits the same cache line as an explicit DKTG.
        explicit = DKTGQuery(
            keywords=query.keywords,
            group_size=query.group_size,
            tenuity=query.tenuity,
            top_n=query.top_n,
        )
        assert service.submit(explicit).from_cache


class TestGracefulDegradation:
    def test_degraded_answers_flagged_and_uncached(self, graph, query):
        service = QueryService(graph, "KTG-VKC-NLRNL", node_budget=5)
        served = service.submit(query)
        assert served.degraded and not served.is_exact
        # Degraded answers must not be served to later callers.
        again = service.submit(query)
        assert not again.from_cache
        assert service.stats().degraded_answers == 2

    def test_per_call_budget_overrides_default(self, graph, query):
        service = QueryService(graph, "KTG-VKC-NLRNL", node_budget=5)
        exact = service.submit(query, node_budget=10_000_000)
        assert exact.is_exact

    def test_unbudgeted_service_is_exact(self, graph, query):
        service = QueryService(graph, "KTG-VKC-NLRNL")
        assert service.submit(query).is_exact

    def test_degraded_dktg_propagates_from_inner_rounds(self, graph, query):
        service = QueryService(graph, "DKTG-GREEDY", node_budget=5)
        served = service.submit(query)
        assert served.degraded


class TestStats:
    def test_counters_accumulate(self, graph, query):
        service = QueryService(graph, "KTG-VKC-NLRNL")
        service.submit(query)
        service.submit(query)
        service.submit(query.with_(tenuity=1))
        stats = service.stats()
        assert stats.queries_served == 3
        assert stats.cache_hits == 1
        assert stats.cache_misses == 2
        assert stats.cache_hit_rate == pytest.approx(1 / 3)
        assert stats.degraded_answers == 0
        assert stats.p50_ms <= stats.p95_ms <= stats.p99_ms
        assert stats.mean_ms > 0

    def test_as_dict_is_flat(self, graph, query):
        service = QueryService(graph, "KTG-VKC-NLRNL")
        service.submit(query)
        row = service.stats().as_dict()
        assert set(row) == {
            "queries_served",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "cache_hit_rate",
            "degraded_answers",
            "mean_ms",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "latency_sample_size",
        }
        assert all(isinstance(value, (int, float)) for value in row.values())

    def test_empty_service_stats(self, graph):
        stats = QueryService(graph).stats()
        assert stats.queries_served == 0
        assert stats.mean_ms == 0.0
        assert stats.cache_hit_rate == 0.0


class TestCacheCapacity:
    def test_disabled_cache_never_hits(self, graph, query):
        service = QueryService(graph, "KTG-VKC-NLRNL", cache_capacity=0)
        service.submit(query)
        assert not service.submit(query).from_cache

    def test_eviction_counted(self, graph, query):
        service = QueryService(graph, "KTG-VKC-NLRNL", cache_capacity=1)
        service.submit(query)
        service.submit(query.with_(tenuity=1))  # evicts the first entry
        assert service.stats().cache_evictions == 1
        assert not service.submit(query).from_cache


class TestRunnerIntegration:
    @pytest.fixture(scope="class")
    def workload(self, graph):
        generator = WorkloadGenerator(graph, dataset_name="svc")
        return generator.generate(count=6, keyword_size=3, seed=3)

    def test_run_batched_matches_run(self, graph, workload):
        runner = ExperimentRunner(graph, "svc")
        sequential = runner.run("KTG-VKC-NLRNL", workload)
        results = []
        batched = runner.run_batched(
            "KTG-VKC-NLRNL",
            workload,
            max_workers=3,
            result_hook=results.append,
        )
        assert batched.algorithm == sequential.algorithm
        assert batched.query_count == sequential.query_count
        assert len(results) == len(workload)
        assert [r.member_sets() for r in results] == [
            BranchAndBoundSolver(
                graph, oracle=runner.oracle_for(ALGORITHMS["KTG-VKC-NLRNL"])
            ).solve(q).member_sets()
            for q in workload
        ]

    def test_run_batched_report_shape(self, graph, workload):
        report = ExperimentRunner(graph, "svc").run_batched(
            "KTG-VKC-NLRNL", workload, max_workers=2
        )
        assert report.query_count == len(workload)
        assert len(report.latencies_ms) == len(workload)
        assert report.total_nodes_expanded > 0


class TestServiceResult:
    def test_member_sets_best_first(self, graph, query):
        served = QueryService(graph, "KTG-VKC-NLRNL").submit(query)
        assert isinstance(served, ServiceResult)
        coverages = [group.coverage for group in served.result.groups]
        assert coverages == sorted(coverages, reverse=True)


class TestMutationLabels:
    """Bad keyword labels fail at the graph boundary, before any index
    repair, and the service keeps serving afterwards."""

    def test_bad_labels_are_rejected_and_service_keeps_working(self):
        from repro.core.errors import KeywordLabelError

        graph = make_random_attributed_graph(num_vertices=30, seed=5)
        labels = sorted(graph.keyword_table)[:3]
        query = KTGQuery(keywords=tuple(labels), group_size=2, tenuity=1, top_n=2)
        with QueryService(graph, mutations=True) as service:
            service.submit(query)
            version = graph.version
            for bad in ("abc", [3], [""]):
                with pytest.raises(KeywordLabelError):
                    service.set_keywords(0, bad)
                with pytest.raises(KeywordLabelError):
                    service.add_vertex(bad)
            assert graph.version == version
            assert service.epochs.repairs == 0
            service.set_keywords(0, [labels[0]])
            assert service.epochs.repairs == 1
            served = service.submit(query)
            assert served.result.groups

