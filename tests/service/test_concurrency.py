"""Concurrency coverage for the query service.

The acceptance bar: parallel execution returns identical ``member_sets``
to sequential execution on a fixed workload (exactness preserved under
concurrency), graph mutations invalidate cached answers through the
version counter, and racing callers converge on exactly one lazily
built worker pool (the unsynchronized race used to leak whole process
pools and their worker processes).
"""

import concurrent.futures
import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from repro.core.query import KTGQuery
from repro.index.bfs import BFSOracle
from repro.index.nl import NLIndex
from repro.service import QueryService
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.runner import AlgorithmSpec
from tests.conftest import make_random_attributed_graph


@pytest.fixture(scope="module")
def graph():
    return make_random_attributed_graph(num_vertices=45, seed=9)


@pytest.fixture(scope="module")
def workload(graph):
    generator = WorkloadGenerator(graph, dataset_name="conc")
    return generator.generate(count=10, keyword_size=4, seed=21)


class TestSequentialParallelParity:
    def test_thread_pool_matches_sequential(self, graph, workload):
        sequential = QueryService(
            graph, "KTG-VKC-NLRNL", cache_capacity=0
        ).run_batch(workload, parallel=False)
        with QueryService(
            graph, "KTG-VKC-NLRNL", max_workers=4, cache_capacity=0
        ) as service:
            parallel = service.run_batch(workload)
        assert [r.member_sets() for r in parallel] == [
            r.member_sets() for r in sequential
        ]
        assert all(r.is_exact for r in parallel)

    def test_process_pool_matches_sequential(self, graph, workload):
        queries = list(workload)[:5]
        sequential = QueryService(
            graph, "KTG-VKC-NLRNL", cache_capacity=0
        ).run_batch(queries, parallel=False)
        with QueryService(
            graph,
            "KTG-VKC-NLRNL",
            max_workers=2,
            executor="process",
            cache_capacity=0,
        ) as service:
            parallel = service.run_batch(queries)
        assert [r.member_sets() for r in parallel] == [
            r.member_sets() for r in sequential
        ]

    def test_bfs_oracle_memo_safe_under_concurrency(self, graph, workload):
        # The BFS memo is the one mutable structure shared by worker
        # threads; hammer it from many threads and cross-check results.
        spec = AlgorithmSpec("KTG-VKC-BFS", "vkc", "bfs")
        sequential = QueryService(graph, spec, cache_capacity=0).run_batch(
            workload, parallel=False
        )
        with QueryService(
            graph, spec, max_workers=8, cache_capacity=0
        ) as service:
            parallel = service.run_batch(list(workload) * 3)
        expected = [r.member_sets() for r in sequential] * 3
        assert [r.member_sets() for r in parallel] == expected

    def test_nl_on_demand_expansion_safe_under_concurrency(self, graph):
        # Deep tenuity probes force on-demand level expansion; run the
        # same deep probes from many threads and compare to BFS truth.
        nl = NLIndex(graph, depth=1)
        bfs = BFSOracle(graph)
        pairs = [(u, v) for u in range(0, 40, 3) for v in range(1, 40, 7)]
        outcomes = {}
        lock = threading.Lock()

        def probe(worker):
            local = []
            for u, v in pairs:
                local.append(nl.is_tenuous(u, v, 4))
            with lock:
                outcomes[worker] = local

        threads = [threading.Thread(target=probe, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        truth = [bfs.is_tenuous(u, v, 4) for u, v in pairs]
        for worker, local in outcomes.items():
            assert local == truth, f"worker {worker} diverged"


class TestCacheInvalidation:
    def test_add_edge_invalidates_cached_answers(self):
        graph = make_random_attributed_graph(num_vertices=40, seed=13)
        labels = tuple(sorted(graph.keyword_table)[:4])
        query = KTGQuery(keywords=labels, group_size=3, tenuity=2, top_n=3)
        service = QueryService(graph, "KTG-VKC-NLRNL")

        first = service.submit(query)
        assert service.submit(query).from_cache

        non_edge = next(
            (u, v)
            for u in graph.vertices()
            for v in graph.vertices()
            if u < v and not graph.has_edge(u, v)
        )
        graph.add_edge(*non_edge)

        after = service.submit(query)
        assert not after.from_cache  # version changed -> key changed
        # The answer is recomputed against the mutated graph with a
        # freshly rebuilt oracle; it must match a from-scratch service.
        fresh = QueryService(graph, "KTG-VKC-NLRNL").submit(query)
        assert after.member_sets() == fresh.member_sets()
        assert first.is_exact and after.is_exact

    def test_mutation_recycles_process_pool(self):
        graph = make_random_attributed_graph(num_vertices=30, seed=17)
        labels = tuple(sorted(graph.keyword_table)[:3])
        queries = [
            KTGQuery(keywords=labels, group_size=2, tenuity=t, top_n=2)
            for t in (1, 2)
        ]
        with QueryService(
            graph, "KTG-VKC-NLRNL", max_workers=2, executor="process"
        ) as service:
            before = service.run_batch(queries)
            non_edge = next(
                (u, v)
                for u in graph.vertices()
                for v in graph.vertices()
                if u < v and not graph.has_edge(u, v)
            )
            graph.add_edge(*non_edge)
            after = service.run_batch(queries)
            fresh = QueryService(graph, "KTG-VKC-NLRNL").run_batch(
                queries, parallel=False
            )
            assert [r.member_sets() for r in after] == [
                r.member_sets() for r in fresh
            ]
        assert all(r.is_exact for r in before)


class TestConcurrentSubmission:
    def test_racing_submits_agree(self, graph, workload):
        # Many client threads submitting overlapping queries against one
        # service: every answer must equal the sequential ground truth.
        truth = {
            id(q): r.member_sets()
            for q, r in zip(
                workload,
                QueryService(graph, "KTG-VKC-NLRNL", cache_capacity=0).run_batch(
                    workload, parallel=False
                ),
            )
        }
        service = QueryService(graph, "KTG-VKC-NLRNL")
        failures = []

        def client(worker):
            for q in workload:
                served = service.submit(q)
                if served.member_sets() != truth[id(q)]:
                    failures.append((worker, q))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        stats = service.stats()
        assert stats.queries_served == 5 * len(workload)
        assert stats.cache_hits > 0  # repeats must be amortised


class TestLazyInitRaces:
    """Racing callers must converge on one worker pool.

    The lazy initializer used to be unsynchronized: two threads could
    both observe "no pool yet", both build one, and the loser's pool
    leaked (worker threads or processes).  The constructors are
    counted via
    monkeypatched stand-ins so the tests assert *creations*, not just
    the final pool.
    """

    def _hammer(self, n_threads, work):
        barrier = threading.Barrier(n_threads)
        errors = []

        def runner(worker):
            barrier.wait()
            try:
                work(worker)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append((worker, exc))

        threads = [
            threading.Thread(target=runner, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_racing_thread_batches_share_one_pool(self, monkeypatch):
        graph = make_random_attributed_graph(num_vertices=30, seed=6)
        labels = tuple(sorted(graph.keyword_table)[:3])
        queries = [
            KTGQuery(keywords=labels, group_size=2, tenuity=t, top_n=2)
            for t in (1, 2)
        ]
        created = []

        class CountingThreadPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(self)
                super().__init__(*args, **kwargs)

        # The service imports its executors when it builds a pool.
        monkeypatch.setattr(
            concurrent.futures, "ThreadPoolExecutor", CountingThreadPool
        )
        with QueryService(graph, "KTG-VKC-NLRNL", max_workers=2) as service:
            self._hammer(8, lambda worker: service.run_batch(queries))
            assert len(created) == 1

    def test_racing_process_batches_share_one_pool_and_leave_no_workers(
        self, monkeypatch
    ):
        # The high-stakes variant: a leaked loser pool would hold worker
        # processes past the service's close().
        baseline_workers = set(multiprocessing.active_children())
        graph = make_random_attributed_graph(num_vertices=25, seed=7)
        labels = tuple(sorted(graph.keyword_table)[:3])
        queries = [
            KTGQuery(keywords=labels, group_size=2, tenuity=t, top_n=2)
            for t in (1, 2)
        ]
        created = []

        class CountingProcessPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", CountingProcessPool
        )
        with QueryService(
            graph,
            "KTG-VKC-NLRNL",
            max_workers=2,
            executor="process",
            cache_capacity=0,
        ) as service:
            self._hammer(4, lambda worker: service.run_batch(queries))
            assert len(created) == 1
        leaked = set(multiprocessing.active_children()) - baseline_workers
        assert not leaked, f"pool workers outlived the service: {sorted(leaked, key=str)}"


class TestMixedInterleavings:
    """Single submits and pooled batches interleaving from many threads."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_submit_jobs_and_run_batch_interleave(
        self, graph, workload, executor
    ):
        queries = list(workload)[:5]
        truth = [
            r.member_sets()
            for r in QueryService(
                graph, "KTG-VKC-NLRNL", cache_capacity=0
            ).run_batch(queries, parallel=False)
        ]
        failures = []
        # cache_capacity=0 keeps every path honest: each call really
        # solves, so the shared oracle and the batch pool are both built
        # and exercised no matter how the threads interleave.
        with QueryService(
            graph,
            "KTG-VKC-NLRNL",
            max_workers=2,
            executor=executor,
            cache_capacity=0,
        ) as service:
            barrier = threading.Barrier(4)

            def submitter(worker):
                barrier.wait()
                for position, query in enumerate(queries):
                    served = service.submit(query)
                    if served.member_sets() != truth[position]:
                        failures.append(("submit", worker, position))

            def batcher(worker):
                barrier.wait()
                results = service.run_batch(queries)
                for position, served in enumerate(results):
                    if served.member_sets() != truth[position]:
                        failures.append(("batch", worker, position))

            threads = [
                threading.Thread(target=submitter, args=(0,)),
                threading.Thread(target=submitter, args=(1,)),
                threading.Thread(target=batcher, args=(2,)),
                threading.Thread(target=batcher, args=(3,)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not failures
            assert service._pool is not None
