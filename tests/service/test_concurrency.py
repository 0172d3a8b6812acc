"""Concurrency coverage for the query service.

The acceptance bar: a batch returns identical ``member_sets`` to a
``submit`` loop on a fixed workload, on the inline path (one usable CPU)
and on the process path (two); graph mutations invalidate cached
answers through the version counter; and racing batches converge on
exactly one lazily built process pool (the unsynchronized race used to
leak whole pools and their worker processes).  The usable-CPU count and
the inline budget a batch spends before it pools are monkeypatched, so
every test picks its path on any host.
"""

import concurrent.futures
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.service.service as service_module
from repro.core.branch_and_bound import BranchAndBoundSolver
from repro.core.query import KTGQuery
from repro.index.bfs import BFSOracle
from repro.index.nl import NLIndex
from repro.service import QueryService
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.runner import AlgorithmSpec
from tests.conftest import make_random_attributed_graph, run_threads


@pytest.fixture(scope="module")
def graph():
    return make_random_attributed_graph(num_vertices=45, seed=9)


@pytest.fixture(scope="module")
def workload(graph):
    generator = WorkloadGenerator(graph, dataset_name="conc")
    return generator.generate(count=10, keyword_size=4, seed=21)


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set the CPU count the service sees; count the process pools built.

    ``pool_after_ms`` is the inline solve time a batch spends before it
    pools its remaining misses; the default 0 pools them at once.
    """
    created = []

    class CountingProcessPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(self)
            super().__init__(*args, **kwargs)

    # The service imports its executor when it builds the pool.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingProcessPool)

    def set_cpus(count, pool_after_ms=0.0):
        monkeypatch.setattr(service_module, "usable_cpus", lambda: count)
        monkeypatch.setattr(service_module, "POOL_AFTER_MS", pool_after_ms)
        return created

    return set_cpus


def submit_loop(graph, queries, spec="KTG-VKC-NLRNL", **options):
    with QueryService(graph, spec, **options) as service:
        return [service.submit(query) for query in queries]


def member_sets(results):
    return [r.member_sets() for r in results]


class TestSequentialParallelParity:
    def test_one_cpu_batch_matches_submit_loop(self, graph, workload, usable_cpus):
        created = usable_cpus(1)
        with QueryService(graph, "KTG-VKC-NLRNL", cache_capacity=0) as service:
            batch = service.run_batch(workload)
            assert service.batch_workers == 1
        assert not created
        assert member_sets(batch) == member_sets(
            submit_loop(graph, workload, cache_capacity=0)
        )
        assert all(r.is_exact for r in batch)
        # ... and both equal the solver itself, with no service between.
        solver = BranchAndBoundSolver(graph, oracle=service._ensure_oracle())
        assert member_sets(batch) == [solver.solve(q).member_sets() for q in workload]

    def test_process_pool_matches_sequential(
        self, graph, workload, usable_cpus, monkeypatch
    ):
        # The first miss spends the inline budget; the three left start a
        # pool no wider than they can use, though eight CPUs are usable.
        created = usable_cpus(8, pool_after_ms=1e-9)
        queries = list(workload)[:4]
        with QueryService(graph, "KTG-VKC-NLRNL", cache_capacity=0) as service:
            inline, solve = [], service._solve
            monkeypatch.setattr(
                service, "_solve", lambda q, *args: inline.append(q) or solve(q, *args)
            )
            batch = service.run_batch(queries)
            assert service.batch_workers == 3
        assert inline == queries[:1] and len(created) == 1
        assert member_sets(batch) == member_sets(
            submit_loop(graph, queries, cache_capacity=0)
        )
        solver = BranchAndBoundSolver(graph, oracle=service._ensure_oracle())
        assert member_sets(batch) == [solver.solve(q).member_sets() for q in queries]

    def test_bfs_oracle_memo_safe_under_concurrency(self, graph, workload):
        # The BFS memo is the one mutable structure shared by threads
        # calling submit; hammer it from many threads and cross-check.
        spec = AlgorithmSpec("KTG-VKC-BFS", "vkc", "bfs")
        expected = member_sets(submit_loop(graph, workload, spec, cache_capacity=0))
        failures = []
        with QueryService(graph, spec, cache_capacity=0) as service:

            def client(worker):
                if member_sets(service.submit(q) for q in workload) != expected:
                    failures.append(worker)

            run_threads(8, client)
        assert not failures

    def test_nl_on_demand_expansion_safe_under_concurrency(self, graph):
        # Deep tenuity probes force on-demand level expansion; run the
        # same deep probes from many threads and compare to BFS truth.
        nl = NLIndex(graph, depth=1)
        bfs = BFSOracle(graph)
        pairs = [(u, v) for u in range(0, 40, 3) for v in range(1, 40, 7)]
        outcomes = {}

        def probe(worker):
            outcomes[worker] = [nl.is_tenuous(u, v, 4) for u, v in pairs]

        run_threads(6, probe)
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

    def test_mutation_recycles_process_pool(self, usable_cpus):
        created = usable_cpus(2)
        graph = make_random_attributed_graph(num_vertices=30, seed=17)
        labels = tuple(sorted(graph.keyword_table)[:3])
        queries = [
            KTGQuery(keywords=labels, group_size=2, tenuity=t, top_n=2)
            for t in (1, 2)
        ]
        with QueryService(graph, "KTG-VKC-NLRNL") as service:
            before = service.run_batch(queries)
            non_edge = next(
                (u, v)
                for u in graph.vertices()
                for v in graph.vertices()
                if u < v and not graph.has_edge(u, v)
            )
            graph.add_edge(*non_edge)
            after = service.run_batch(queries)
            assert member_sets(after) == member_sets(submit_loop(graph, queries))
        assert all(r.is_exact for r in before)
        assert len(created) == 2  # one pool per graph version


class TestConcurrentSubmission:
    def test_racing_submits_agree(self, graph, workload):
        # Many client threads submitting overlapping queries against one
        # service: every answer must equal the sequential ground truth.
        truth = {
            id(q): r.member_sets()
            for q, r in zip(workload, submit_loop(graph, workload, cache_capacity=0))
        }
        service = QueryService(graph, "KTG-VKC-NLRNL")
        failures = []

        def client(worker):
            for q in workload:
                served = service.submit(q)
                if served.member_sets() != truth[id(q)]:
                    failures.append((worker, q))

        run_threads(5, client)
        assert not failures
        stats = service.stats()
        assert stats.queries_served == 5 * len(workload)
        assert stats.cache_hits > 0  # repeats must be amortised


class TestLazyInitRaces:
    """Racing batches must converge on one process pool.

    The lazy initializer used to be unsynchronized: two threads could
    both observe "no pool yet", both build one, and the loser's pool
    leaked its worker processes.  The constructor is counted via a
    monkeypatched stand-in so the test asserts *creations*, not just
    the final pool.
    """

    def test_racing_process_batches_share_one_pool_and_leave_no_workers(
        self, usable_cpus
    ):
        # A leaked loser pool would hold worker processes past the
        # service's close().
        baseline_workers = set(multiprocessing.active_children())
        created = usable_cpus(2)
        graph = make_random_attributed_graph(num_vertices=25, seed=7)
        labels = tuple(sorted(graph.keyword_table)[:3])
        queries = [
            KTGQuery(keywords=labels, group_size=2, tenuity=t, top_n=2)
            for t in (1, 2)
        ]
        truth = member_sets(submit_loop(graph, queries))
        answers = []
        with QueryService(graph, "KTG-VKC-NLRNL", cache_capacity=0) as service:
            run_threads(
                4, lambda worker: answers.append(member_sets(service.run_batch(queries)))
            )
            assert len(created) == 1
        assert answers == [truth] * 4
        leaked = set(multiprocessing.active_children()) - baseline_workers
        assert not leaked, f"pool workers outlived the service: {sorted(leaked, key=str)}"


class TestPathSelection:
    """The batch path follows the CPU count, the batch's inline solve
    time and mutability, not a knob."""

    def test_mutable_service_builds_no_pool(self, graph, workload, usable_cpus):
        created = usable_cpus(2)
        with QueryService(graph, "KTG-VKC-NLRNL", mutations=True) as service:
            batch = service.run_batch(workload)
            assert service.batch_workers == 1
            assert service.instrument_report()["service"]["batch_workers"] == 1
        assert not created
        assert member_sets(batch) == member_sets(submit_loop(graph, workload))

    def test_batch_inside_the_inline_budget_builds_no_pool(
        self, graph, workload, usable_cpus
    ):
        # Ten sub-millisecond solves end long before the measured pool
        # start cost, so two CPUs do not start a pool for them.
        created = usable_cpus(2, pool_after_ms=service_module.POOL_AFTER_MS)
        with QueryService(graph, "KTG-VKC-NLRNL", cache_capacity=0) as service:
            batch = service.run_batch(workload)
            assert service.batch_workers == 1 and not created
        assert member_sets(batch) == member_sets(submit_loop(graph, workload))

    def test_pool_pays_once_its_expected_saving_covers_its_start(self, usable_cpus):
        usable_cpus(2, pool_after_ms=30.0)
        pays = QueryService._pool_pays
        # Five inline solves took 30 ms: ten misses left save 10 x 6 / 2.
        assert pays(30.0, 5, 10) and not pays(30.0, 5, 9)
        assert not pays(29.9, 5, 100) and not pays(30.0, 5, 1)
        usable_cpus(1, pool_after_ms=30.0)
        assert not pays(30.0, 5, 100)

    @pytest.mark.parametrize("cache_capacity", [1024, 0])
    def test_hot_query_is_keyed_once_per_occurrence(
        self, graph, workload, usable_cpus, monkeypatch, cache_capacity
    ):
        # With the cache on, hits are served in the round that finds them
        # and only the first miss's repeats wait: two rounds, one solve,
        # nothing to pool.  With it off nothing waits: one round solves
        # every occurrence, on the pool.
        created = usable_cpus(2)
        repeats = 1000 if cache_capacity else 50
        keyed, rounds, key = [], [], service_module.canonical_query_key
        monkeypatch.setattr(
            service_module, "canonical_query_key", lambda q: keyed.append(q) or key(q)
        )
        with QueryService(graph, "KTG-VKC-NLRNL", cache_capacity=cache_capacity) as service:
            lookup_round = service._lookup_round
            monkeypatch.setattr(
                service,
                "_lookup_round",
                lambda *args: rounds.append(len(args[2])) or lookup_round(*args),
            )
            batch = service.run_batch([list(workload)[0]] * repeats)
            misses = service.stats().cache_misses
        assert len(keyed) == repeats
        assert rounds == ([repeats, repeats - 1] if cache_capacity else [repeats])
        assert misses == (1 if cache_capacity else repeats)
        assert sum(r.from_cache for r in batch) == repeats - misses
        assert len(created) == (0 if cache_capacity else 1)

    @pytest.mark.parametrize("cache_capacity", [1024, 0])
    def test_in_batch_repeats_match_the_submit_loop(
        self, graph, workload, usable_cpus, cache_capacity
    ):
        # The throughput bench's shape: 6 distinct queries x 5, interleaved.
        # A repeat hits the cache iff the loop's would: with the cache on
        # each distinct query is solved once (6 misses, 24 hits), with it
        # off every occurrence is solved (30 misses), on either path.
        queries = list(workload)[:6] * 5
        runs = {}
        for cpus in (2, 1):
            created = usable_cpus(cpus)
            with QueryService(
                graph, "KTG-VKC-NLRNL", cache_capacity=cache_capacity
            ) as service:
                batch = service.run_batch(queries)
                runs[cpus] = (
                    service.stats().cache_misses,
                    [r.from_cache for r in batch],
                    member_sets(batch),
                )
        assert len(created) == 1  # the 2-CPU run pooled, the 1-CPU run did not
        assert runs[2] == runs[1]
        misses, from_cache, _ = runs[1]
        assert misses == (6 if cache_capacity else 30)
        assert sum(from_cache) == len(queries) - misses
        assert member_sets(submit_loop(graph, queries)) == runs[1][2]


class TestMixedInterleavings:
    """Single submits and pooled batches interleaving from many threads."""

    @pytest.mark.parametrize(
        "cpus", [pytest.param(2, id="process"), pytest.param(1, id="sequential")]
    )
    def test_submit_jobs_and_run_batch_interleave(
        self, graph, workload, usable_cpus, cpus
    ):
        created = usable_cpus(cpus)
        queries = list(workload)[:5]
        truth = member_sets(submit_loop(graph, queries, cache_capacity=0))
        failures = []
        # cache_capacity=0 keeps every path honest: each call really
        # solves, so the shared oracle (and, on two CPUs, the batch
        # pool) is built and exercised no matter how the threads
        # interleave.
        with QueryService(graph, "KTG-VKC-NLRNL", cache_capacity=0) as service:

            def client(worker):
                # Workers 0 and 1 submit one query at a time, 2 and 3 batch.
                if worker < 2:
                    results = [service.submit(query) for query in queries]
                else:
                    results = service.run_batch(queries)
                for position, served in enumerate(results):
                    if served.member_sets() != truth[position]:
                        failures.append((worker, position))

            run_threads(4, client)
            assert not failures
            assert len(created) == (cpus > 1)
