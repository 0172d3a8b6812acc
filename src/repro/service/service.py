"""QueryService: parallel batch execution with caching and degradation.

One service instance owns a graph, one algorithm spec, one (lazily
built, shared) distance oracle and one result cache, and answers KTG /
DKTG queries submitted singly or in batches:

* **Parallel batch execution** — ``run_batch`` fans a workload across a
  worker pool.  The default ``executor="thread"`` suits oracle-bound
  work (index probes release no GIL but are memory-bound and cheap);
  ``executor="process"`` ships the graph + prebuilt oracle to worker
  processes once and is the right choice for CPU-bound exact solves.
* **Result caching** — answers are cached under
  ``(graph_id, graph.version, algorithm, canonical query)``.  Only
  *exact* (non-degraded) answers are cached: a budget-truncated answer
  is an artefact of one run's timing, not a property of the query.
  Graph mutations bump the version, so stale entries can never be
  returned; the stable ``graph_id`` keeps cache keys distinct across
  *different* graphs that happen to share a version counter (the
  multi-tenant registry, :class:`repro.service.GraphRegistry`, issues one
  id per load generation).
* **Admission control / graceful degradation** — service-level
  ``time_budget`` / ``node_budget`` defaults are applied to every
  query (overridable per call).  When a budget trips, the anytime
  answer is returned and flagged: :attr:`ServiceResult.is_exact` is
  False and the degradation is counted in :class:`ServiceStats`.

Thread-safety: concurrent ``submit``/``run_batch`` calls are safe —
every lazily initialized shared structure (oracle, kernel, worker
pools, stats) is built and mutated under a lock, so racing callers
converge on one oracle and one worker pool.  Mutating the graph
concurrently with in-flight queries is not — mutate between batches
(the next call observes the new version, rebuilds the oracle and
re-keys the cache).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from repro.core.dktg import DKTGResult
from repro.core.branch_and_bound import KTGResult
from repro.core.epoch import DEFAULT_MAX_DELTA, DEFAULT_ROTATE_AFTER, EpochManager
from repro.core.errors import EpochError
from repro.core.graph import AttributedGraph
from repro.core.query import DKTGQuery, KTGQuery
from repro.index.base import DistanceOracle
from repro.obs.instruments import NULL_REGISTRY, InstrumentRegistry
from repro.service.cache import ResultCache, canonical_query_key
from repro.service.reservoir import DEFAULT_RESERVOIR_CAPACITY, LatencyReservoir
from repro.workloads.runner import (
    ALGORITHMS,
    AlgorithmSpec,
    percentile_nearest_rank,
)

if TYPE_CHECKING:  # executors are imported when a pool is first built
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

__all__ = ["QueryService", "ServiceResult", "ServiceStats"]

AnyResult = Union[KTGResult, DKTGResult]

#: Default number of workers; matches the throughput bench's 4-worker
#: acceptance setup.
DEFAULT_MAX_WORKERS = 4


@dataclass(frozen=True)
class ServiceResult:
    """One served answer plus its serving provenance.

    ``result`` is the underlying solver result (:class:`KTGResult` or
    :class:`DKTGResult`); ``latency_ms`` is the *serving* latency — for
    cache hits the lookup time, for misses the submission-to-completion
    wall time, which includes any worker-pool queue wait (the pure
    solve cost is observable separately via the ``service.solve_ms``
    instrument).
    """

    query: KTGQuery
    result: AnyResult
    latency_ms: float
    from_cache: bool = False

    @property
    def is_exact(self) -> bool:
        """Whether the answer is a certified optimum (no budget tripped)."""
        return not self.result.stats.budget_exhausted

    @property
    def degraded(self) -> bool:
        """Whether admission control truncated the search (anytime answer)."""
        return self.result.stats.budget_exhausted

    def member_sets(self) -> list[tuple[int, ...]]:
        """Member tuples of the result groups, best first."""
        return [group.members for group in self.result.groups]


@dataclass(frozen=True)
class ServiceStats:
    """Aggregate serving metrics, exported flat for benches.

    ``queries_served`` and ``mean_ms`` are exact over the full serving
    history.  Latency percentiles use the ceiling nearest-rank
    definition shared with
    :class:`repro.workloads.runner.LatencyReport`, computed over a
    bounded uniform reservoir sample of the latency stream
    (:class:`repro.service.reservoir.LatencyReservoir`) rather than the
    full history — a long-running server keeps O(capacity) latency
    state instead of growing without bound, at the cost of standard
    sampling error on the percentiles once more than
    ``latency_sample_size`` queries have been served.
    ``latency_sample_size`` reports how many samples back the
    percentiles (== min(queries_served, reservoir capacity)).
    """

    queries_served: int
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    cache_hit_rate: float
    degraded_answers: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    latency_sample_size: int = 0
    #: Epoch-mode serving state (``mutations=True`` services only; all
    #: ``None`` otherwise and omitted from :meth:`as_dict`).
    epoch_id: Optional[int] = None
    delta_depth: Optional[int] = None
    epoch_rotations: Optional[int] = None
    last_rotation_ms: Optional[float] = None

    def as_dict(self) -> dict:
        """Flat dict for table/CSV rendering and bench ``extra_info``."""
        out = {
            "queries_served": self.queries_served,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "degraded_answers": self.degraded_answers,
            "mean_ms": round(self.mean_ms, 3),
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "latency_sample_size": self.latency_sample_size,
        }
        if self.epoch_id is not None:
            out["epoch_id"] = self.epoch_id
            out["delta_depth"] = self.delta_depth
            out["epoch_rotations"] = self.epoch_rotations
            out["last_rotation_ms"] = round(self.last_rotation_ms or 0.0, 3)
        return out


# ----------------------------------------------------------------------
# Process-pool plumbing.  Workers receive the graph, spec and prebuilt
# oracle once (at pool start) and keep them in module state; per-task
# traffic is then just (query, budgets) out and result in.
# ----------------------------------------------------------------------
_WORKER_STATE: Optional[tuple] = None


def _process_worker_init(
    graph: AttributedGraph,
    spec: AlgorithmSpec,
    oracle: Optional[DistanceOracle],
    distance_engine: str = "oracle",
) -> None:
    global _WORKER_STATE
    if oracle is None:
        oracle = spec.build_oracle(graph)
    kernel = None
    if distance_engine == "bitset":
        # One ball cache per worker process, reused across every query
        # the worker serves (the cross-query reuse the kernel exists for).
        from repro.kernels import BallBitsetEngine

        kernel = BallBitsetEngine(oracle)
    _WORKER_STATE = (graph, spec, oracle, kernel)


def _process_solve(
    query: KTGQuery,
    time_budget: Optional[float],
    node_budget: Optional[int],
) -> tuple[AnyResult, float]:
    assert _WORKER_STATE is not None, "worker initializer did not run"
    graph, spec, oracle, kernel = _WORKER_STATE
    options: dict = {"time_budget": time_budget, "node_budget": node_budget}
    if kernel is not None:
        options["distance_engine"] = "bitset"
        options["kernel"] = kernel
    solver = spec.build_solver(graph, oracle, **options)
    started = time.perf_counter()
    result = solver.solve(query)
    return result, (time.perf_counter() - started) * 1000.0


class QueryService:
    """Answers KTG/DKTG query batches against one shared graph + oracle.

    Parameters
    ----------
    graph:
        The attributed social network being served.
    algorithm:
        Algorithm name from :data:`repro.workloads.runner.ALGORITHMS`
        or an :class:`AlgorithmSpec`.
    oracle:
        Optional prebuilt oracle (must match the spec's kind and the
        graph); built lazily from the spec when omitted.
    max_workers:
        Worker-pool width for parallel batches.
    executor:
        ``"thread"`` (default; shares one oracle and its memoisation)
        or ``"process"`` (copies graph + oracle per worker; opt-in for
        CPU-bound solves).
    time_budget / node_budget:
        Admission-control defaults applied to every query; ``None``
        means unbounded (every answer is exact).
    graph_id:
        Stable identity of *this* graph, mixed into the result-cache
        keys.  Two services over different graphs that share a
        ``version`` counter (every freshly built graph starts
        at 0) must carry distinct ids or a shared coalescing layer
        could serve one tenant the other's groups.
        :class:`repro.service.GraphRegistry` issues ``"{name}#{gen}"``
        ids automatically.
    cache_capacity:
        LRU result-cache size; ``0`` disables caching.
    distance_engine:
        ``"oracle"`` (default) probes the distance oracle directly;
        ``"bitset"`` routes tenuity checks through one shared
        :class:`repro.kernels.BallBitsetEngine` ball cache that is
        **reused across queries** with the same tenuity ``k`` — the
        second query over the same keyword universe skips every ball
        rebuild.  Results are bit-identical either way.
    instruments:
        An :class:`repro.obs.instruments.InstrumentRegistry` collecting
        per-phase latency histograms (``service.cache_lookup_ms``,
        ``service.solve_ms``, ``service.serve_ms``) and cache hit/miss
        counters.  Defaults to the zero-overhead null sink.

    Examples
    --------
    >>> from repro.core.graph import AttributedGraph
    >>> g = AttributedGraph(4, [(0, 1)], {0: ["a"], 1: ["b"], 2: ["a", "b"], 3: ["b"]})
    >>> service = QueryService(g, algorithm="KTG-VKC-NLRNL", max_workers=2)
    >>> q = KTGQuery(keywords=("a", "b"), group_size=2, tenuity=1, top_n=1)
    >>> first = service.submit(q)
    >>> first.is_exact and not first.from_cache
    True
    >>> again = service.submit(q)
    >>> again.from_cache and again.member_sets() == first.member_sets()
    True
    >>> service.close()
    """

    def __init__(
        self,
        graph: AttributedGraph,
        algorithm: Union[str, AlgorithmSpec] = "KTG-VKC-DEG-NLRNL",
        *,
        oracle: Optional[DistanceOracle] = None,
        max_workers: int = DEFAULT_MAX_WORKERS,
        executor: str = "thread",
        time_budget: Optional[float] = None,
        node_budget: Optional[int] = None,
        graph_id: str = "default",
        cache_capacity: int = 1024,
        distance_engine: str = "oracle",
        mutations: bool = False,
        epoch_rotate_after: int = DEFAULT_ROTATE_AFTER,
        epoch_max_delta: int = DEFAULT_MAX_DELTA,
        epoch_shared: bool = False,
        epoch_rotate_sync: bool = False,
        instruments: InstrumentRegistry = NULL_REGISTRY,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if executor not in ("thread", "process"):
            raise ValueError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        if mutations and executor != "thread":
            raise ValueError(
                "mutations=True requires executor='thread': process workers "
                "snapshot the graph at pool start and would serve stale answers"
            )
        if distance_engine not in ("oracle", "bitset"):
            raise ValueError(
                f"distance_engine must be 'oracle' or 'bitset', "
                f"got {distance_engine!r}"
            )
        if time_budget is not None and not time_budget > 0:
            raise ValueError(f"time_budget must be positive, got {time_budget}")
        if node_budget is not None and node_budget < 1:
            raise ValueError(f"node_budget must be >= 1, got {node_budget}")
        if not graph_id:
            raise ValueError("graph_id must be a non-empty string")
        self.graph = graph
        self.graph_id = graph_id
        self.spec = ALGORITHMS[algorithm] if isinstance(algorithm, str) else algorithm
        self.max_workers = max_workers
        self.executor_kind = executor
        self.time_budget = time_budget
        self.node_budget = node_budget
        self.cache = ResultCache(cache_capacity)
        self.distance_engine = distance_engine
        self._kernel = None
        # Lazy-init guard: concurrent run_batch calls race to build the
        # worker pool; without this lock the losers leaked whole pools.
        self._pool_lock = threading.RLock()
        self._oracle = oracle
        self._oracle_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._latencies = LatencyReservoir(DEFAULT_RESERVOIR_CAPACITY)
        self._queries_served = 0
        self._degraded_answers = 0
        self._pool: Optional[Union[ThreadPoolExecutor, ProcessPoolExecutor]] = None
        self._pool_graph_version: Optional[int] = None
        # Instruments are resolved once; against the null sink every
        # observe/inc below is a no-op method call.
        # Epoch mode: mutations route through an EpochManager that keeps
        # the live graph, the shared oracle and the kernel in lockstep
        # (incremental repairs) and rotates CSR snapshots in the
        # background.  Solves hold the manager's read gate so a delta
        # apply never interleaves with an in-flight search.
        self.mutations = mutations
        self._epochs: Optional[EpochManager] = None
        if mutations:
            self._epochs = EpochManager(
                graph,
                rotate_after=epoch_rotate_after,
                max_delta=epoch_max_delta,
                shared=epoch_shared,
                rotate_sync=epoch_rotate_sync,
                instruments=instruments,
            )
            self._epochs.set_repair_targets(self._live_oracle, self._live_kernel)
        self.instruments = instruments
        self._cache_lookup_timer = instruments.timer("service.cache_lookup_ms")
        self._solve_timer = instruments.timer("service.solve_ms")
        self._serve_timer = instruments.timer("service.serve_ms")
        self._cache_hit_counter = instruments.counter("service.cache_hits")
        self._cache_miss_counter = instruments.counter("service.cache_misses")
        self._degraded_counter = instruments.counter("service.degraded_answers")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._epochs is not None:
            self._epochs.close()
        self._close_pool()

    def _close_pool(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._pool_graph_version = None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(
        self,
        query: KTGQuery,
        *,
        time_budget: Optional[float] = None,
        node_budget: Optional[int] = None,
    ) -> ServiceResult:
        """Answer one query (cache-first, sequential)."""
        query = self._lift(query)
        return self._serve_one(
            query,
            time_budget if time_budget is not None else self.time_budget,
            node_budget if node_budget is not None else self.node_budget,
        )

    def run_batch(
        self,
        queries: Iterable[KTGQuery],
        *,
        parallel: bool = True,
        time_budget: Optional[float] = None,
        node_budget: Optional[int] = None,
    ) -> list[ServiceResult]:
        """Answer a workload (or any query iterable), in input order.

        ``parallel=False`` forces the sequential path (the baseline the
        throughput bench compares against).  Results are deterministic
        and identical across sequential, thread and process execution:
        every solve is an independent exact search over an immutable
        graph, so only scheduling differs.
        """
        lifted = [self._lift(query) for query in queries]
        tb = time_budget if time_budget is not None else self.time_budget
        nb = node_budget if node_budget is not None else self.node_budget
        if not parallel or self.max_workers == 1 or len(lifted) <= 1:
            return [self._serve_one(query, tb, nb) for query in lifted]
        if self.executor_kind == "process":
            return self._run_batch_processes(lifted, tb, nb)
        pool = self._thread_pool()
        return list(pool.map(lambda q: self._serve_one(q, tb, nb), lifted))

    # ------------------------------------------------------------------
    # Mutation (epoch mode)
    # ------------------------------------------------------------------
    @property
    def epochs(self) -> EpochManager:
        """The epoch manager (mutations mode only).

        Raises :class:`repro.core.errors.EpochError` on a read-only
        service — the server maps that to a 400, so a stray ``/mutate``
        against a statically-served graph fails loudly, not silently.
        """
        if self._epochs is None:
            raise EpochError(
                "service is read-only; construct QueryService(..., "
                "mutations=True) to accept graph mutations"
            )
        return self._epochs

    def add_edge(self, u: int, v: int) -> None:
        """Insert edge ``(u, v)``: delta-buffered, index-repaired."""
        self.epochs.add_edge(u, v)

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge ``(u, v)``: delta-buffered, index-repaired."""
        self.epochs.remove_edge(u, v)

    def set_keywords(self, vertex: int, labels: Iterable[str]) -> None:
        """Replace *vertex*'s keywords (distance-preserving mutation)."""
        self.epochs.set_keywords(vertex, labels)

    def add_vertex(self, labels: Iterable[str] = ()) -> int:
        """Append an isolated vertex carrying *labels*; return its id."""
        return self.epochs.add_vertex(labels)

    def _live_oracle(self) -> Optional[DistanceOracle]:
        """Repair-target provider: the shared oracle, if built."""
        with self._oracle_lock:
            return self._oracle

    def _live_kernel(self):
        """Repair-target provider: the shared ball kernel, if built."""
        with self._oracle_lock:
            return self._kernel

    def stats(self) -> ServiceStats:
        """Snapshot of the aggregate serving metrics.

        Count and mean are exact; percentiles come from the bounded
        latency reservoir (see :class:`ServiceStats`), so a snapshot
        sorts at most ``reservoir.capacity`` samples no matter how long
        the service has been running.
        """
        with self._stats_lock:
            sample = self._latencies.sorted_sample()
            mean = self._latencies.mean
            served = self._queries_served
            degraded = self._degraded_answers
        cache_stats = self.cache.stats.snapshot()
        epoch_id = delta_depth = rotations = last_rotation_ms = None
        if self._epochs is not None:
            epoch_stats = self._epochs.stats()
            epoch_id = epoch_stats.epoch_id
            delta_depth = epoch_stats.delta_depth
            rotations = epoch_stats.rotations
            last_rotation_ms = epoch_stats.last_rotation_ms
        return ServiceStats(
            queries_served=served,
            cache_hits=cache_stats.hits,
            cache_misses=cache_stats.misses,
            cache_evictions=cache_stats.evictions,
            cache_hit_rate=cache_stats.hit_rate,
            degraded_answers=degraded,
            mean_ms=mean,
            p50_ms=percentile_nearest_rank(sample, 0.50),
            p95_ms=percentile_nearest_rank(sample, 0.95),
            p99_ms=percentile_nearest_rank(sample, 0.99),
            latency_sample_size=len(sample),
            epoch_id=epoch_id,
            delta_depth=delta_depth,
            epoch_rotations=rotations,
            last_rotation_ms=last_rotation_ms,
        )

    def instrument_report(self) -> dict:
        """Full JSON-able observability snapshot for this service.

        Combines the aggregate :meth:`stats`, the cache's own counters,
        the shared oracle's usage (when built) and — with a live
        registry attached — every named counter and latency histogram.
        """
        report: dict = {
            "graph_id": self.graph_id,
            "service": self.stats().as_dict(),
            "cache": {
                "capacity": self.cache.capacity,
                "size": len(self.cache),
                "lookups": self.cache.stats.lookups,
                "hits": self.cache.stats.hits,
                "misses": self.cache.stats.misses,
                "evictions": self.cache.stats.evictions,
                "hit_rate": round(self.cache.stats.hit_rate, 4),
            },
        }
        with self._oracle_lock:
            oracle = self._oracle
            kernel = self._kernel
        if oracle is not None:
            from repro.obs.report import oracle_usage_row

            report["oracle"] = oracle_usage_row(oracle)
        if kernel is not None:
            report["kernel"] = {
                "balls_cached": len(kernel),
                "backend": kernel.backend,
                **kernel.counters(),
            }
        if self._epochs is not None:
            from repro.core.epoch import counter_totals as epoch_counter_totals

            # Manager-scoped stats win on shared keys (rotations,
            # repairs); the process-wide totals contribute the
            # counters only they track (delta_reads, lease_waits).
            report["epoch"] = {
                **epoch_counter_totals(),
                **self._epochs.stats().as_dict(),
            }
        if self.instruments.enabled:
            report["instruments"] = self.instruments.report()
        return report

    def cache_key(self, query: KTGQuery) -> tuple:
        """Canonical identity of *query*'s answer on this service.

        The same ``(graph_id, graph.version, algorithm, canonical
        query)`` tuple the result cache keys by — exposed publicly so
        the serving front end (:mod:`repro.server`) can coalesce
        identical concurrent requests onto one in-flight solve.  The
        leading ``graph_id`` makes the key tenant-safe: the server's
        coalescer spans every registered graph, and without it two
        same-version graphs would collide.
        """
        return self._cache_key(self._lift(query))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _lift(self, query: KTGQuery) -> KTGQuery:
        """Diversified specs require DKTG queries; lift plain ones."""
        if self.spec.diversified and not isinstance(query, DKTGQuery):
            return DKTGQuery(
                keywords=query.keywords,
                group_size=query.group_size,
                tenuity=query.tenuity,
                top_n=query.top_n,
                excluded_anchors=query.excluded_anchors,
            )
        return query

    def _cache_key(self, query: KTGQuery) -> tuple:
        return (
            self.graph_id,
            self.graph.version,
            self.spec.name,
            canonical_query_key(query),
        )

    def _ensure_oracle(self) -> DistanceOracle:
        """Build (or rebuild after graph mutation) the shared oracle."""
        with self._oracle_lock:
            if self._oracle is None or self._oracle.is_stale():
                self._oracle = self.spec.build_oracle(self.graph)
            return self._oracle

    def _ensure_kernel(self, oracle: DistanceOracle):
        """Shared ball-bitset kernel over *oracle* (``None`` in oracle mode).

        Tied to the oracle object: when graph mutation forces
        :meth:`_ensure_oracle` to rebuild, the kernel wrapping the old
        oracle is discarded with it.  The kernel itself is thread-safe,
        so thread-pool batches share one ball cache.
        """
        if self.distance_engine != "bitset":
            return None
        with self._oracle_lock:
            if self._kernel is None or self._kernel.oracle is not oracle:
                from repro.kernels import BallBitsetEngine

                self._kernel = BallBitsetEngine(
                    oracle, instruments=self.instruments
                )
            return self._kernel

    def _serve_one(
        self,
        query: KTGQuery,
        time_budget: Optional[float],
        node_budget: Optional[int],
    ) -> ServiceResult:
        # Epoch mode: the whole serve (key computation included — it
        # reads graph.version) runs under the manager's read gate, so no
        # delta apply can interleave with an in-flight search.  Reads
        # are shared; only the brief mutation applies exclude them.
        if self._epochs is not None:
            with self._epochs.read():
                return self._serve_one_locked(query, time_budget, node_budget)
        return self._serve_one_locked(query, time_budget, node_budget)

    def _serve_one_locked(
        self,
        query: KTGQuery,
        time_budget: Optional[float],
        node_budget: Optional[int],
    ) -> ServiceResult:
        started = time.perf_counter()
        key = self._cache_key(query)
        cached = self.cache.get(key)
        lookup_done = time.perf_counter()
        self._cache_lookup_timer.observe_ms((lookup_done - started) * 1000.0)
        if cached is not None:
            self._cache_hit_counter.inc()
            served = ServiceResult(
                query=query,
                result=cached,  # type: ignore[arg-type]
                latency_ms=(lookup_done - started) * 1000.0,
                from_cache=True,
            )
            self._serve_timer.observe_ms(served.latency_ms)
            self._record(served)
            return served
        self._cache_miss_counter.inc()
        oracle = self._ensure_oracle()
        options: dict = {"time_budget": time_budget, "node_budget": node_budget}
        kernel = self._ensure_kernel(oracle)
        if kernel is not None:
            options["distance_engine"] = "bitset"
            options["kernel"] = kernel
        solver = self.spec.build_solver(self.graph, oracle, **options)
        solve_started = time.perf_counter()
        result = solver.solve(query)
        self._solve_timer.observe_ms((time.perf_counter() - solve_started) * 1000.0)
        served = ServiceResult(
            query=query,
            result=result,
            latency_ms=(time.perf_counter() - started) * 1000.0,
            from_cache=False,
        )
        self._serve_timer.observe_ms(served.latency_ms)
        self._finish_miss(key, served)
        return served

    def _finish_miss(self, key: tuple, served: ServiceResult) -> None:
        # Only certified-exact answers are cached: a degraded answer
        # reflects one run's budget, not the query's true result set.
        if served.is_exact:
            self.cache.put(key, served.result)
        self._record(served)

    def _record(self, served: ServiceResult) -> None:
        if served.degraded:
            self._degraded_counter.inc()
        with self._stats_lock:
            self._queries_served += 1
            self._latencies.observe(served.latency_ms)
            if served.degraded:
                self._degraded_answers += 1

    # -- thread pool ----------------------------------------------------
    def _thread_pool(self) -> ThreadPoolExecutor:
        # Lazy init is serialized: racing run_batch calls must share one
        # pool (the loser of an unsynchronized race leaked its threads).
        # Executors are imported here, not at module level, so a service
        # that never fans out never loads them.
        from concurrent.futures import ThreadPoolExecutor

        with self._pool_lock:
            if self._pool is not None and not isinstance(
                self._pool, ThreadPoolExecutor
            ):
                self._close_pool()
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="ktg-service",
                )
            return self._pool

    # -- process pool ---------------------------------------------------
    def _process_pool(self) -> ProcessPoolExecutor:
        # Workers snapshot the graph at pool start; a mutation since then
        # would have them answering against a stale graph, so the pool is
        # recycled whenever the version moved.  Same race rules as
        # _thread_pool, with higher stakes: a leaked duplicate process
        # pool holds worker processes and /dev/shm segments.
        from concurrent.futures import ProcessPoolExecutor

        with self._pool_lock:
            recycle = (
                self._pool is not None
                and (
                    not isinstance(self._pool, ProcessPoolExecutor)
                    or self._pool_graph_version != self.graph.version
                )
            )
            if recycle:
                self._close_pool()
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=_process_worker_init,
                    initargs=(
                        self.graph,
                        self.spec,
                        self._ensure_oracle(),
                        self.distance_engine,
                    ),
                )
                self._pool_graph_version = self.graph.version
            return self._pool

    def _run_batch_processes(
        self,
        queries: Sequence[KTGQuery],
        time_budget: Optional[float],
        node_budget: Optional[int],
    ) -> list[ServiceResult]:
        # The cache lives in the parent: hits are resolved here, misses
        # fan out to the workers, and fresh exact answers are cached on
        # the way back.
        results: list[Optional[ServiceResult]] = [None] * len(queries)
        pending: list[int] = []
        for position, query in enumerate(queries):
            started = time.perf_counter()
            cached = self.cache.get(self._cache_key(query))
            self._cache_lookup_timer.observe_ms(
                (time.perf_counter() - started) * 1000.0
            )
            if cached is not None:
                self._cache_hit_counter.inc()
                served = ServiceResult(
                    query=query,
                    result=cached,  # type: ignore[arg-type]
                    latency_ms=(time.perf_counter() - started) * 1000.0,
                    from_cache=True,
                )
                self._serve_timer.observe_ms(served.latency_ms)
                self._record(served)
                results[position] = served
            else:
                self._cache_miss_counter.inc()
                pending.append(position)
        if pending:
            pool = self._process_pool()
            # Serve latency is submission-to-completion wall time, not
            # the worker-side solve timer: in a saturated pool a task
            # queues before it runs, and that wait is real latency the
            # client observed.  The worker's own timer still feeds the
            # service.solve_ms instrument (pure solve cost), so the gap
            # between the two *is* the queueing delay.  Futures are
            # harvested in completion order so a slow early query does
            # not inflate the recorded wall time of fast later ones.
            submitted: dict[int, float] = {}
            future_position: dict = {}
            for position in pending:
                submitted[position] = time.perf_counter()
                future = pool.submit(
                    _process_solve, queries[position], time_budget, node_budget
                )
                future_position[future] = position
            from concurrent.futures import as_completed

            for future in as_completed(future_position):
                position = future_position[future]
                result, solve_ms = future.result()
                self._solve_timer.observe_ms(solve_ms)
                served = ServiceResult(
                    query=queries[position],
                    result=result,
                    latency_ms=(time.perf_counter() - submitted[position]) * 1000.0,
                    from_cache=False,
                )
                self._serve_timer.observe_ms(served.latency_ms)
                self._finish_miss(self._cache_key(queries[position]), served)
                results[position] = served
        return results  # type: ignore[return-value]

    def __repr__(self) -> str:
        return (
            f"QueryService(algorithm={self.spec.name!r}, "
            f"workers={self.max_workers}x{self.executor_kind}, "
            f"cache={self.cache!r})"
        )
