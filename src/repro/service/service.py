"""QueryService: batch serving with caching and degradation.

One service instance owns a graph, one algorithm spec, one (lazily
built, shared) distance oracle and one result cache, and answers KTG /
DKTG queries submitted singly or in batches:

* **Batch serving** — ``run_batch`` looks every query up in the cache
  and solves each miss in input order, inline.  Once a batch has spent
  :data:`POOL_AFTER_MS` solving inline — the measured cost of starting
  a process pool — a read-only service with more than one usable CPU
  (:func:`usable_cpus`) sends the misses left to a process pool, one
  process per usable CPU up to their number, as soon as spreading them
  would save at least that cost (their count times the batch's mean
  inline solve time so far, less its share per process).  The workers
  receive the graph and prebuilt oracle once, at pool start.  So a
  short batch never pays for the pool, and a long one loses at most
  about that much of its parallelism.  There is no knob: threads never
  beat the inline loop (the solver holds the GIL), and processes only
  win with a second CPU (on a shared 2-vCPU host, not on every long
  batch: ROADMAP item 1).
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
every lazily initialized shared structure (oracle, kernel, process
pool, stats) is built and mutated under a lock, so racing callers
converge on one oracle and one process pool.  Mutating the graph
concurrently with in-flight queries is safe only on a
``mutations=True`` service, whose :class:`repro.core.epoch.EpochManager`
gate orders each mutation between solves and repairs the oracle in
place; its batches are served sequentially under that gate.  On a
read-only service, mutate between batches (the next call observes the
new version, rebuilds the oracle, recycles the process pool and
re-keys the cache).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.core.dktg import DKTGResult
from repro.core.branch_and_bound import KTGResult
from repro.core.epoch import EpochManager
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

if TYPE_CHECKING:  # the executor is imported when the pool is first built
    from concurrent.futures import ProcessPoolExecutor

__all__ = ["QueryService", "ServiceResult", "ServiceStats"]

AnyResult = Union[KTGResult, DKTGResult]

#: What starting the batch process pool costs, in milliseconds.  A cold
#: 2-process pool (two forks plus the workers' first solves) added 9-31
#: ms to batches of 2-40 misses on brightkite x0.35 and gowalla x0.5
#: against solving them inline, on a 2-vCPU host.  A batch solves this
#: much inline before it considers the pool, and pools the misses left
#: only when spreading them is expected to save more than this.
POOL_AFTER_MS = 30.0


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ServiceResult:
    """One served answer plus its serving provenance.

    ``result`` is the underlying solver result (:class:`KTGResult` or
    :class:`DKTGResult`); ``latency_ms`` is the *serving* latency — for
    cache hits the lookup time, for misses the wall time to completion
    (a pooled miss counts from its submission to the pool, so it
    includes the pool's queue wait).  The pure solve cost is observable separately via the
    ``service.solve_ms`` instrument.
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
    #: Always ``None``: nothing rotates any more.  ``perfbench/run.py``
    #: still reads it; the next benchmark change drops it (ROADMAP
    #: item 8).
    last_rotation_ms: Optional[float] = None

    def as_dict(self) -> dict:
        """Flat dict for table/CSV rendering and bench ``extra_info``."""
        return {
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
    mutations:
        Accept graph mutations (:meth:`add_edge` and friends) while
        serving; each one waits for in-flight solves and repairs the
        oracle and kernel in place.  Batches are then served
        sequentially under the mutation gate.
    instruments:
        An :class:`repro.obs.instruments.InstrumentRegistry` collecting
        per-phase latency histograms (``service.cache_lookup_ms``,
        ``service.solve_ms``, ``service.serve_ms``) and cache hit/miss
        counters.  Defaults to the zero-overhead null sink.

    Examples
    --------
    >>> from repro.core.graph import AttributedGraph
    >>> g = AttributedGraph(4, [(0, 1)], {0: ["a"], 1: ["b"], 2: ["a", "b"], 3: ["b"]})
    >>> service = QueryService(g, algorithm="KTG-VKC-NLRNL")
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
        time_budget: Optional[float] = None,
        node_budget: Optional[int] = None,
        graph_id: str = "default",
        cache_capacity: int = 1024,
        distance_engine: str = "oracle",
        mutations: bool = False,
        instruments: InstrumentRegistry = NULL_REGISTRY,
    ) -> None:
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
        self.time_budget = time_budget
        self.node_budget = node_budget
        self.cache = ResultCache(cache_capacity)
        self.distance_engine = distance_engine
        self._kernel = None
        # Lazy-init guard: concurrent run_batch calls race to build the
        # process pool; without this lock the losers leaked whole pools.
        self._pool_lock = threading.RLock()
        self._oracle = oracle
        self._oracle_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._latencies = LatencyReservoir(DEFAULT_RESERVOIR_CAPACITY)
        self._queries_served = 0
        self._degraded_answers = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_graph_version: Optional[int] = None
        self._pool_workers = 1
        # Mutable services route mutations through an EpochManager that
        # keeps the live graph, the shared oracle and the kernel in
        # lockstep (incremental repairs).  Solves hold the manager's
        # read gate so a mutation never interleaves with a search.
        self.mutations = mutations
        self._epochs: Optional[EpochManager] = None
        if mutations:
            self._epochs = EpochManager(graph, instruments=instruments)
            self._epochs.set_repair_targets(self._live_oracle, self._live_kernel)
        # Instruments are resolved once; against the null sink every
        # observe/inc below is a no-op method call.
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
        """Shut down the process pool (idempotent)."""
        if self._epochs is not None:
            self._epochs.close()
        self._close_pool()

    def _close_pool(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._pool_graph_version = None
            self._pool_workers = 1
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
        """Answer one query (cache-first, in the calling thread)."""
        query = self._lift(query)
        tb = time_budget if time_budget is not None else self.time_budget
        nb = node_budget if node_budget is not None else self.node_budget
        # Mutable services: the whole serve (key computation included —
        # it reads graph.version) runs under the manager's read gate, so
        # no mutation can interleave with an in-flight search.  Reads
        # are shared; only the brief mutation applies exclude them.
        if self._epochs is not None:
            with self._epochs.read():
                return self._serve_one(query, tb, nb)
        return self._serve_one(query, tb, nb)

    def run_batch(
        self,
        queries: Iterable[KTGQuery],
        *,
        time_budget: Optional[float] = None,
        node_budget: Optional[int] = None,
    ) -> list[ServiceResult]:
        """Answer a workload (or any query iterable), in input order.

        Answers are those of a :meth:`submit` loop over the same
        queries, and so are ``from_cache`` flags and cache counters
        while the cache holds the batch's distinct answers (eviction
        order can differ in a smaller one).  The batch is served in
        rounds: a round looks every pending query up, and a repeat of a
        query that missed in that round waits for the next one, so it is
        a cache hit exactly when the earlier answer was cached, and is
        solved again otherwise (a degraded answer).  With caching off
        every occurrence is a miss and one round serves the batch.
        Misses are solved inline, in input order, until the batch has
        spent :data:`POOL_AFTER_MS` on them; a read-only service with
        more than one usable CPU then sends the misses left to its
        process pool once that is expected to save at least
        :data:`POOL_AFTER_MS` (see :meth:`_pool_pays`).
        """
        if self._epochs is not None:
            return [
                self.submit(query, time_budget=time_budget, node_budget=node_budget)
                for query in queries
            ]
        lifted = [self._lift(query) for query in queries]
        keys = [self._cache_key(query) for query in lifted]
        tb = time_budget if time_budget is not None else self.time_budget
        nb = node_budget if node_budget is not None else self.node_budget
        results: list[Optional[ServiceResult]] = [None] * len(lifted)
        pending = list(range(len(lifted)))
        inline = [0.0, 0]  # the batch's inline solve ms and solve count
        while pending:
            misses, pending = self._lookup_round(lifted, keys, pending, results)
            self._solve_misses(lifted, keys, misses, results, tb, nb, inline)
        return results  # type: ignore[return-value]

    @property
    def batch_workers(self) -> int:
        """Width of the process pool :meth:`run_batch` has started.

        1 while batches have run inline only: on a single CPU, on a
        mutable service, whose solves stay under its gate, or while no
        batch has been long enough for the pool to pay.
        """
        return self._pool_workers

    # ------------------------------------------------------------------
    # Mutation (mutations=True services)
    # ------------------------------------------------------------------
    @property
    def epochs(self) -> EpochManager:
        """The mutation gate (mutations mode only).

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
        """Insert edge ``(u, v)`` and repair the index in place."""
        self.epochs.add_edge(u, v)

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge ``(u, v)`` and repair the index in place."""
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
        )

    def instrument_report(self) -> dict:
        """Full JSON-able observability snapshot for this service.

        Combines the aggregate :meth:`stats`, the cache's own counters,
        the shared oracle's usage (when built) and — with a live
        registry attached — every named counter and latency histogram.
        """
        report: dict = {
            "graph_id": self.graph_id,
            "service": {**self.stats().as_dict(), "batch_workers": self.batch_workers},
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
            report["epoch"] = {"repairs": self._epochs.repairs}
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
        so concurrent submits share one ball cache.
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
        started = time.perf_counter()
        key = self._cache_key(query)
        served = self._lookup(query, key, started)
        if served is None:
            served = self._solve(query, key, started, time_budget, node_budget)
        return served

    def _lookup(
        self, query: KTGQuery, key: tuple, started: float
    ) -> Optional[ServiceResult]:
        """Serve *query* from the cache, or count a miss and return ``None``."""
        cached = self.cache.get(key)
        lookup_done = time.perf_counter()
        self._cache_lookup_timer.observe_ms((lookup_done - started) * 1000.0)
        if cached is None:
            self._cache_miss_counter.inc()
            return None
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

    def _solve(
        self,
        query: KTGQuery,
        key: tuple,
        started: float,
        time_budget: Optional[float],
        node_budget: Optional[int],
    ) -> ServiceResult:
        """Solve a miss in this thread against the shared oracle."""
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
        return self._finish_miss(query, key, result, started)

    def _finish_miss(
        self, query: KTGQuery, key: tuple, result: AnyResult, started: float
    ) -> ServiceResult:
        # Serve latency runs from *started* to now (a pooled miss counts
        # from its submission, so it includes its queue wait);
        # service.solve_ms keeps the pure solve cost, and the gap between
        # the two is the queueing delay.
        served = ServiceResult(
            query=query,
            result=result,
            latency_ms=(time.perf_counter() - started) * 1000.0,
            from_cache=False,
        )
        self._serve_timer.observe_ms(served.latency_ms)
        # Only certified-exact answers are cached: a degraded answer
        # reflects one run's budget, not the query's true result set.
        if served.is_exact:
            self.cache.put(key, served.result)
        self._record(served)
        return served

    def _record(self, served: ServiceResult) -> None:
        if served.degraded:
            self._degraded_counter.inc()
        with self._stats_lock:
            self._queries_served += 1
            self._latencies.observe(served.latency_ms)
            if served.degraded:
                self._degraded_answers += 1

    # -- batches --------------------------------------------------------
    def _lookup_round(
        self,
        queries: list[KTGQuery],
        keys: list[tuple],
        pending: list[int],
        results: list[Optional[ServiceResult]],
    ) -> tuple[list[int], list[int]]:
        """Look up each pending position; serve the hits into *results*.

        Returns the positions that missed, and the repeats of their keys,
        which wait for the next round to read the answer the misses put
        in the cache.  With caching off nothing waits.
        """
        defer = self.cache.capacity > 0
        missed: set[tuple] = set()
        misses: list[int] = []
        repeats: list[int] = []
        for position in pending:
            key = keys[position]
            if key in missed:
                repeats.append(position)
                continue
            served = self._lookup(queries[position], key, time.perf_counter())
            if served is not None:
                results[position] = served
                continue
            misses.append(position)
            if defer:
                missed.add(key)
        return misses, repeats

    def _solve_misses(
        self,
        queries: list[KTGQuery],
        keys: list[tuple],
        misses: list[int],
        results: list[Optional[ServiceResult]],
        time_budget: Optional[float],
        node_budget: Optional[int],
        inline: list,
    ) -> None:
        """Solve *misses* inline until the pool pays, then the rest on it.

        *inline* carries the batch's inline solve time and count across
        rounds.  Inline misses are timed from their own solve, as in
        :meth:`submit`, not from a lookup that earlier solves have since
        delayed.
        """
        for index, position in enumerate(misses):
            rest = misses[index:]
            if self._pool_pays(inline[0], inline[1], len(rest)):
                self._pool_solve(queries, keys, rest, results, time_budget, node_budget)
                return
            started = time.perf_counter()
            results[position] = self._solve(
                queries[position], keys[position], started, time_budget, node_budget
            )
            inline[0] += (time.perf_counter() - started) * 1000.0
            inline[1] += 1

    @staticmethod
    def _pool_pays(inline_ms: float, solves: int, misses: int) -> bool:
        """Whether *misses* more should go to the process pool.

        Only after the batch has spent :data:`POOL_AFTER_MS` inline, and
        only when spreading the misses over ``min(usable CPUs, misses)``
        processes saves at least that much of their expected inline
        time (the batch's mean so far times their count).
        """
        if inline_ms < POOL_AFTER_MS or misses < 2:
            return False
        width = min(usable_cpus(), misses)
        expected_ms = inline_ms / max(solves, 1) * misses
        return width > 1 and expected_ms * (1 - 1 / width) >= POOL_AFTER_MS

    def _pool_solve(
        self,
        queries: list[KTGQuery],
        keys: list[tuple],
        misses: list[int],
        results: list[Optional[ServiceResult]],
        time_budget: Optional[float],
        node_budget: Optional[int],
    ) -> None:
        """Solve *misses* on the process pool, timed from submission."""
        from concurrent.futures import as_completed

        pool = self._process_pool(len(misses))
        started = time.perf_counter()
        futures = {
            pool.submit(
                _process_solve, queries[position], time_budget, node_budget
            ): position
            for position in misses
        }
        # Harvested in completion order, so a slow early query does not
        # inflate the recorded latency of fast later ones.
        for future in as_completed(futures):
            position = futures[future]
            result, solve_ms = future.result()
            self._solve_timer.observe_ms(solve_ms)
            results[position] = self._finish_miss(
                queries[position], keys[position], result, started
            )

    def _process_pool(self, misses: int) -> ProcessPoolExecutor:
        # Workers snapshot the graph at pool start; a mutation since then
        # would have them answering against a stale graph, so the pool is
        # recycled whenever the version moved.  Lazy init is serialized:
        # racing run_batch calls must share one pool (the loser of an
        # unsynchronized race leaked its worker processes).  The pool is
        # no wider than the batch that starts it can use: every worker
        # forks at the first task and holds its own copy of the graph
        # and oracle.  The executor is imported here, not at module
        # level, so a service that never fans out never loads
        # multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with self._pool_lock:
            if self._pool is not None and self._pool_graph_version != self.graph.version:
                self._close_pool()
            if self._pool is None:
                self._pool_workers = min(usable_cpus(), misses)
                self._pool = ProcessPoolExecutor(
                    max_workers=self._pool_workers,
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

    def __repr__(self) -> str:
        return (
            f"QueryService(algorithm={self.spec.name!r}, "
            f"batch_workers={self.batch_workers}, "
            f"cache={self.cache!r})"
        )
