"""Parallel branch-and-bound engine with shared incumbent bounds.

The NP-hard KTG search of :mod:`repro.core.branch_and_bound` explores a
tree whose first level is the ordered root frontier: choosing candidate
``v_i`` at the root spawns one independent subtree over the candidates
after ``v_i``.  This module splits that frontier into subproblems,
solves them in a worker fleet (process pool, thread pool, or inline),
and merges the per-subtree results back into one :class:`TopNPool`
**deterministically**: an unbudgeted ``solve(jobs=N)`` returns groups
bit-identical to the serial solver for every ordering strategy.

Why the merge is exact
----------------------
Each worker runs the ordinary serial search over its subtree, but its
result pool is a :class:`_RecordingFloorPool`: a local top-N pool whose
pruning threshold is additionally floored by a broadcast bound, and
which records every locally-admitted group in discovery order.  Three
invariants make the final replay bit-identical to serial:

1. *The floor is always a lower bound of the serial threshold.*  The
   parent only broadcasts the threshold of the merged pool over the
   maximal **contiguous prefix** of completed subproblems.  Serial
   thresholds only grow, so the threshold after subtrees ``0..j`` is at
   most the serial threshold at any point inside a later subtree
   ``i > j`` — and a running subproblem is never inside the prefix.
2. *The local threshold is a lower bound too.*  If the local pool's
   N-th best exceeded the serial threshold, all N local groups would be
   serial-admitted groups still resident in the serial pool — but then
   the serial pool (same capacity) would have a higher threshold,
   a contradiction.
3. *Extra exploration is harmless.*  A worker therefore prunes at most
   as much as serial; every group the serial search offers is recorded,
   and every *extra* recorded group comes from a branch serial pruned,
   so its coverage is at or below the serial threshold at that point of
   the replay and the strict-admission pool rejects it.

Replaying each subproblem's recorded offers in root order through a
fresh pool thus reproduces the serial pool trajectory exactly.

Determinism across ``jobs``
---------------------------
Group results are jobs-invariant always.  ``SearchStats`` aggregates
(prune/node counters) are additionally jobs- and schedule-invariant
when ``bound_broadcast=False`` (every subproblem then runs with a
constant floor of 0); with broadcasts enabled the *work done* depends
on completion timing, so only the returned groups are guaranteed
identical.  Budgets apply per subproblem (see :meth:`solve`), keeping
budgeted runs jobs-invariant in the broadcast-free mode as well.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.core.branch_and_bound import (
    BranchAndBoundSolver,
    KTGResult,
    SearchStats,
    _BudgetExhausted,
)
from repro.core.coverage import CoverageContext
from repro.core.csr import CsrSnapshot, validate_graph_layout
from repro.core.errors import IndexBuildError
from repro.core.graph import AttributedGraph
from repro.core.query import KTGQuery
from repro.core.results import TopNPool
from repro.core.strategies import (
    OrderingStrategy,
    QKCOrdering,
    VKCDegreeOrdering,
    VKCOrdering,
    strategy_by_name,
)
from repro.index.base import DistanceOracle, GraphLike
from repro.obs.instruments import NULL_REGISTRY, InstrumentRegistry

__all__ = [
    "ParallelBranchAndBoundSolver",
    "ParallelKTGResult",
    "aggregate_subproblem_stats",
    "make_parallel_solver",
    "root_frontier",
]

#: How many threshold/admission checks go through a cached floor before
#: the shared broadcast cell is re-read (a locked read for processes).
FLOOR_POLL_INTERVAL = 64

#: Executors accepted by :class:`ParallelBranchAndBoundSolver`.
EXECUTORS = ("inline", "thread", "process")


# ----------------------------------------------------------------------
# Shared incumbent floor
# ----------------------------------------------------------------------
class _FloorBox:
    """In-process broadcast cell (inline/thread executors).

    A bare attribute read/write of a float is atomic under the GIL,
    which is all the protocol needs: readers tolerate staleness, and
    the single writer only ever increases the value.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def read(self) -> float:
        return self.value

    def write(self, value: float) -> None:
        self.value = value


class _SharedFloor:
    """Cross-process broadcast cell backed by ``multiprocessing.Value``."""

    __slots__ = ("_cell",)

    def __init__(self, cell: Any) -> None:
        self._cell = cell

    def read(self) -> float:
        return float(self._cell.value)

    def write(self, value: float) -> None:
        self._cell.value = value


class _RecordingFloorPool:
    """Worker-side result pool: local top-N, floored threshold, offer log.

    Duck-types the three :class:`TopNPool` methods the solver uses
    (``threshold``, ``would_admit``, ``offer``).  Offers below the floor
    are rejected outright and never recorded — the merge-time threshold
    is provably at least the floor, so they could never be admitted.
    """

    __slots__ = ("_pool", "_read_floor", "_floor", "_polls", "offers")

    def __init__(self, capacity: int, read_floor: Callable[[], float]) -> None:
        self._pool = TopNPool(capacity)
        self._read_floor = read_floor
        self._floor = read_floor()
        self._polls = 0
        #: Locally admitted groups, in discovery order.
        self.offers: list[tuple[tuple[int, ...], float]] = []

    def _current_floor(self) -> float:
        self._polls += 1
        if self._polls >= FLOOR_POLL_INTERVAL:
            self._polls = 0
            fresh = self._read_floor()
            if fresh > self._floor:
                self._floor = fresh
        return self._floor

    @property
    def threshold(self) -> float:
        floor = self._current_floor()
        local = self._pool.threshold
        return local if local > floor else floor

    def would_admit(self, coverage: float) -> bool:
        if coverage <= self._current_floor():
            return False
        return self._pool.would_admit(coverage)

    def offer(self, members: Sequence[int], coverage: float) -> bool:
        if coverage <= self._current_floor():
            return False
        admitted = self._pool.offer(members, coverage)
        if admitted:
            self.offers.append((tuple(sorted(members)), coverage))
        return admitted


# ----------------------------------------------------------------------
# Subproblems
# ----------------------------------------------------------------------
@dataclass
class _SubproblemOutcome:
    """What one root branch sends back to the merger."""

    position: int
    offers: list[tuple[tuple[int, ...], float]]
    stats: SearchStats


def root_frontier(initial: Sequence[int], group_size: int) -> range:
    """Root-branch positions the serial search would actually expand.

    The serial root loop breaks as soon as fewer than ``p - 1``
    candidates remain after the chosen one, so positions past
    ``len(initial) - p`` never spawn a subtree.
    """
    return range(0, max(0, len(initial) - group_size + 1))


def _solve_subtree(
    solver: BranchAndBoundSolver,
    query: KTGQuery,
    context: CoverageContext,
    initial: Sequence[int],
    position: int,
    pool: _RecordingFloorPool,
    deadline: Optional[float],
) -> SearchStats:
    """Run the serial search over the subtree rooted at one root branch.

    Reproduces exactly what the serial root loop does for this position:
    k-line-filter the tail against the chosen vertex, re-order it when
    the strategy re-sorts, then recurse.  Returns the subtree's stats;
    a tripped budget is recorded, not raised.
    """
    stats = SearchStats()
    vertex = initial[position]
    rest = list(initial[position + 1 :])
    masks = context.masks
    new_mask = masks[vertex]
    rest_mask = None
    solver._deadline = deadline
    solver._hooks = None
    try:
        if solver.kline_filtering:
            before = len(rest)
            kernel = solver.kernel
            if kernel is not None:
                rest, rest_mask = kernel.filter_list(
                    rest, kernel.encode(rest), vertex, query.tenuity
                )
            else:
                rest = solver.oracle.filter_candidates(rest, vertex, query.tenuity)
            stats.kline_removed += before - len(rest)
        if solver.strategy.resorts and new_mask != 0:
            rest = solver.strategy.reorder(rest, new_mask, context)
        solver._search(
            members=[vertex],
            covered_mask=new_mask,
            remaining=rest,
            query=query,
            context=context,
            pool=pool,
            stats=stats,
            remaining_mask=rest_mask,
        )
    except _BudgetExhausted:
        stats.budget_exhausted = True
    return stats


# ----------------------------------------------------------------------
# Process-pool plumbing: workers receive graph/oracle/strategy/options
# once (at pool start) plus the shared floor cell; per-task traffic is
# (chunk positions, query, initial order) out, outcome list back.
#
# Two initializers exist.  The classic one ships the pickled graph and
# oracle.  The csr one ships only a shared-memory segment *name*: the
# worker attaches to the parent's CSR snapshot (zero-copy), wraps it in
# a CsrGraphView, and builds a CSR-layout BFS oracle over it.  Every
# oracle in this library is exact, so the substitution changes neither
# groups nor SearchStats (only oracle-internal probe/memo counters,
# which stay worker-local either way).
# ----------------------------------------------------------------------
_WORKER: Optional[dict] = None


def _parallel_worker_init(
    graph: AttributedGraph,
    oracle: DistanceOracle,
    strategy: OrderingStrategy,
    options: dict,
    floor_cell: Any,
) -> None:
    global _WORKER
    _WORKER = {
        "solver": BranchAndBoundSolver(graph, oracle=oracle, strategy=strategy, **options),
        "floor": _SharedFloor(floor_cell),
        "context_key": None,
        "context": None,
    }


def _strategy_spec(strategy: OrderingStrategy) -> Optional[tuple[str, dict]]:
    """Compact picklable recipe for the standard strategies.

    Shipping ``("vkc-deg", {...})`` instead of the object avoids
    pickling its n-entry degree table — the worker rebuilds it from the
    attached view (CSR degrees equal adjacency degrees).  Non-standard
    strategy objects return ``None`` and are pickled as-is.
    """
    if type(strategy) is QKCOrdering:
        return ("qkc", {})
    if type(strategy) is VKCOrdering:
        return ("vkc", {})
    if type(strategy) is VKCDegreeOrdering:
        return ("vkc-deg", {"degree_order": strategy.degree_order})
    return None


def _parallel_worker_init_csr(
    segment_name: str,
    strategy: Optional[OrderingStrategy],
    strategy_spec: Optional[tuple[str, dict]],
    options: dict,
    floor_cell: Any,
) -> None:
    global _WORKER
    from repro.index.bfs import BFSOracle

    snapshot = CsrSnapshot.attach(segment_name)
    try:
        view = snapshot.view()
        if strategy_spec is not None:
            strategy = strategy_by_name(strategy_spec[0], view, **strategy_spec[1])
        oracle = BFSOracle(view, graph_layout="csr")
        _WORKER = {
            "solver": BranchAndBoundSolver(
                view, oracle=oracle, strategy=strategy, graph_layout="csr", **options
            ),
            "floor": _SharedFloor(floor_cell),
            "context_key": None,
            "context": None,
            "snapshot": snapshot,
        }
    except BaseException:
        # A worker dying between attach and solver construction must
        # still close its handle: the owner's later unlink only removes
        # the name, so a leaked mapping keeps /dev/shm populated on
        # crashy fleets (the CI leak check catches exactly this).
        snapshot.close()
        raise


def _parallel_worker_run(
    chunk: Sequence[int],
    query: KTGQuery,
    initial: Sequence[int],
    top_n: int,
    deadline: Optional[float],
    node_budget: Optional[int],
) -> tuple[int, list[_SubproblemOutcome]]:
    assert _WORKER is not None, "parallel worker initializer did not run"
    solver: BranchAndBoundSolver = _WORKER["solver"]
    solver.node_budget = node_budget
    floor: _SharedFloor = _WORKER["floor"]
    if _WORKER["context_key"] != query.keywords:
        _WORKER["context"] = CoverageContext(solver.graph, query.keywords)
        _WORKER["context_key"] = query.keywords
    context: CoverageContext = _WORKER["context"]
    outcomes = []
    for position in chunk:
        pool = _RecordingFloorPool(top_n, floor.read)
        stats = _solve_subtree(solver, query, context, initial, position, pool, deadline)
        outcomes.append(_SubproblemOutcome(position, pool.offers, stats))
    return os.getpid(), outcomes


# ----------------------------------------------------------------------
# Result type
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParallelKTGResult(KTGResult):
    """A :class:`KTGResult` plus the parallel engine's provenance.

    ``groups`` (and for unbudgeted runs every admission decision behind
    them) are identical to what the serial solver returns; the extra
    fields describe how the search was scheduled.
    """

    jobs: int = 1
    executor: str = "inline"
    subproblems: int = 0
    worker_stats: tuple[SearchStats, ...] = field(compare=False, default_factory=tuple)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class ParallelBranchAndBoundSolver:
    """Multi-worker exact top-N KTG solver (frontier decomposition).

    Parameters mirror :class:`BranchAndBoundSolver` plus:

    jobs:
        Worker count.  ``jobs=1`` degrades to in-process execution of
        the same subproblem schedule, so results *and* stats match
        higher job counts (the serial :class:`BranchAndBoundSolver`
        remains the reference for classic global-budget semantics).
    executor:
        ``"process"`` (default; real CPU parallelism), ``"thread"``
        (GIL-bound, cheap to spin up — scheduling tests), or
        ``"inline"`` (no pool at all; deterministic broadcasts).
    bound_broadcast:
        Share the merged contiguous-prefix incumbent threshold with
        running workers so Theorem-2 pruning tightens fleet-wide.
        Group results stay bit-identical either way; disable to make
        ``SearchStats`` aggregates schedule-invariant too.
    chunk_size:
        Root branches per worker task; defaults to
        ``ceil(frontier / (jobs * 4))`` so late (cheap) subtrees
        rebalance the skewed early ones.
    distance_engine / kernel:
        Forwarded to every worker solver (see
        :class:`BranchAndBoundSolver`).  Inline/thread workers share one
        ball cache read-only (ball values are immutable ints); process
        workers each lazily build their own over the shipped oracle.
    kernel_backend:
        Vectorization backend (``"auto"``/``"numpy"``/``"python"``,
        see :class:`BranchAndBoundSolver`) forwarded to the template,
        every clone and every process worker's options, so a fleet
        never mixes backends.
    graph_layout:
        ``"adjacency"`` (default) keeps the classic process fan-out:
        the graph and oracle are pickled into every worker at pool
        start.  ``"csr"`` makes fan-out zero-copy — the engine copies
        the graph's CSR snapshot into one shared-memory segment and
        workers attach by *name*, building a CSR-layout BFS oracle
        over the mapped arrays (exact, so groups and ``SearchStats``
        match any parent oracle bit for bit; an explicitly passed
        *oracle* still serves the inline/thread paths and the
        root-level candidate preparation).  The engine owns the
        segment: it is released deterministically on :meth:`close`
        and whenever a ``graph.version`` bump forces a pool rebuild.
    instruments:
        Registry receiving ``parallel.tasks``, ``parallel.subproblems``,
        ``parallel.bound_broadcasts`` and ``parallel.steals`` counters,
        plus the ``csr.*`` family when ``graph_layout="csr"``.

    Budgets: ``node_budget`` / ``time_budget`` apply **per subproblem**
    (each root branch gets the full allowance).  This keeps budgeted
    runs deterministic across ``jobs``; callers wanting one global cap
    should use the serial solver.

    A single engine reuses its worker pool across ``solve`` calls.
    Concurrent ``solve`` calls are safe but serialized: the pool and
    the broadcast floor cell are per-engine, so overlapping pooled
    solves would reset each other's pruning floor (and race the lazy
    pool build).  A fleet owns the hardware for one query at a time —
    the same contract :class:`repro.service.QueryService` documents for
    ``jobs > 1`` batches.  Use :meth:`close` or a ``with`` block.
    """

    def __init__(
        self,
        graph: GraphLike,
        oracle: Optional[DistanceOracle] = None,
        strategy: Optional[OrderingStrategy] = None,
        *,
        jobs: int = 2,
        executor: str = "process",
        keyword_pruning: bool = True,
        kline_filtering: bool = True,
        use_union_bound: bool = False,
        node_budget: Optional[int] = None,
        time_budget: Optional[float] = None,
        bound_broadcast: bool = True,
        chunk_size: Optional[int] = None,
        instruments: InstrumentRegistry = NULL_REGISTRY,
        distance_engine: str = "oracle",
        kernel=None,
        graph_layout: str = "adjacency",
        kernel_backend: str = "auto",
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.jobs = jobs
        # One worker cannot overlap with itself; skip the pool entirely.
        self.executor_kind = "inline" if jobs == 1 else executor
        self.bound_broadcast = bound_broadcast
        self.chunk_size = chunk_size
        self.instruments = instruments
        self.graph_layout = validate_graph_layout(graph_layout)
        self._template = BranchAndBoundSolver(
            graph,
            oracle=oracle,
            strategy=strategy,
            keyword_pruning=keyword_pruning,
            kline_filtering=kline_filtering,
            use_union_bound=use_union_bound,
            node_budget=node_budget,
            time_budget=time_budget,
            distance_engine=distance_engine,
            kernel=kernel,
            graph_layout=graph_layout,
            kernel_backend=kernel_backend,
        )
        self._pool: Optional[Executor] = None
        # Serializes pooled solves: the floor cell and pool are shared
        # engine state, and racing solves would reset each other's
        # broadcast floor mid-search (an over-high floor prunes valid
        # groups) or fork duplicate worker pools.
        self._fleet_lock = threading.Lock()
        self._floor_cell: Any = None
        # Shared-memory CSR segment owned by this engine (csr + process
        # fan-out only); released on close() and on version-bump pool
        # rebuilds.  _pool_version tracks the graph version the current
        # pool's workers were initialised against.
        self._shared_snapshot: Optional[CsrSnapshot] = None
        self._pool_version: Optional[int] = None
        self._tasks_counter = instruments.counter("parallel.tasks")
        self._subproblem_counter = instruments.counter("parallel.subproblems")
        self._broadcast_counter = instruments.counter("parallel.bound_broadcasts")
        self._steal_counter = instruments.counter("parallel.steals")

    # ------------------------------------------------------------------
    @property
    def graph(self) -> GraphLike:
        return self._template.graph

    @property
    def oracle(self) -> DistanceOracle:
        return self._template.oracle

    @property
    def strategy(self) -> OrderingStrategy:
        return self._template.strategy

    @property
    def algorithm_name(self) -> str:
        return self._template.algorithm_name

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool and release shared memory (idempotent)."""
        self._teardown_pool()

    def __enter__(self) -> "ParallelBranchAndBoundSolver":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def solve(
        self,
        query: KTGQuery,
        candidates: Optional[Sequence[int]] = None,
        *,
        node_budget: Optional[int] = None,
        time_budget: Optional[float] = None,
    ) -> ParallelKTGResult:
        """Answer *query* across the worker fleet.

        Group results are bit-identical to
        ``BranchAndBoundSolver.solve`` for unbudgeted runs; see the
        module docstring for the proof sketch and the class docstring
        for budget semantics.  *node_budget* / *time_budget* override
        the engine defaults for this call only (the admission-control
        hook :class:`repro.service.QueryService` uses).
        """
        template = self._template
        if template.oracle.is_stale():
            # Same contract as the serial solver: force an explicit rebuild.
            raise IndexBuildError(
                "the distance oracle was built on an older version of the "
                "graph; call oracle.rebuild() before solving"
            )
        nb = node_budget if node_budget is not None else template.node_budget
        tb = time_budget if time_budget is not None else template.time_budget
        started = time.perf_counter()
        root_stats = SearchStats()
        context = query.cached_context(template.graph)
        template._last_context = context
        initial = template._initial_candidates(query, context, candidates, root_stats)
        initial = template.strategy.initial_order(initial, context)

        frontier = root_frontier(initial, query.group_size)
        if query.group_size == 1 or len(frontier) == 0:
            # Degenerate trees (root is itself a leaf, or exhausted):
            # delegate to the serial engine — identical for every jobs.
            return self._wrap_serial(query, candidates, nb, tb)

        deadline = started + tb if tb is not None else None
        chunks = self._chunk(frontier)
        self._tasks_counter.inc(len(chunks))
        self._subproblem_counter.inc(len(frontier))

        if self.executor_kind == "inline":
            outcomes, merged, accepted, broadcasts = self._run_inline(
                chunks, query, initial, context, deadline, nb
            )
            steals = 0
        else:
            with self._fleet_lock:
                outcomes, merged, accepted, broadcasts, steals = self._run_pool(
                    chunks, query, initial, deadline, nb
                )
        self._broadcast_counter.inc(broadcasts)
        self._steal_counter.inc(steals)

        stats = self._aggregate(root_stats, outcomes, accepted)
        stats.elapsed_seconds = time.perf_counter() - started
        return ParallelKTGResult(
            query=query,
            algorithm=template.algorithm_name,
            groups=tuple(merged.best()),
            stats=stats,
            jobs=self.jobs,
            executor=self.executor_kind,
            subproblems=len(frontier),
            worker_stats=tuple(outcome.stats for outcome in outcomes),
        )

    # ------------------------------------------------------------------
    def _wrap_serial(
        self,
        query: KTGQuery,
        candidates: Optional[Sequence[int]],
        node_budget: Optional[int] = None,
        time_budget: Optional[float] = None,
    ) -> ParallelKTGResult:
        serial = self._clone_template()
        serial.node_budget = node_budget
        serial.time_budget = time_budget
        serial = serial.solve(query, candidates)
        return ParallelKTGResult(
            query=serial.query,
            algorithm=serial.algorithm,
            groups=serial.groups,
            stats=serial.stats,
            jobs=self.jobs,
            executor=self.executor_kind,
            subproblems=0,
            worker_stats=(serial.stats,),
        )

    def _chunk(self, frontier: range) -> list[list[int]]:
        size = self.chunk_size
        if size is None:
            size = max(1, -(-len(frontier) // (self.jobs * 4)))
        positions = list(frontier)
        return [positions[i : i + size] for i in range(0, len(positions), size)]

    # -- inline ---------------------------------------------------------
    def _run_inline(
        self,
        chunks: list[list[int]],
        query: KTGQuery,
        initial: Sequence[int],
        context: CoverageContext,
        deadline: Optional[float],
        node_budget: Optional[int],
    ) -> tuple[list[_SubproblemOutcome], TopNPool, int, int]:
        floor = _FloorBox()
        merged = TopNPool(query.top_n)
        solver = self._clone_template()
        solver.node_budget = node_budget
        outcomes: list[_SubproblemOutcome] = []
        accepted = 0
        broadcasts = 0
        for chunk in chunks:
            for position in chunk:
                pool = _RecordingFloorPool(query.top_n, floor.read)
                stats = _solve_subtree(
                    solver, query, context, initial, position, pool, deadline
                )
                outcomes.append(_SubproblemOutcome(position, pool.offers, stats))
            # Inline completion order == root order, so the contiguous
            # prefix is simply everything so far: the broadcast floor
            # tracks the serial threshold as tightly as possible.
            accepted += _replay(merged, outcomes[len(outcomes) - len(chunk) :])
            if self.bound_broadcast and merged.threshold > floor.read():
                floor.write(merged.threshold)
                broadcasts += 1
        return outcomes, merged, accepted, broadcasts

    # -- thread / process ----------------------------------------------
    def _run_pool(
        self,
        chunks: list[list[int]],
        query: KTGQuery,
        initial: Sequence[int],
        deadline: Optional[float],
        node_budget: Optional[int],
    ) -> tuple[list[_SubproblemOutcome], TopNPool, int, int, int]:
        pool = self._ensure_pool()
        if self.executor_kind == "thread":
            floor = self._floor_cell
            floor.write(0.0)
            context = query.cached_context(self._template.graph)
            solvers = [self._clone_template() for _ in range(len(chunks))]
            for solver in solvers:
                solver.node_budget = node_budget

            def run_chunk(index: int) -> tuple[Any, list[_SubproblemOutcome]]:
                solver = solvers[index]
                results = []
                for position in chunks[index]:
                    local = _RecordingFloorPool(query.top_n, floor.read)
                    stats = _solve_subtree(
                        solver, query, context, initial, position, local, deadline
                    )
                    results.append(_SubproblemOutcome(position, local.offers, stats))
                return threading.get_ident(), results

            futures = {pool.submit(run_chunk, i): i for i in range(len(chunks))}
        else:
            floor = _SharedFloor(self._floor_cell)
            floor.write(0.0)
            futures = {
                pool.submit(
                    _parallel_worker_run,
                    chunk,
                    query,
                    list(initial),
                    query.top_n,
                    deadline,
                    node_budget,
                ): i
                for i, chunk in enumerate(chunks)
            }

        merged = TopNPool(query.top_n)
        by_chunk: dict[int, list[_SubproblemOutcome]] = {}
        worker_of_chunk: dict[int, Any] = {}
        next_chunk = 0
        accepted = 0
        broadcasts = 0
        for future in as_completed(futures):
            chunk_index = futures[future]
            worker_tag, results = future.result()
            by_chunk[chunk_index] = results
            worker_of_chunk[chunk_index] = worker_tag
            # Advance the contiguous completed prefix and broadcast its
            # merged threshold — the only bound provably at or below the
            # serial threshold for every still-running subproblem.
            while next_chunk in by_chunk:
                accepted += _replay(merged, by_chunk[next_chunk])
                next_chunk += 1
            if self.bound_broadcast and merged.threshold > floor.read():
                floor.write(merged.threshold)
                broadcasts += 1
        steals = self._count_steals(worker_of_chunk)
        outcomes = [
            outcome for index in sorted(by_chunk) for outcome in by_chunk[index]
        ]
        return outcomes, merged, accepted, broadcasts, steals

    def _count_steals(self, worker_of_chunk: dict[int, Any]) -> int:
        """Chunks not executed by their static round-robin home worker.

        The pool schedules dynamically, so this measures how much load
        rebalancing happened relative to a static ``chunk % jobs``
        partition (0 on a perfectly uniform frontier).
        """
        slots: dict[Any, int] = {}
        steals = 0
        for chunk_index in sorted(worker_of_chunk):
            tag = worker_of_chunk[chunk_index]
            slot = slots.setdefault(tag, len(slots))
            if slot != chunk_index % self.jobs:
                steals += 1
        return steals

    # ------------------------------------------------------------------
    def _clone_template(self) -> BranchAndBoundSolver:
        """A fresh solver sharing the graph/oracle/strategy but owning
        its own mutable ``_deadline`` slot (one per concurrent chunk)."""
        template = self._template
        return BranchAndBoundSolver(
            template.graph,
            oracle=template.oracle,
            strategy=template.strategy,
            keyword_pruning=template.keyword_pruning,
            kline_filtering=template.kline_filtering,
            use_union_bound=template.use_union_bound,
            node_budget=template.node_budget,
            time_budget=template.time_budget,
            distance_engine=template.distance_engine,
            # Clones share the template's ball cache: values are
            # immutable ints and the LRU bookkeeping is locked, so
            # thread/inline fleets read each other's balls for free.
            kernel=template.kernel,
            graph_layout=template.graph_layout,
            kernel_backend=template.kernel_backend,
        )

    def _teardown_pool(self) -> None:
        """Shut down the pool, then unlink the shared segment (idempotent).

        Order matters: workers may still be attached to the segment
        while draining, so the pool is joined *before* the unlink.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._pool_version = None
        if self._shared_snapshot is not None:
            self._shared_snapshot.release(instruments=self.instruments)
            self._shared_snapshot = None

    def _worker_options(self) -> dict:
        template = self._template
        return {
            "keyword_pruning": template.keyword_pruning,
            "kline_filtering": template.kline_filtering,
            "use_union_bound": template.use_union_bound,
            # Each process worker lazily builds its own ball cache over
            # its own oracle (the parent's kernel holds a lock and is
            # not shipped).
            "distance_engine": template.distance_engine,
            "kernel_backend": template.kernel_backend,
        }

    def _ensure_pool(self) -> Executor:
        # A graph.version bump since pool start means process workers
        # hold a stale graph (and, under csr, a stale shared segment):
        # tear everything down and respawn against the current version.
        version = getattr(self.graph, "version", None)
        if self._pool is not None and self._pool_version != version:
            self._teardown_pool()
        if self._pool is not None:
            return self._pool
        if self.executor_kind == "thread":
            self._floor_cell = _FloorBox()
            self._pool = ThreadPoolExecutor(
                max_workers=self.jobs, thread_name_prefix="ktg-parallel"
            )
        else:
            import multiprocessing

            template = self._template
            self._floor_cell = multiprocessing.Value("d", 0.0)
            if self.graph_layout == "csr":
                # Zero-copy fan-out: publish one shared-memory copy of
                # the CSR snapshot and hand workers its *name*.  The
                # engine owns the segment (released in _teardown_pool).
                base = getattr(template.graph, "snapshot", None)
                if base is None:
                    base = template.graph.csr_snapshot()  # type: ignore[union-attr]
                self._shared_snapshot = base.share(instruments=self.instruments)
                spec = _strategy_spec(template.strategy)
                try:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.jobs,
                        initializer=_parallel_worker_init_csr,
                        initargs=(
                            self._shared_snapshot.name,
                            None if spec is not None else template.strategy,
                            spec,
                            self._worker_options(),
                            self._floor_cell,
                        ),
                    )
                except BaseException:
                    # Pool construction failing after share() would
                    # otherwise strand the engine-owned segment until
                    # close(); unlink it eagerly so a crashy start
                    # leaves /dev/shm clean.
                    self._shared_snapshot.release(instruments=self.instruments)
                    self._shared_snapshot = None
                    raise
            else:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=_parallel_worker_init,
                    initargs=(
                        template.graph,
                        template.oracle,
                        template.strategy,
                        self._worker_options(),
                        self._floor_cell,
                    ),
                )
        self._pool_version = version
        return self._pool

    # ------------------------------------------------------------------
    def _aggregate(
        self,
        root_stats: SearchStats,
        outcomes: list[_SubproblemOutcome],
        accepted: int,
    ) -> SearchStats:
        return aggregate_subproblem_stats(root_stats, outcomes, accepted)

    def __repr__(self) -> str:
        return (
            f"ParallelBranchAndBoundSolver({self.algorithm_name}, "
            f"jobs={self.jobs}x{self.executor_kind}, "
            f"broadcast={self.bound_broadcast})"
        )


def aggregate_subproblem_stats(
    root_stats: SearchStats,
    outcomes: Sequence[_SubproblemOutcome],
    accepted: int,
) -> SearchStats:
    """Fold per-subproblem stats plus the root node's own accounting.

    *outcomes* must be in root-position order: node renumbering assigns
    each subtree the id range the serial search would have used, so
    ``first_feasible_node`` matches serial bit for bit.
    """
    total = SearchStats()
    # The serial root expands exactly one interior node (degenerate
    # roots took the serial fallback path before reaching here).
    total.nodes_expanded = 1
    total.nodes_interior = 1
    total.kline_removed = root_stats.kline_removed
    total.offers_accepted = accepted
    offset = 1  # serial node numbering: root is node 1
    for outcome in outcomes:
        stats = outcome.stats
        if total.first_feasible_node is None and stats.first_feasible_node is not None:
            total.first_feasible_node = offset + stats.first_feasible_node
        offset += stats.nodes_expanded
        total.nodes_expanded += stats.nodes_expanded
        total.feasible_groups += stats.feasible_groups
        total.keyword_prunes += stats.keyword_prunes
        total.kline_removed += stats.kline_removed
        total.nodes_interior += stats.nodes_interior
        total.nodes_completed += stats.nodes_completed
        total.nodes_exhausted += stats.nodes_exhausted
        total.node_prunes += stats.node_prunes
        total.leaf_prunes += stats.leaf_prunes
        total.union_prunes += stats.union_prunes
        total.budget_exhausted = total.budget_exhausted or stats.budget_exhausted
    return total


def _replay(pool: TopNPool, outcomes: Sequence[_SubproblemOutcome]) -> int:
    """Re-offer recorded groups in discovery order; return admissions."""
    accepted = 0
    for outcome in outcomes:
        for members, coverage in outcome.offers:
            if pool.offer(members, coverage):
                accepted += 1
    return accepted


def make_parallel_solver(
    graph: GraphLike,
    strategy_name: str = "vkc-deg",
    oracle: Optional[DistanceOracle] = None,
    **engine_options: Any,
) -> ParallelBranchAndBoundSolver:
    """Convenience factory mirroring :func:`repro.core.branch_and_bound.make_solver`."""
    from repro.core.strategies import strategy_by_name

    strategy = strategy_by_name(strategy_name, graph)
    return ParallelBranchAndBoundSolver(
        graph, oracle=oracle, strategy=strategy, **engine_options
    )
