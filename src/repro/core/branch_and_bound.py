"""The branch-and-bound KTG solver (Algorithm 1 and its variants).

One engine implements all three exact algorithms of the paper; they are
obtained by plugging in an ordering strategy and a distance oracle:

===================  =====================  ======================
Paper name           strategy               oracle
===================  =====================  ======================
KTG-QKC-NLRNL        ``QKCOrdering``        ``NLRNLIndex``
KTG-VKC-NL           ``VKCOrdering``        ``NLIndex``
KTG-VKC-NLRNL        ``VKCOrdering``        ``NLRNLIndex``
KTG-VKC-DEG-NLRNL    ``VKCDegreeOrdering``  ``NLRNLIndex``
===================  =====================  ======================

The search maintains the intermediate group ``S_I`` (as a covered-keyword
mask plus member list) and the ordered remaining candidate set ``S_R``.
At each node it tries each candidate in order; choosing candidate ``v``
k-line-filters the candidates after ``v`` against ``v`` (Theorem 3),
re-orders them per the strategy, and recurses.  Keyword pruning
(Theorem 2) cuts branches whose coverage upper bound cannot beat the
current top-N threshold ``C_max``; under VKC ordering the candidate list
is VKC-sorted, so the bound is read off the list head in O(p).  Most
children are cut this way on entry, so the solver decides each child's
cut from the parent's order (an upper bound on the child's own) before
filtering its candidates, and replays the child's entry instead; since
that bound never grows along the list, the first cut child ends the
loop and the rest of the list is replayed in one step.

Both rules can be disabled (``keyword_pruning=False`` /
``kline_filtering=False``) for the pruning ablation; with filtering off
the solver falls back to checking all pairwise distances when a group
reaches size ``p``, which preserves exactness.
"""

from __future__ import annotations

import struct
import sys
import time
from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.coverage import CoverageContext
from repro.core.errors import IndexBuildError
from repro.core.pruning import keyword_prune_decision
from repro.core.query import KTGQuery
from repro.core.results import Group, TopNPool
from repro.core.strategies import OrderingStrategy, VKCOrdering
from repro.core.graph import AttributedGraph
from repro.index.base import DistanceOracle
from repro.index.bfs import BFSOracle

if TYPE_CHECKING:  # hooks are duck-typed at runtime (no repro.obs import)
    from repro.kernels.engine import BallBitsetEngine
    from repro.obs.hooks import SolverHooks

__all__ = ["SearchStats", "KTGResult", "BranchAndBoundSolver"]


class _BudgetExhausted(Exception):
    """Internal signal: a node/time budget stopped the search."""


@dataclass(slots=True)
class SearchStats:
    """Instrumentation for one solver run.

    ``nodes_expanded`` counts search-tree nodes entered;
    ``keyword_prunes`` counts branches cut by Theorem 2;
    ``kline_removed`` counts candidates dropped by Theorem 3;
    ``first_feasible_node`` records how many nodes were expanded before
    the first feasible group was found (the quantity the VKC-DEG
    ordering is designed to minimise).

    Every entered node is classified exactly once: it either recursed
    into children (``nodes_interior``), ran the leaf completion scan
    (``nodes_completed``), had fewer candidates than open slots
    (``nodes_exhausted``) or was cut by keyword pruning
    (``node_prunes``).  On an unbudgeted run::

        nodes_expanded == nodes_interior + nodes_completed
                          + nodes_exhausted + node_prunes

    (a budget trip leaves the last entered node unclassified).
    ``keyword_prunes`` splits as ``node_prunes + leaf_prunes`` — leaf
    prunes are the early breaks of the VKC-sorted completion scan —
    and ``union_prunes`` counts node prunes where the union-of-masks
    bound was the strictly tighter rule.
    """

    nodes_expanded: int = 0
    feasible_groups: int = 0
    keyword_prunes: int = 0
    kline_removed: int = 0
    offers_accepted: int = 0
    elapsed_seconds: float = 0.0
    first_feasible_node: Optional[int] = None
    #: True when a node/time budget stopped the search early; the result
    #: is then the best found so far (anytime behaviour), not certified
    #: optimal.
    budget_exhausted: bool = False
    nodes_interior: int = 0
    nodes_completed: int = 0
    nodes_exhausted: int = 0
    node_prunes: int = 0
    leaf_prunes: int = 0
    union_prunes: int = 0

    def __reduce__(self):
        # Explicit, so protocols 0 and 1 work too (slots have no dict).
        return (SearchStats, tuple(getattr(self, name) for name in self.__slots__))


#: The integer fields of a :class:`SearchStats` in a packed result, in
#: order; ``first_feasible_node`` is stored plus one (0 for ``None``).
_STATS_INTS = (
    "first_feasible_node",
    "nodes_expanded",
    "feasible_groups",
    "keyword_prunes",
    "kline_removed",
    "offers_accepted",
    "nodes_interior",
    "nodes_completed",
    "nodes_exhausted",
    "node_prunes",
    "leaf_prunes",
    "union_prunes",
)
#: Stats layout per integer code: elapsed seconds, the budget flag, then
#: the integer fields.
_STATS_LAYOUTS = {code: struct.Struct(f"<d?{len(_STATS_INTS)}{code}") for code in "HIq"}
#: Head of one packed group: its coverage and member count.
_GROUP_HEAD = struct.Struct("<dH")


def _int_code(values: Sequence[int]) -> str:
    """The narrowest struct code that holds every one of *values*."""
    if min(values, default=0) < 0:
        return "q"
    top = max(values, default=0)
    return "H" if top < 1 << 16 else "I" if top < 1 << 32 else "q"


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class KTGResult:
    """Outcome of one KTG query: the top-N groups plus instrumentation.

    Served results stay alive in caches and audit logs, so the groups
    and the stats are stored packed in one ``bytes`` record, instead of
    a tuple of :class:`Group` objects that each own a member tuple and a
    :class:`SearchStats` that owns its counters.  The record is two
    struct codes (one for the stats' integers, one for the members, each
    the narrowest that fits), the stats, then per group its coverage,
    size and members.  ``groups`` and ``stats`` are init arguments
    (``dataclasses.replace(result, groups=...)`` works) and read back as
    a tuple of :class:`Group` and a :class:`SearchStats`, rebuilt on
    each read: mutating a read-back ``stats`` does not change the
    result.  The one exception is a hooked solve's result, which keeps
    and returns the very :class:`SearchStats` its hooks were given.
    Equality and hashing take the query, the algorithm and the groups,
    not the stats.
    """

    query: KTGQuery
    algorithm: str
    groups: InitVar[Sequence[Group]] = ()
    stats: InitVar[Optional[SearchStats]] = None
    _packed: bytes = field(init=False)
    _hooked_stats: Optional[SearchStats] = field(default=None, init=False, compare=False)

    def __post_init__(self, groups: Sequence[Group], stats: Optional[SearchStats]) -> None:
        if stats is None:
            stats = SearchStats()
        first = stats.first_feasible_node
        ints = [0 if first is None else first + 1]
        ints.extend(getattr(stats, name) for name in _STATS_INTS[1:])
        members = [member for group in groups for member in group.members]
        stats_code, member_code = _int_code(ints), _int_code(members)
        parts = [
            (stats_code + member_code).encode(),
            _STATS_LAYOUTS[stats_code].pack(stats.elapsed_seconds, stats.budget_exhausted, *ints),
        ]
        for group in groups:
            size = len(group.members)
            parts.append(_GROUP_HEAD.pack(group.coverage, size))
            parts.append(struct.pack(f"<{size}{member_code}", *group.members))
        object.__setattr__(self, "_packed", b"".join(parts))

    def _groups_start(self) -> int:
        return 2 + _STATS_LAYOUTS[chr(self._packed[0])].size

    def _unpack_groups(self) -> tuple[Group, ...]:
        packed = self._packed
        code = chr(packed[1])
        width = struct.calcsize(code)
        groups = []
        offset = self._groups_start()
        while offset < len(packed):
            coverage, size = _GROUP_HEAD.unpack_from(packed, offset)
            offset += _GROUP_HEAD.size
            groups.append(Group(coverage, struct.unpack_from(f"<{size}{code}", packed, offset)))
            offset += size * width
        return tuple(groups)

    def _unpack_stats(self) -> SearchStats:
        if self._hooked_stats is not None:
            return self._hooked_stats
        layout = _STATS_LAYOUTS[chr(self._packed[0])]
        elapsed, exhausted, first, *counters = layout.unpack_from(self._packed, 2)
        stats = SearchStats(
            elapsed_seconds=elapsed,
            budget_exhausted=exhausted,
            first_feasible_node=first - 1 if first else None,
        )
        for name, value in zip(_STATS_INTS[1:], counters):
            setattr(stats, name, value)
        return stats

    def _identity(self) -> tuple:
        packed = self._packed
        return (self.query, self.algorithm, packed[1:2] + packed[self._groups_start() :])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._identity() == other._identity()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._identity())

    @property
    def best_coverage(self) -> float:
        """Coverage of the best group (0.0 when no group was found)."""
        start = self._groups_start()
        return _GROUP_HEAD.unpack_from(self._packed, start)[0] if len(self._packed) > start else 0.0

    @property
    def is_exact(self) -> bool:
        """Whether the search ran to completion (certified optimum)."""
        return not self.stats.budget_exhausted

    def member_sets(self) -> list[tuple[int, ...]]:
        """Member tuples of the result groups, best first."""
        return [group.members for group in self.groups]

    def __reduce__(self):
        # Explicit, so every pickle protocol works (slots have no dict).
        return (KTGResult, (self.query, self.algorithm, self.groups, self.stats))

    def __repr__(self) -> str:
        return (
            f"KTGResult(query={self.query!r}, algorithm={self.algorithm!r}, "
            f"groups={self.groups!r}, stats={self.stats!r})"
        )

    def __str__(self) -> str:
        groups = self.groups
        lines = [f"{self.algorithm} for {self.query.describe()}:"]
        lines.extend(f"  {rank}. {group}" for rank, group in enumerate(groups, 1))
        if not groups:
            lines.append("  (no feasible group)")
        return "\n".join(lines)


# Attached after the decorator ran: declared in the class body, a
# property would become its init argument's default.
KTGResult.groups = property(  # type: ignore[assignment]
    KTGResult._unpack_groups, doc="The top-N groups, best first."
)
KTGResult.stats = property(  # type: ignore[assignment]
    KTGResult._unpack_stats, doc="The search's instrumentation."
)


class BranchAndBoundSolver:
    """Exact top-N KTG solver parameterised by strategy and oracle.

    Parameters
    ----------
    graph:
        The attributed social network.
    oracle:
        Distance oracle for k-line checks; defaults to a fresh
        :class:`BFSOracle` (no precomputation).
    strategy:
        Candidate ordering; defaults to :class:`VKCOrdering`
        (KTG-VKC of Algorithm 1).
    keyword_pruning:
        Apply Theorem 2 branch cutting (default on).
    kline_filtering:
        Apply Theorem 3 incremental candidate filtering (default on).
        When off, tenuity is verified pairwise on complete groups.
    use_union_bound:
        Tighten the Theorem 2 bound with the union-of-masks bound
        (library extension; see :mod:`repro.core.pruning`).
    node_budget / time_budget:
        Optional anytime limits (search-tree nodes / wall seconds).  The
        problem is NP-hard, so production callers cap worst-case cost;
        when a budget trips, the best groups found so far are returned
        and ``result.is_exact`` is False.
    distance_engine:
        ``"oracle"`` (default) answers k-line filtering with per-call
        oracle probes; ``"bitset"`` routes it through a
        :class:`repro.kernels.BallBitsetEngine` — cached k-hop ball
        bitsets with whole-mask filtering.  Results are bit-identical
        either way (the kernel is a view over the same oracle).
    kernel:
        Optional prebuilt ball-bitset engine (implies the bitset
        engine).  Pass one to share its ball cache across solvers —
        e.g. queries served by one :class:`repro.service.QueryService`.

    Examples
    --------
    >>> g = AttributedGraph(4, [(0, 1)], {0: ["a"], 1: ["b"], 2: ["a", "b"], 3: ["b"]})
    >>> solver = BranchAndBoundSolver(g)
    >>> result = solver.solve(KTGQuery(keywords=("a", "b"), group_size=2, tenuity=1, top_n=1))
    >>> result.groups[0].coverage
    1.0
    """

    def __init__(
        self,
        graph: AttributedGraph,
        oracle: Optional[DistanceOracle] = None,
        strategy: Optional[OrderingStrategy] = None,
        keyword_pruning: bool = True,
        kline_filtering: bool = True,
        use_union_bound: bool = False,
        node_budget: Optional[int] = None,
        time_budget: Optional[float] = None,
        distance_engine: str = "oracle",
        kernel: Optional["BallBitsetEngine"] = None,
    ) -> None:
        if node_budget is not None and node_budget < 1:
            raise ValueError(f"node_budget must be positive, got {node_budget}")
        if time_budget is not None and time_budget <= 0:
            raise ValueError(f"time_budget must be positive, got {time_budget}")
        self.graph = graph
        self.oracle = oracle if oracle is not None else BFSOracle(graph)
        self.strategy = strategy if strategy is not None else VKCOrdering()
        self.keyword_pruning = keyword_pruning
        self.kline_filtering = kline_filtering
        self.use_union_bound = use_union_bound
        self.node_budget = node_budget
        self.time_budget = time_budget
        if kernel is None and distance_engine == "oracle":
            self.kernel: Optional["BallBitsetEngine"] = None
        else:
            # Lazy import: repro.kernels pulls in repro.obs, which this
            # module otherwise avoids at runtime (hooks are duck-typed).
            from repro.kernels.engine import resolve_distance_engine

            self.kernel = resolve_distance_engine(
                distance_engine, self.oracle, kernel
            )
        self.distance_engine = "bitset" if self.kernel is not None else "oracle"
        self._deadline: Optional[float] = None
        self._hooks: Optional["SolverHooks"] = None
        # Strong ref to the most recent coverage context: keeps its
        # KTGQuery.cached_context memo entry alive between solves of the
        # same keywords without pinning contexts globally.
        self._last_context: Optional[CoverageContext] = None

    # ------------------------------------------------------------------
    @property
    def algorithm_name(self) -> str:
        """Paper-style label, e.g. ``KTG-VKC-DEG-NLRNL``."""
        strategy_part = self.strategy.name.upper()
        # Interned: every result carries it, so results share one string.
        return sys.intern(f"KTG-{strategy_part}-{self.oracle.name.upper()}")

    # ------------------------------------------------------------------
    def solve(
        self,
        query: KTGQuery,
        candidates: Optional[Sequence[int]] = None,
        hooks: Optional["SolverHooks"] = None,
    ) -> KTGResult:
        """Answer *query*, optionally restricted to a candidate subset.

        The *candidates* override exists for DKTG-Greedy, which re-runs
        the search with already-used members removed.  Candidates are
        still required to cover at least one query keyword.

        *hooks* attaches a :class:`repro.obs.hooks.SolverHooks`
        subscriber for this solve only; with the default ``None`` every
        event site is a single ``is None`` check and nothing is
        allocated.
        """
        if self.oracle.is_stale():
            raise IndexBuildError(
                "the distance oracle was built on an older version of the "
                "graph; call oracle.rebuild() (or oracle.insert_edge/"
                "delete_edge for incremental indexes) before solving"
            )
        stats = SearchStats()
        started = time.perf_counter()

        context = query.cached_context(self.graph)
        self._last_context = context
        pool = TopNPool(query.top_n)

        initial = self._initial_candidates(query, context, candidates, stats)
        initial = self.strategy.initial_order(initial, context)

        self._deadline = (
            started + self.time_budget if self.time_budget is not None else None
        )
        self._hooks = hooks
        if hooks is not None:
            hooks.search_started(query, tuple(initial))
        try:
            self._search(
                members=[],
                covered_mask=0,
                remaining=initial,
                query=query,
                context=context,
                pool=pool,
                stats=stats,
            )
        except _BudgetExhausted:
            stats.budget_exhausted = True
        finally:
            self._hooks = None

        stats.elapsed_seconds = time.perf_counter() - started
        if hooks is not None:
            hooks.search_finished(stats)
        result = KTGResult(
            query=query,
            algorithm=self.algorithm_name,
            groups=tuple(pool.best()),
            stats=stats,
        )
        if hooks is not None:
            object.__setattr__(result, "_hooked_stats", stats)
        return result

    # ------------------------------------------------------------------
    def _initial_candidates(
        self,
        query: KTGQuery,
        context: CoverageContext,
        candidates: Optional[Sequence[int]],
        stats: SearchStats,
    ) -> list[int]:
        """Qualified users: cover >=1 query keyword, and (for the
        multi-query-vertex extension) lie farther than k from every
        anchor."""
        if candidates is None:
            qualified = context.qualified_vertices()
        else:
            masks = context.masks
            qualified = [v for v in candidates if masks[v]]
        kernel = self.kernel
        if kernel is not None and query.excluded_anchors:
            # All anchors' blocked balls fold into one exclusion mask;
            # one subtraction removes every familiar candidate.
            before = len(qualified)
            excluded = kernel.exclusion_mask(query.excluded_anchors, query.tenuity)
            removed = kernel.decode(kernel.encode(qualified) & excluded)
            if removed:
                qualified = [v for v in qualified if v not in removed]
            stats.kline_removed += before - len(qualified)
            return qualified
        for anchor in query.excluded_anchors:
            before = len(qualified)
            qualified = self.oracle.filter_candidates(qualified, anchor, query.tenuity)
            qualified = [v for v in qualified if v != anchor]
            stats.kline_removed += before - len(qualified)
        return qualified

    def _search(
        self,
        members: list[int],
        covered_mask: int,
        remaining: list[int],
        query: KTGQuery,
        context: CoverageContext,
        pool: TopNPool,
        stats: SearchStats,
        remaining_mask: Optional[int] = None,
    ) -> None:
        hooks = self._hooks
        slots = query.group_size - len(members)
        self._enter_node(members, slots, len(remaining), stats)
        if len(remaining) < slots:
            stats.nodes_exhausted += 1
            if hooks is not None:
                hooks.node_exhausted(tuple(members))
            return

        if self.keyword_pruning:
            bound, rule = keyword_prune_decision(
                covered_mask,
                remaining,
                slots,
                context,
                presorted_by_vkc=self.strategy.vkc_descending,
                use_union_bound=self.use_union_bound,
            )
            if bound <= pool.threshold:
                stats.keyword_prunes += 1
                stats.node_prunes += 1
                if rule == "union":
                    stats.union_prunes += 1
                if hooks is not None:
                    hooks.node_pruned(tuple(members), rule, bound, pool.threshold)
                return

        masks = context.masks
        if slots == 1:
            stats.nodes_completed += 1
            self._complete_groups(
                members, covered_mask, remaining, query, context, pool, stats
            )
            return

        stats.nodes_interior += 1
        kernel = self.kernel
        tail_mask = 0
        if kernel is not None and self.kline_filtering:
            # The tail bitset is threaded through the recursion: it is
            # encoded once per node (or inherited from the parent's
            # filter) and shrunk per iteration, so each k-line filter is
            # whole-mask arithmetic instead of a per-candidate loop.
            tail_mask = (
                remaining_mask if remaining_mask is not None
                else kernel.encode(remaining)
            )
        # Bound before filter and bound before re-sort (see the loop
        # below) need a VKC-sorted list and the plain Theorem 2 bound.
        bound_first = (
            self.keyword_pruning
            and self.strategy.vkc_descending
            and not self.use_union_bound
        )
        uncovered = ~covered_mask
        query_size = context.query_size
        covered_bits = covered_mask.bit_count()
        window = 0
        if bound_first:
            # Gains of ``remaining[position + 1 : position + slots]``, the
            # window of the child that adds ``remaining[position]``.
            for candidate in remaining[1:slots]:
                window += (masks[candidate] & uncovered).bit_count()
        for position, vertex in enumerate(remaining):
            tail_len = len(remaining) - position - 1
            if tail_len < slots - 1:
                break
            if bound_first:
                # Bound before filter: the child's candidates are a
                # subset of the tail after ``vertex``, whose slots-1
                # largest gains against ``covered_mask`` form the window,
                # and against the child's larger mask every gain can only
                # shrink, so this is >= the bound the child would compute
                # after filtering and re-sorting.  Along the list it never grows (the window
                # slides over non-increasing gains) while C_max never
                # falls, so the first cut child proves every later one
                # cut too.  Unhooked, replay that whole suffix at once
                # and stop; hooked, replay each child with its own bound.
                gain = (masks[vertex] & uncovered).bit_count()
                if position:
                    window += (
                        masks[remaining[position + slots - 1]] & uncovered
                    ).bit_count() - gain
                bound = (covered_bits + gain + window) / query_size
                if bound <= pool.threshold:
                    if hooks is None:
                        cut = len(remaining) - slots - position + 1
                        self._replay_pruned_run(cut, stats)
                        break
                    self._replay_pruned(
                        members, vertex, slots - 1, tail_len, bound, pool, stats
                    )
                    continue
            new_mask = covered_mask | masks[vertex]
            rest_mask: Optional[int] = None
            if self.kline_filtering and kernel is not None:
                # Mask-first filtering: compute the surviving bitset and
                # prune on its popcount before paying the O(|tail|) list
                # rebuild.  When fewer candidates survive than slots
                # remain, the child could only exhaust — replay its
                # bookkeeping and move on.  On dense graphs this skips
                # the rebuild for most interior expansions.
                tail_mask &= ~(1 << vertex)
                rest_mask = kernel.filter_mask(tail_mask, vertex, query.tenuity)
                survivors = rest_mask.bit_count()
                stats.kline_removed += tail_len - survivors
                if hooks is not None:
                    hooks.candidates_filtered(vertex, tail_len, survivors)
                if survivors < slots - 1:
                    self._replay_child(members, vertex, slots - 1, survivors, stats)
                    continue
                rest = remaining[position + 1 :]
                if survivors != tail_len:
                    rest = kernel.select(rest, tail_mask, rest_mask)
            elif self.kline_filtering:
                rest = remaining[position + 1 :]
                rest = self.oracle.filter_candidates(rest, vertex, query.tenuity)
                stats.kline_removed += tail_len - len(rest)
                if hooks is not None:
                    hooks.candidates_filtered(vertex, tail_len, len(rest))
            else:
                rest = remaining[position + 1 :]
            if len(rest) < slots - 1:
                self._replay_child(members, vertex, slots - 1, len(rest), stats)
                continue
            if bound_first:
                # Bound before re-sort: filtering keeps this node's
                # order, so ``rest[:slots-1]`` holds the largest gains in
                # ``rest`` against ``covered_mask``.  The filter may
                # have dropped the window's best candidates, so this
                # cuts children the window could not; a child cut here
                # would have been cut on entry, so replay that entry and
                # skip the sort.
                head_gain = 0
                for candidate in rest[: slots - 1]:
                    head_gain += (masks[candidate] & uncovered).bit_count()
                bound = (new_mask.bit_count() + head_gain) / query_size
                if bound <= pool.threshold:
                    self._replay_pruned(
                        members, vertex, slots - 1, len(rest), bound, pool, stats
                    )
                    continue
            # Re-sorting is only needed when the covered set actually
            # changed: VKC values are a function of the covered mask, and
            # filtering preserves relative order.
            if self.strategy.resorts and new_mask != covered_mask:
                rest = self.strategy.reorder(rest, new_mask, context)
            members.append(vertex)
            self._search(members, new_mask, rest, query, context, pool, stats, rest_mask)
            members.pop()

    def _enter_node(
        self,
        members: list[int],
        slots: int,
        count: int,
        stats: SearchStats,
    ) -> None:
        """Prologue of every search node, entered or replayed: count it,
        announce it (*count* candidates for *slots* open seats) and
        enforce the node and time budgets."""
        stats.nodes_expanded += 1
        hooks = self._hooks
        if hooks is not None:
            hooks.node_entered(tuple(members), slots, count)
        if self.node_budget is not None and stats.nodes_expanded > self.node_budget:
            if hooks is not None:
                hooks.budget_tripped("nodes", tuple(members))
            raise _BudgetExhausted
        # Wall-clock checks are amortised: perf_counter every 256 nodes.
        if (
            self._deadline is not None
            and stats.nodes_expanded % 256 == 0
            and time.perf_counter() > self._deadline
        ):
            if hooks is not None:
                hooks.budget_tripped("time", tuple(members))
            raise _BudgetExhausted

    def _replay_child(
        self,
        members: list[int],
        vertex: int,
        slots: int,
        count: int,
        stats: SearchStats,
    ) -> None:
        """Stats- and hook-faithful replay of the child :meth:`_search`
        that adds *vertex*, for a child the caller already knows will
        exhaust (*count* candidates for *slots* open seats), so its
        candidate list is never materialised or re-sorted."""
        members.append(vertex)
        self._enter_node(members, slots, count, stats)
        stats.nodes_exhausted += 1
        hooks = self._hooks
        if hooks is not None:
            hooks.node_exhausted(tuple(members))
        members.pop()

    def _replay_pruned(
        self,
        members: list[int],
        vertex: int,
        slots: int,
        count: int,
        bound: float,
        pool: TopNPool,
        stats: SearchStats,
    ) -> None:
        """Like :meth:`_replay_child`, for a child keyword pruning cuts
        on entry; *bound* is the caller's admissible bound on it, the
        ``node_pruned`` payload."""
        members.append(vertex)
        self._enter_node(members, slots, count, stats)
        stats.keyword_prunes += 1
        stats.node_prunes += 1
        hooks = self._hooks
        if hooks is not None:
            hooks.node_pruned(tuple(members), "keyword", bound, pool.threshold)
        members.pop()

    def _replay_pruned_run(self, count: int, stats: SearchStats) -> None:
        """Unhooked replay of *count* consecutive children that keyword
        pruning cuts on entry, in one arithmetic step.  Budgets trip
        where per-child replay would: the node budget exactly, the clock
        read once, tripping at the first multiple of 256 in the run.
        """
        start = stats.nodes_expanded
        end = start + count
        trip = None
        if self.node_budget is not None and end > self.node_budget:
            trip = self.node_budget + 1
        if self._deadline is not None:
            check = (start // 256 + 1) * 256
            if (
                check <= end
                and (trip is None or check < trip)
                and time.perf_counter() > self._deadline
            ):
                trip = check
        if trip is not None:
            # The tripping node is counted but left unclassified.
            stats.keyword_prunes += trip - start - 1
            stats.node_prunes += trip - start - 1
            stats.nodes_expanded = trip
            raise _BudgetExhausted
        stats.keyword_prunes += end - start
        stats.node_prunes += end - start
        stats.nodes_expanded = end

    def _complete_groups(
        self,
        members: list[int],
        covered_mask: int,
        remaining: list[int],
        query: KTGQuery,
        context: CoverageContext,
        pool: TopNPool,
        stats: SearchStats,
    ) -> None:
        """Leaf level: one slot left, every remaining candidate completes
        a group.  Inlined (no recursion) because leaves dominate the node
        count; under VKC ordering *remaining* is sorted by gain, so the
        scan stops as soon as no completion can enter the pool."""
        masks = context.masks
        covered_bits = covered_mask.bit_count()
        coverage_of = _coverage_values(context.query_size)
        sorted_by_gain = self.strategy.vkc_descending
        uncovered = ~covered_mask
        hooks = self._hooks
        kernel = self.kernel
        prefix_tenuous = True
        members_mask = 0
        if not self.kline_filtering:
            # The members' own pairwise tenuity is a property of the
            # prefix, not of the completing candidate: certify it once
            # per leaf node and per candidate check only the p-1 new
            # pairs.  (Before this, every candidate re-probed all
            # p·(p-1)/2 pairs, inflating probes and wall time.)
            prefix_tenuous = self._pairwise_tenuous(members, query.tenuity)
            if kernel is not None:
                members_mask = kernel.encode(members)
        # The node-level deadline check only fires between tree nodes; a
        # single dense leaf can hold tens of thousands of candidates, so
        # the scan itself re-checks the clock (amortised every 256
        # candidates) to bound overshoot past ``time_budget``.
        deadline = self._deadline
        for position, vertex in enumerate(remaining):
            if (
                deadline is not None
                and position & 0xFF == 0xFF
                and time.perf_counter() > deadline
            ):
                if hooks is not None:
                    hooks.budget_tripped("time", tuple(members))
                raise _BudgetExhausted
            coverage = coverage_of[covered_bits + (masks[vertex] & uncovered).bit_count()]
            if (
                sorted_by_gain
                and self.keyword_pruning
                and not pool.would_admit(coverage)
            ):
                stats.keyword_prunes += 1
                stats.leaf_prunes += 1
                if hooks is not None:
                    hooks.leaf_visited((*members, vertex), coverage, "pruned")
                break
            if not self.kline_filtering:
                if not prefix_tenuous:
                    tenuous = False
                elif kernel is not None:
                    tenuous = kernel.new_member_tenuous(
                        members_mask, vertex, query.tenuity
                    )
                else:
                    oracle = self.oracle
                    k = query.tenuity
                    tenuous = all(
                        oracle.is_tenuous(vertex, member, k) for member in members
                    )
                if not tenuous:
                    if hooks is not None:
                        hooks.leaf_visited((*members, vertex), coverage, "infeasible")
                    continue
            stats.feasible_groups += 1
            if stats.first_feasible_node is None:
                stats.first_feasible_node = stats.nodes_expanded
            members.append(vertex)
            accepted = pool.offer(members, coverage)
            if accepted:
                stats.offers_accepted += 1
            members.pop()
            if hooks is not None:
                hooks.leaf_visited(
                    (*members, vertex), coverage, "accepted" if accepted else "feasible"
                )

    def _pairwise_tenuous(self, members: Sequence[int], k: int) -> bool:
        """Full pairwise tenuity check, used only when k-line filtering
        is disabled (pruning ablation)."""
        if self.kernel is not None:
            return self.kernel.pairwise_tenuous(members, k)
        oracle = self.oracle
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if not oracle.is_tenuous(u, v, k):
                    return False
        return True


@lru_cache(maxsize=64)
def _coverage_values(query_size: int) -> tuple[float, ...]:
    """``covered / query_size`` for every covered count.  Built once per
    query size, so the groups of every result share these floats."""
    return tuple(covered / query_size for covered in range(query_size + 1))


def make_solver(
    graph: AttributedGraph,
    strategy_name: str = "vkc-deg",
    oracle: Optional[DistanceOracle] = None,
    **solver_options,
) -> BranchAndBoundSolver:
    """Convenience factory: build a solver from a strategy short name."""
    from repro.core.strategies import strategy_by_name

    strategy = strategy_by_name(strategy_name, graph)
    return BranchAndBoundSolver(graph, oracle=oracle, strategy=strategy, **solver_options)
