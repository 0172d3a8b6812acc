"""Brute-force exact KTG baseline (Section III).

Enumerates every ``C(|qualified|, p)`` combination, keeps the feasible
(k-distance) ones, and pools the top N by coverage.  Exponential, but on
small graphs it is the ground truth every branch-and-bound variant is
validated against — the property-based tests compare coverage profiles
between this solver and each BB configuration.

A mild short-circuit is applied (combinations are grown with incremental
tenuity checks rather than generated blindly), which changes nothing
about what is enumerated, only how fast infeasible prefixes die.  Pass
``check_prefix_tenuity=False`` to get the literal generate-then-test
method whose cost the paper quotes as ``O(|V|^p)``.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Optional, Sequence

from repro.core.branch_and_bound import KTGResult, SearchStats
from repro.core.coverage import CoverageContext
from repro.core.errors import IndexBuildError
from repro.core.graph import AttributedGraph
from repro.core.query import KTGQuery
from repro.core.results import TopNPool
from repro.index.base import DistanceOracle
from repro.index.bfs import BFSOracle

__all__ = ["BruteForceSolver"]


class BruteForceSolver:
    """Exhaustive top-N KTG solver (the paper's naive method).

    ``distance_engine="bitset"`` (or a shared *kernel*) answers the
    per-pair tenuity checks from cached k-hop ball bitsets instead of
    oracle probes; the enumeration order and results are identical.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        oracle: Optional[DistanceOracle] = None,
        check_prefix_tenuity: bool = True,
        distance_engine: str = "oracle",
        kernel=None,
    ) -> None:
        self.graph = graph
        self.oracle = oracle if oracle is not None else BFSOracle(graph)
        self.check_prefix_tenuity = check_prefix_tenuity
        if kernel is None and distance_engine == "oracle":
            self.kernel = None
        else:
            from repro.kernels.engine import resolve_distance_engine

            self.kernel = resolve_distance_engine(distance_engine, self.oracle, kernel)
        self.distance_engine = "bitset" if self.kernel is not None else "oracle"

    @property
    def algorithm_name(self) -> str:
        return f"KTG-BRUTE-{self.oracle.name.upper()}"

    def solve(
        self,
        query: KTGQuery,
        candidates: Optional[Sequence[int]] = None,
    ) -> KTGResult:
        """Answer *query* by exhaustive enumeration."""
        if self.oracle.is_stale():
            raise IndexBuildError(
                "the distance oracle was built on an older version of the "
                "graph; rebuild it before solving"
            )
        stats = SearchStats()
        started = time.perf_counter()

        context = query.cached_context(self.graph)
        pool = TopNPool(query.top_n)

        if candidates is None:
            qualified = context.qualified_vertices()
        else:
            masks = context.masks
            qualified = [v for v in candidates if masks[v]]
        for anchor in query.excluded_anchors:
            if self.kernel is not None:
                qualified = self.kernel.filter_candidates(
                    qualified, anchor, query.tenuity
                )
            else:
                qualified = self.oracle.filter_candidates(
                    qualified, anchor, query.tenuity
                )
            qualified = [v for v in qualified if v != anchor]

        if self.check_prefix_tenuity:
            self._grow([], qualified, query, context, pool, stats)
        else:
            self._generate_and_test(qualified, query, context, pool, stats)

        stats.elapsed_seconds = time.perf_counter() - started
        return KTGResult(
            query=query,
            algorithm=self.algorithm_name,
            groups=tuple(pool.best()),
            stats=stats,
        )

    # ------------------------------------------------------------------
    def _generate_and_test(
        self,
        qualified: list[int],
        query: KTGQuery,
        context: CoverageContext,
        pool: TopNPool,
        stats: SearchStats,
    ) -> None:
        """The literal naive method: enumerate all combinations, then test."""
        kernel = self.kernel
        is_tenuous = self.oracle.is_tenuous
        k = query.tenuity
        for members in combinations(qualified, query.group_size):
            stats.nodes_expanded += 1
            if kernel is not None:
                feasible = kernel.pairwise_tenuous(members, k)
            else:
                feasible = all(
                    is_tenuous(u, v, k)
                    for i, u in enumerate(members)
                    for v in members[i + 1 :]
                )
            if feasible:
                stats.feasible_groups += 1
                if pool.offer(members, context.group_coverage(members)):
                    stats.offers_accepted += 1

    def _grow(
        self,
        members: list[int],
        rest: list[int],
        query: KTGQuery,
        context: CoverageContext,
        pool: TopNPool,
        stats: SearchStats,
    ) -> None:
        """Enumerate combinations, dropping infeasible prefixes early."""
        stats.nodes_expanded += 1
        if len(members) == query.group_size:
            stats.feasible_groups += 1
            if pool.offer(members, context.group_coverage(members)):
                stats.offers_accepted += 1
            return
        slots = query.group_size - len(members)
        kernel = self.kernel
        is_tenuous = self.oracle.is_tenuous
        k = query.tenuity
        members_mask = kernel.encode(members) if kernel is not None else 0
        for position, vertex in enumerate(rest):
            if len(rest) - position < slots:
                break
            if kernel is not None:
                extends = kernel.new_member_tenuous(members_mask, vertex, k)
            else:
                extends = all(is_tenuous(vertex, member, k) for member in members)
            if extends:
                members.append(vertex)
                self._grow(members, rest[position + 1 :], query, context, pool, stats)
                members.pop()
