"""Experiment runner: algorithm registry + latency measurement.

This is the harness behind every latency figure (Figures 3-7).  It
knows the paper's algorithm line-up by name::

    KTG-QKC-NLRNL       query-keyword-coverage ordering, NLRNL index
    KTG-VKC-NL          valid-keyword-coverage ordering, NL index
    KTG-VKC-NLRNL       valid-keyword-coverage ordering, NLRNL index
    KTG-VKC-DEG-NLRNL   VKC + degree tie-break, NLRNL index
    DKTG-GREEDY         greedy diversified search on KTG-VKC-DEG-NLRNL

and runs each over a :class:`repro.workloads.generator.QueryWorkload`,
reporting mean/median/p95 latency plus solver counters.  Index build
time is *excluded* from per-query latency (the paper reports it
separately, Figure 9(b)); oracles are cached per (graph, kind) so a
sweep over p values reuses one index, like the paper's setup.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.core.branch_and_bound import BranchAndBoundSolver, KTGResult
from repro.core.dktg import DKTGGreedySolver, DKTGResult
from repro.core.graph import AttributedGraph
from repro.core.query import DKTGQuery
from repro.core.strategies import QKCOrdering, VKCDegreeOrdering, VKCOrdering
from repro.index.base import DistanceOracle
from repro.index.bfs import BFSOracle
from repro.index.nl import NLIndex
from repro.index.nlrnl import NLRNLIndex
from repro.index.pll import PLLIndex
from repro.workloads.generator import QueryWorkload

__all__ = [
    "ALGORITHMS",
    "AlgorithmSpec",
    "LatencyReport",
    "ExperimentRunner",
    "percentile_nearest_rank",
]


def percentile_nearest_rank(ordered: Sequence[float], fraction: float) -> float:
    """Ceiling nearest-rank percentile of pre-sorted *ordered* samples.

    The nearest-rank definition picks the smallest sample whose rank is
    at least ``fraction * n``, i.e. index ``ceil(fraction * n) - 1``.
    ``int(round(...))`` is *not* equivalent: banker's rounding of the
    half-way cases picks the rank below the percentile for some sample
    sizes (e.g. n=31 at the 95th percentile).
    """
    if not ordered:
        return 0.0
    index = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[min(index, len(ordered) - 1)]


@dataclass(frozen=True)
class AlgorithmSpec:
    """One named algorithm: an ordering choice plus an oracle kind."""

    name: str
    strategy_name: str  # "qkc" | "vkc" | "vkc-deg"
    oracle_kind: str    # "bfs" | "nl" | "nlrnl"
    diversified: bool = False

    def build_oracle(self, graph: AttributedGraph) -> DistanceOracle:
        if self.oracle_kind == "bfs":
            return BFSOracle(graph)
        if self.oracle_kind == "nl":
            return NLIndex(graph)
        if self.oracle_kind == "nlrnl":
            return NLRNLIndex(graph)
        if self.oracle_kind == "pll":
            return PLLIndex(graph)
        raise ValueError(f"unknown oracle kind {self.oracle_kind!r}")

    def build_solver(
        self,
        graph: AttributedGraph,
        oracle: DistanceOracle,
        **solver_options,
    ) -> Union[BranchAndBoundSolver, DKTGGreedySolver]:
        """Build the solver; *solver_options* (e.g. ``node_budget``,
        ``time_budget``) pass straight to :class:`BranchAndBoundSolver`
        — the admission-control hook :class:`repro.service.QueryService`
        uses to cap per-query cost."""
        if self.strategy_name == "qkc":
            strategy = QKCOrdering()
        elif self.strategy_name == "vkc":
            strategy = VKCOrdering()
        elif self.strategy_name == "vkc-deg":
            strategy = VKCDegreeOrdering(graph.degrees())
        else:
            raise ValueError(f"unknown strategy {self.strategy_name!r}")
        solver = BranchAndBoundSolver(
            graph, oracle=oracle, strategy=strategy, **solver_options
        )
        if self.diversified:
            return DKTGGreedySolver(graph, inner_solver=solver)
        return solver


#: The paper's evaluated line-up (Section VII-A).
ALGORITHMS: dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in (
        AlgorithmSpec("KTG-QKC-NLRNL", "qkc", "nlrnl"),
        AlgorithmSpec("KTG-VKC-NL", "vkc", "nl"),
        AlgorithmSpec("KTG-VKC-NLRNL", "vkc", "nlrnl"),
        AlgorithmSpec("KTG-VKC-DEG-NLRNL", "vkc-deg", "nlrnl"),
        AlgorithmSpec("DKTG-GREEDY", "vkc-deg", "nlrnl", diversified=True),
    )
}


@dataclass
class LatencyReport:
    """Aggregate of one algorithm over one workload."""

    algorithm: str
    dataset: str
    query_count: int
    latencies_ms: list[float] = field(repr=False, default_factory=list)
    total_nodes_expanded: int = 0
    total_feasible_groups: int = 0
    empty_results: int = 0
    total_keyword_prunes: int = 0
    total_kline_removed: int = 0

    @property
    def mean_ms(self) -> float:
        return statistics.fmean(self.latencies_ms) if self.latencies_ms else 0.0

    @property
    def median_ms(self) -> float:
        return statistics.median(self.latencies_ms) if self.latencies_ms else 0.0

    @property
    def p95_ms(self) -> float:
        return percentile_nearest_rank(sorted(self.latencies_ms), 0.95)

    def row(self) -> dict:
        """Flat dict for table/CSV rendering."""
        return {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "queries": self.query_count,
            "mean_ms": self.mean_ms,
            "median_ms": self.median_ms,
            "p95_ms": self.p95_ms,
            "nodes": self.total_nodes_expanded,
            "empty": self.empty_results,
            "keyword_prunes": self.total_keyword_prunes,
            "kline_removed": self.total_kline_removed,
        }


class ExperimentRunner:
    """Runs named algorithms over workloads with per-graph oracle caching."""

    def __init__(self, graph: AttributedGraph, dataset_name: str = "unnamed") -> None:
        self.graph = graph
        self.dataset_name = dataset_name
        self._oracles: dict[str, DistanceOracle] = {}

    def oracle_for(self, spec: AlgorithmSpec) -> DistanceOracle:
        """Build (once) and return the oracle a spec needs."""
        oracle = self._oracles.get(spec.oracle_kind)
        if oracle is None or oracle.is_stale():
            oracle = spec.build_oracle(self.graph)
            self._oracles[spec.oracle_kind] = oracle
        return oracle

    def run(
        self,
        algorithm: Union[str, AlgorithmSpec],
        workload: QueryWorkload,
        result_hook: Optional[Callable[[Union[KTGResult, DKTGResult]], None]] = None,
    ) -> LatencyReport:
        """Execute *algorithm* over every query in *workload*.

        *result_hook* receives each per-query result (for effectiveness
        analyses that want more than latency).
        """
        spec = ALGORITHMS[algorithm] if isinstance(algorithm, str) else algorithm
        oracle = self.oracle_for(spec)
        solver = spec.build_solver(self.graph, oracle)
        report = LatencyReport(
            algorithm=spec.name,
            dataset=workload.dataset if workload.dataset != "unnamed" else self.dataset_name,
            query_count=len(workload),
        )
        for query in workload:
            if spec.diversified and not isinstance(query, DKTGQuery):
                query = DKTGQuery(
                    keywords=query.keywords,
                    group_size=query.group_size,
                    tenuity=query.tenuity,
                    top_n=query.top_n,
                    excluded_anchors=query.excluded_anchors,
                )
            started = time.perf_counter()
            result = solver.solve(query)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            report.latencies_ms.append(elapsed_ms)
            report.total_nodes_expanded += result.stats.nodes_expanded
            report.total_feasible_groups += result.stats.feasible_groups
            report.total_keyword_prunes += result.stats.keyword_prunes
            report.total_kline_removed += result.stats.kline_removed
            if not result.groups:
                report.empty_results += 1
            if result_hook is not None:
                result_hook(result)
        return report
